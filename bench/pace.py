"""Machine-speed reference for normalising benchmark times.

On a shared host the speed of this process drifts by up to 2x in phases that
last from seconds to minutes (measured: the same estimation trial on the same
inputs took 56 to 130 ms within one minute, with no steal time, so process
CPU time drifts the same way).  Raw wall times then differ more between two
runs of the same code than any change worth detecting.

``reference_pass`` runs a fixed mix of the small-array NumPy/SciPy calls that
fcarray makes (hypot, sici, triangular fill, 3x3 cond/solve, steering
exponentials, einsum, quadratic form, log2) without calling fcarray, so its
cost does not change when fcarray does.  ``Pacer`` runs a pass ten times a
second while trials run and divides each trial's time by the mean pass time
around it, then multiplies by ``REFERENCE_S``: times are reported as they would read on
a machine where one pass takes ``REFERENCE_S`` seconds.  The constant only
sets the scale; on the 2-core x86-64 host the benchmark was built on, a pass
took 2.3 to 6 ms depending on the phase.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from scipy.special import sici

REFERENCE_S = 0.004
_REPS = 30
# One pass runs every SAMPLE_INTERVAL_S (about 4% of the run); a trial uses
# the passes taken while it ran and within WINDOW_S on either side.
SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)) + 5.0 * np.eye(3)
_B = _rng.standard_normal(3) + 0j
_P = _rng.uniform(0.0, 1.0, (3, 2))
_ANGLES = _rng.uniform(-1.0, 1.0, (3, 15))
_GAINS = _rng.standard_normal((3, 15)) + 0j


def reference_pass() -> float:
    """Run the fixed reference mix once; returns its wall time in seconds."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(_REPS):
        d = np.hypot(_P[:, 0] - 0.1, _P[:, 1] - 0.2)
        si, ci = sici(d + 0.5)
        Z = np.full((3, 3), 1.0 + 1.0j)
        iu, ju = np.triu_indices(3, k=1)
        Z[iu, ju] = si[:3] + 1j * ci[:3]
        Z = Z + np.diag(np.full(3, 0.5j))
        cond = np.linalg.cond(_A)
        y = np.linalg.solve(_A, _B)
        proj = np.cos(_ANGLES)[..., None] * _P[:, 0] + np.sin(_ANGLES)[..., None] * _P[:, 1]
        h = np.einsum("kl,kln->kn", _GAINS, np.exp(-1j * proj))
        w = np.concatenate([[1.0 + 0.0j], -y])[:3]
        acc += float(np.real(w.conj() @ np.real(Z) @ w)) + cond + abs(h[0, 0])
        acc += float(np.log2(1.0 + abs(y[0])))
    if not np.isfinite(acc):
        raise FloatingPointError("reference pass produced a non-finite value")
    return perf_counter() - t0


class Pacer:
    """Samples the pace on a timer while trials run.

    Inside ``with Pacer() as pacer:`` an interval timer interrupts the
    process every ``SAMPLE_INTERVAL_S`` and runs one reference pass, stamped
    with ``pacer.clock()``.  ``clock()`` is a monotonic clock that excludes
    the time spent in those passes, so trials timed with it do not pay for
    the sampling.  A trial is normalised by the mean pace of the samples
    taken while it ran, widened by ``WINDOW_S`` on each side so short trials
    have neighbours to use."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stolen = 0.0
        self._previous = None
        self._busy = False

    def clock(self) -> float:
        return perf_counter() - self._stolen

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a pass slower than the interval: skip the tick
            return
        self._busy = True
        t0 = perf_counter()
        stamp = t0 - self._stolen
        self.samples.append((stamp, reference_pass()))
        self._stolen += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Pacer":
        reference_pass()  # the first pass pays NumPy's first-call costs
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def normalised(self, t0: float, t1: float) -> float:
        """Trial time ``t1 - t0`` (``clock()`` readings) at the reference
        speed."""
        lo, hi = t0 - WINDOW_S, t1 + WINDOW_S
        paces = [p for stamp, p in self.samples if lo <= stamp <= hi]
        if not paces:
            paces = [min(self.samples, key=lambda sample: abs(sample[0] - t1))[1]]
        return (t1 - t0) * REFERENCE_S / (sum(paces) / len(paces))
