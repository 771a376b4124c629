"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the fcarray layers from outside the
package.  A wrapper replaces a function in every fcarray module namespace
that bound the same object (``fcarray.optimizer.build_block`` is the same
object as ``fcarray.impedance.build_block``), and replaces methods on their
class.  Wrappers are installed only inside ``Tracer.installed()`` and the
original objects are put back when it exits.

Each call records one span: name, start, end, parent span, trial index and
self time (duration minus the part covered by child spans).  A span stack
gives the parent links.  Spans stay in memory and are written once, at exit,
by ``Tracer.write``.  Work counters are taken from arguments and return
values at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
import numpy as np

# (module, attribute path) of every wrapped layer function.  Each name also
# becomes the ``<name>.calls`` and ``<name>.self_ms`` per-layer metrics.
LAYERS = [
    ("impedance", "build_block"),
    ("impedance", "mutual_impedance"),
    ("channel", "active_channel_matrix"),
    ("channel", "coupler_channel_block"),
    ("precoding", "mech_weights"),
    ("precoding", "effective_column"),
    ("precoding", "power_coefficient"),
    ("precoding", "effective_channel"),
    ("precoding", "mmse_precoder"),
    ("optimizer", "optimize"),
    ("optimizer", "gradient"),
    ("optimizer", "ObjectiveEvaluator.set_placement"),
    ("optimizer", "ObjectiveEvaluator.rate_of"),
    ("optimizer", "ObjectiveEvaluator.rate_with_override"),
    ("geometry", "project_onto_set"),
    ("geometry", "linearize_spacing"),
    ("chanest", "run_pilot_phase"),
    ("chanest", "build_dictionary"),
    ("chanest", "local_dictionary"),
    ("chanest", "omp"),
    ("chanest", "local_proxy"),
    ("chanest", "aggregate_gains"),
    ("chanest", "centralized_estimate"),
    ("chanest", "distributed_estimate"),
    ("chanest", "true_effective"),
    ("chanest", "nmse"),
    ("chanest", "EstimationResult.predict"),
    ("chanest", "exhaustive_baseline"),
    ("chanest", "ExhaustiveResult.predict"),
    ("runtime", "run_algorithm3"),
]
LAYER_NAMES = [f"{mod}.{attr}" for mod, attr in LAYERS]

# Root span of one trial; its self time is trial time covered by no layer.
TRIAL_SPAN = "bench"

# Per-layer metrics derived from counters, with their units.  A ratio whose
# denominator is 0 on a workload (no optimizer run, no OMP) reads 0.
DERIVED = [
    ("impedance.mutual_impedance.distances", "count"),
    ("optimizer.rate_evals", "count"),
    ("optimizer.iterations", "count"),
    ("optimizer.backtracks", "count"),
    ("optimizer.accept_ratio", "ratio"),
    ("optimizer.iter_ms", "ms"),
    ("optimizer.probe_share", "ratio"),
    ("geometry.dykstra_sweeps", "count"),
    ("chanest.omp.selections", "count"),
    ("chanest.fallback_rounds", "count"),
    ("chanest.support_hit_rate", "ratio"),
    ("chanest.exhaustive.candidates_measured", "count"),
    ("chanest.exhaustive.feasible_ratio", "ratio"),
    ("runtime.messages", "count"),
    ("runtime.scalars", "count"),
    ("bench.self_ms", "ms"),
    ("bench.trial_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(DERIVED)
    return units


def _count_distances(tracer, args, kwargs):
    d = args[0] if args else kwargs["d"]
    tracer.counters["impedance.mutual_impedance.distances"] += int(np.size(d))


def _optimize_counts(tracer, result):
    trace = result.trace
    c = tracer.counters
    c["optimizer.iterations"] += len(trace.rates) - 1
    c["optimizer.backtracks"] += sum(trace.backtracks)
    c["optimizer.accepted_rounds"] += trace.rounds
    c["geometry.dykstra_sweeps"] += sum(trace.proj_sweeps)


def _omp_counts(tracer, result):
    support, _ = result
    tracer.counters["chanest.omp.selections"] += len(support)


def _distributed_counts(tracer, result):
    tracer.counters["chanest.fallback_rounds"] += result.ledger["fallback_rounds"]


def _exhaustive_counts(tracer, result):
    feasible = result.feasible
    tracer.counters["chanest.exhaustive.candidates_measured"] += int(feasible.sum())
    tracer.counters["chanest.exhaustive.candidates_total"] += int(feasible.size)


def _routed_counts(tracer, result):
    _, messages, ledger = result
    tracer.counters["runtime.messages"] += len(messages)
    tracer.counters["runtime.scalars"] += ledger.total()


ON_CALL = {"impedance.mutual_impedance": _count_distances}
ON_RETURN = {
    "optimizer.optimize": _optimize_counts,
    "chanest.omp": _omp_counts,
    "chanest.distributed_estimate": _distributed_counts,
    "chanest.exhaustive_baseline": _exhaustive_counts,
    "runtime.run_algorithm3": _routed_counts,
}


class Tracer:
    """Span recorder plus per-name call counts and work counters.  Spans are
    timed on ``clock``; ``trial`` labels the spans of the running trial."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.trial = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name, len(self.spans) + len(self._stack), parent, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        name, span_id, parent, start, child = frame
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        self_t = dur - child
        self.spans.append((span_id, parent, self.trial, name, start, end, self_t))
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str = TRIAL_SPAN):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        on_call = ON_CALL.get(name)
        on_return = ON_RETURN.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_return is not None:
                on_return(tracer, out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Install every layer wrapper; restore the originals on exit."""
        import fcarray

        modules = [m for n, m in sys.modules.items()
                   if n == "fcarray" or n.startswith("fcarray.")]
        restore: list[tuple[object, str, object]] = []
        try:
            for mod_name, attr in LAYERS:
                name = f"{mod_name}.{attr}"
                owner = getattr(fcarray, mod_name)
                *cls_path, leaf = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                wrapper = self.wrap(name, original)
                if cls_path:
                    restore.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    # -- reporting -----------------------------------------------------------

    def snapshot_counts(self) -> dict[str, int]:
        """Exact counts: calls per layer and every work counter."""
        out = {f"{n}.calls": self.calls.get(n, 0) for n in LAYER_NAMES}
        out.update(sorted(self.counters.items()))
        return out

    def times(self, scale: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive seconds per name, each span multiplied by the
        ``scale`` of its trial."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for _, _, trial, name, start, end, self_t in self.spans:
            f = scale[trial]
            self_s[name] += f * self_t
            incl_s[name] += f * (end - start)
        return self_s, incl_s

    def per_layer(self, scale: dict[int, float], overhead: float) -> dict[str, float]:
        """Per-trial per-layer metrics over the traced trials (the keys of
        ``scale``, which normalises each trial's times)."""
        n_trials = len(scale)
        self_s, incl_s = self.times(scale)
        c = self.counters
        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0) / n_trials
            out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0) / n_trials

        def ratio(num, den):
            return num / den if den else 0.0

        evals = sum(self.calls.get(f"optimizer.ObjectiveEvaluator.{m}", 0)
                    for m in ("set_placement", "rate_of", "rate_with_override"))
        opt_s = incl_s.get("optimizer.optimize", 0.0)
        derived = {
            "impedance.mutual_impedance.distances":
                c["impedance.mutual_impedance.distances"] / n_trials,
            "optimizer.rate_evals": evals / n_trials,
            "optimizer.iterations": c["optimizer.iterations"] / n_trials,
            "optimizer.backtracks": c["optimizer.backtracks"] / n_trials,
            # every candidate round ends in one rate_of call
            "optimizer.accept_ratio": ratio(
                c["optimizer.accepted_rounds"],
                self.calls.get("optimizer.ObjectiveEvaluator.rate_of", 0)),
            "optimizer.iter_ms": 1e3 * ratio(opt_s, c["optimizer.iterations"]),
            "optimizer.probe_share": ratio(
                incl_s.get("optimizer.gradient", 0.0), opt_s),
            "geometry.dykstra_sweeps": c["geometry.dykstra_sweeps"] / n_trials,
            "chanest.omp.selections": c["chanest.omp.selections"] / n_trials,
            "chanest.fallback_rounds": c["chanest.fallback_rounds"] / n_trials,
            "chanest.support_hit_rate": ratio(c["chanest.support_hits"],
                                              c["chanest.support_selections"]),
            "chanest.exhaustive.candidates_measured":
                c["chanest.exhaustive.candidates_measured"] / n_trials,
            "chanest.exhaustive.feasible_ratio": ratio(
                c["chanest.exhaustive.candidates_measured"],
                c["chanest.exhaustive.candidates_total"]),
            "runtime.messages": c["runtime.messages"] / n_trials,
            "runtime.scalars": c["runtime.scalars"] / n_trials,
            "bench.self_ms": 1e3 * self_s.get(TRIAL_SPAN, 0.0) / n_trials,
            "bench.trial_ms": 1e3 * incl_s.get(TRIAL_SPAN, 0.0) / n_trials,
            "bench.trace_overhead": overhead,
        }
        out.update(derived)
        return out

    def write(self, path) -> None:
        """Write all spans as gzipped JSON (one column list per field)."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = {
            "names": names,
            "columns": ["id", "parent", "trial", "name", "start_us", "end_us", "self_us"],
            "spans": [[s[0], s[1], s[2], index[s[3]],
                       round(1e6 * (s[4] - t0), 3), round(1e6 * (s[5] - t0), 3),
                       round(1e6 * s[6], 3)] for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
