"""fcarray benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sca-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``src/`` is put first on the import
path, nothing is installed.  Workloads are defined in ``workloads.py`` and
declared, with their metrics, in ``BENCHMARK.json``.

Load model: closed loop with one caller.  Each trial starts when the previous
one ends, in one process with BLAS pinned to one thread and no worker pool,
so no work ever waits on a queue or on another worker: time waited is zero at
every layer by construction and is not reported.

``--trace 0`` measures the end-to-end metrics.  Trials run back to back until
``--seconds`` have passed (at least ``MIN_TRIALS``); the inputs of each trial
are drawn from the seed before its timer starts, and its outputs are checked
after the timer stops.  Times are normalised to machine speed with the
reference passes ``pace.py`` samples ten times a second while trials run;
the raw figures are printed as ``info raw.*`` lines.  Set-up time (import, workload build and an
untimed warm-up trial) is the median over three fresh set-ups, this process
and two set-up-only child processes, scaled by the run's median pass.

End-to-end metrics (declared in BENCHMARK.json): ``setup_s``,
``steps_per_s`` (see ``steps_per_s``) and ``peak_rss_mb``.  A declared metric
must read on every workload, never be 0 and vary between seeds by well under
its bound, so ``trials_per_s``, ``trial_ms_p50``, the tail percentile,
``failed_frac`` and the quality figures (mean sum rate, mean NMSE) are
printed as ``info`` lines and kept in the record.  Failed trials are counted
in the result's ``failed`` field.

``--trace 1`` measures the per-layer metrics.  The first few trials of the
seed run in rounds: once untraced, then again with the layer wrappers of
``spans.py`` installed, until ``--seconds`` have passed.  Per-layer metrics
are per traced trial, with times normalised as above; the tracing overhead is
the traced over the untraced trial rate on the same trials.  Exact counts
must repeat in every round.

Human-readable report lines go to stdout first; the last stdout line is the
JSON result.  A fuller record, with the machine, goes to ``.bench_out/``.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")

MIN_TRIALS = 2
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150
# Trials traced per round in --trace 1, chosen so one round (untraced and
# traced pass) fits well inside a run.
TRACE_TRIALS = {"sca-small": 6, "sca-large": 2, "estimation": 40, "exhaustive": 3}

E2E_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "fcarray" / "__init__.py").is_file():
        _fail(f"no fcarray sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fcarray

    if Path(fcarray.__file__).resolve().parent != (SRC / "fcarray").resolve():
        _fail(f"imported fcarray from {fcarray.__file__}, not from {SRC}")
    return fcarray


# ---------------------------------------------------------------------------
# machine record


def _blas() -> dict:
    import numpy as np

    info = {"library": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def _code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fcarray").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def machine(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        **_code_identity(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def set_up(name: str, seed: int):
    """Import-time work is already done; build the workload and run the
    untimed warm-up trial.  Returns the workload."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.trial(workload.warmup_inputs())
    return workload


def probe_setups(args) -> list[float]:
    """Set-up time of fresh child processes (same workload and seed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Tally:
    """Trial outcomes: times, failures and the figures checks return."""

    def __init__(self, clock):
        self.clock = clock
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.figures: list[dict] = []

    def run(self, workload, i: int, inp: dict, trial_errors,
            tracer=None) -> tuple[float, float, dict | None]:
        """Time one trial and check it; returns its start and end on
        ``clock`` and the figures of its checks (None when it failed)."""
        self.attempted += 1
        t0 = self.clock()
        try:
            if tracer is None:
                out = workload.trial(inp)
            else:
                with tracer.span():
                    out = workload.trial(inp)
        except trial_errors as exc:
            t1 = self.clock()
            self.failed += 1
            self.check_failures.append(f"trial {i}: {type(exc).__name__}: {exc}")
            return t0, t1, None
        t1 = self.clock()
        failures, figures = workload.check(inp, out)
        if failures:
            self.failed += 1
            self.check_failures += [f"trial {i}: {f}" for f in failures]
            return t0, t1, None
        self.times.append(t1 - t0)
        self.figures.append(figures)
        return t0, t1, figures


def tail(times_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten trials beyond it: (p, value)."""
    n = len(times_ms)
    if n <= 10:
        return None
    ordered = sorted(times_ms)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def steps_per_s(name: str, times: list[float], figures: list[dict]) -> float:
    """Steps completed per second of trial time.

    A step is one trial on ``estimation`` and ``exhaustive``.  On the SCA
    workloads it is one SCA iteration: how many iterations a trial needs
    depends on its channel draw (12 to 200 at the acceptance-6 shape), so
    trials per second would measure the seed's instance mix more than the
    code.  The time per iteration is taken per (N, A) shape and averaged over
    the shapes, so the share of slower N=3 iterations does not depend on the
    seed either.  Iteration counts are reported exactly by the traced run."""
    if not name.startswith("sca"):
        return len(times) / sum(times)
    per_shape: dict[int, list[float]] = {}
    for t, fig in zip(times, figures):
        acc = per_shape.setdefault(fig["shape"], [0.0, 0])
        acc[0] += t
        acc[1] += fig["iterations"]
    step_s = statistics.fmean(t / n for t, n in per_shape.values())
    return 1.0 / step_s


def quality(name: str, figures: list[dict]) -> dict[str, tuple[float, str]]:
    """The named output-quality figures of the workload: mean final sum rate
    on the SCA workloads, mean NMSE in dB of each estimator otherwise."""
    import numpy as np

    def mean(key):
        return float(np.mean([f[key] for f in figures]))

    if name.startswith("sca"):
        return {"mean_rate_bps_hz": (mean("final_rate"), "bit/s/Hz"),
                "mean_fixed_coupler_rate_bps_hz": (mean("initial_rate"), "bit/s/Hz"),
                "mean_iterations": (mean("iterations"), "count")}
    keys = {"estimation": [("centralized", "nmse_cen"), ("distributed", "nmse_dist")],
            "exhaustive": [("exhaustive", "nmse")]}[name]
    return {f"mean_nmse_db.{scheme}": (float(10.0 * np.log10(mean(key))), "dB")
            for scheme, key in keys}


def run_untraced(args, workload, setup_own: float, trial_errors):
    from pace import REFERENCE_S, Pacer

    i = 0
    start = time.perf_counter()
    with Pacer() as pacer:
        tally = Tally(pacer.clock)
        spans = []
        while time.perf_counter() - start < args.seconds or tally.attempted < MIN_TRIALS:
            inp = workload.inputs(i)
            t0, t1, figures = tally.run(workload, i, inp, trial_errors)
            if figures is not None:
                spans.append((t0, t1))
            i += 1
    window = time.perf_counter() - start
    norm = [pacer.normalised(t0, t1) for t0, t1 in spans]
    paces = [p for _, p in pacer.samples]
    setups = [setup_own] + probe_setups(args)

    metrics = dict.fromkeys(E2E_UNITS)
    # A set-up is too short to bracket with reference passes; it is scaled by
    # the median pass of the run, which is measured within seconds of it.
    raw_setup = statistics.median(setups)
    metrics["setup_s"] = raw_setup * REFERENCE_S / statistics.median(paces)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = []
    named = {}
    tail_at = None
    if tally.times:
        metrics["steps_per_s"] = steps_per_s(args.workload, norm, tally.figures)
        named = quality(args.workload, tally.figures)
        raw_ms = [1e3 * x for x in tally.times]
        norm_ms = [1e3 * x for x in norm]
        tail_at = tail(norm_ms)
        named["raw.steps_per_s"] = (steps_per_s(args.workload, tally.times, tally.figures),
                                    "1/s")
        named["raw.setup_s"] = (raw_setup, "s")
        named["trials_per_s"] = (len(norm) / sum(norm), "1/s")
        named["raw.trials_per_s"] = (len(raw_ms) / sum(tally.times), "1/s")
        named["trial_ms_p50"] = (statistics.median(norm_ms), "ms")
        named["raw.trial_ms_p50"] = (statistics.median(raw_ms), "ms")
        lines.append("info trial_ms_tail " + (
            f"{tail_at[1]!r} ms at p{tail_at[0]:.1f} of {len(norm_ms)} trials" if tail_at else
            f"n/a: {len(norm_ms)} trials leave fewer than 10 beyond any percentile"))
    named["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    lines = [f"metric {k} {v!r} {E2E_UNITS[k]}" for k, v in metrics.items()] + lines
    lines += [f"info {key} {value!r} {unit}" for key, (value, unit) in named.items()]
    lines.append(f"info trials {len(tally.times)} completed of {tally.attempted} "
                 f"attempted in a {window:.2f} s window; {len(paces)} reference "
                 f"passes, {min(paces) * 1e3:.2f} to {max(paces) * 1e3:.2f} ms; "
                 f"raw set-ups (s) {setups}")
    record = {"trials": [{"s": r, "s_normalised": n, **fig}
                         for r, n, fig in zip(tally.times, norm, tally.figures)],
              "reference_passes_s": paces,
              "setups_s": setups,
              "trial_ms_tail": tail_at, "report_only": named}
    return tally, metrics, lines, record


def run_traced(args, workload, trial_errors):
    from pace import Pacer
    from spans import Tracer, per_layer_units

    q = TRACE_TRIALS[args.workload]
    inputs = [workload.inputs(i) for i in range(q)]
    untraced = []
    traced = []
    pass_counts = []
    start = time.perf_counter()
    with Pacer() as pacer:
        tally = Tally(pacer.clock)
        tracer = Tracer(pacer.clock)
        while True:
            t_round = time.perf_counter()
            for i, inp in enumerate(inputs):
                t0, t1, _ = tally.run(workload, i, inp, trial_errors)
                untraced.append((t0, t1))
            before = tracer.snapshot_counts()
            with tracer.installed():
                for i, inp in enumerate(inputs):
                    tracer.trial = len(traced)
                    t0, t1, figures = tally.run(workload, i, inp, trial_errors, tracer)
                    traced.append((t0, t1))
                    for key in ("support_hits", "support_selections"):
                        tracer.counters[f"chanest.{key}"] += (figures or {}).get(key, 0)
            after = tracer.snapshot_counts()
            pass_counts.append({k: after[k] - before.get(k, 0) for k in after})
            now = time.perf_counter()
            if now - start + (now - t_round) > args.seconds:
                break

    rounds = len(pass_counts)
    repeat = all(counts == pass_counts[0] for counts in pass_counts)
    if not repeat:
        tally.check_failures.append("exact counts differ between traced rounds")
    traced_norm = [pacer.normalised(t0, t1) for t0, t1 in traced]
    scale = {k: norm / (t1 - t0) for k, (norm, (t0, t1)) in enumerate(zip(traced_norm, traced))}
    overhead = sum(pacer.normalised(t0, t1) for t0, t1 in untraced) / sum(traced_norm)
    metrics = tracer.per_layer(scale, overhead)
    units = per_layer_units()
    lines = [f"metric {k} {v!r} {units[k]}" for k, v in metrics.items()]
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    trial_ms = metrics["bench.trial_ms"]
    lines.append(f"info {rounds} rounds of {q} trials, untraced then traced; times "
                 "normalised to machine speed like the end-to-end run")
    lines.append(f"info sum of layer self times {self_ms:.6f} ms per trial; "
                 f"traced trial wall time {trial_ms:.6f} ms; bench.self_ms share "
                 f"{metrics['bench.self_ms'] / trial_ms:.4f}")
    lines.append("info exact counts " + (f"identical in all {rounds} rounds" if repeat
                                         else "DIFFER between rounds"))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"
    tracer.write(spans_path)
    lines.append(f"info {len(tracer.spans)} spans written to {spans_path}")
    record = {"exact_counts_per_round": pass_counts[0], "rounds": rounds,
              "counts_repeat": repeat}
    return tally, metrics, lines, record


def main(argv=None) -> int:
    from workloads import TRIAL_ERRORS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    workload = set_up(args.workload, args.seed)
    setup_own = time.perf_counter() - SCRIPT_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    info = machine(args.seed)
    if args.trace:
        tally, metrics, lines, record = run_traced(args, workload, TRIAL_ERRORS)
    else:
        tally, metrics, lines, record = run_untraced(args, workload, setup_own, TRIAL_ERRORS)

    correct = not tally.check_failures and all(v is not None for v in metrics.values())
    print(f"# fcarray benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    print("# load: closed loop, 1 caller, 1 process, BLAS threads pinned to 1; "
          "time waited is 0 at every layer by construction")
    for line in lines:
        print(line)
    for failure in tally.check_failures[:20]:
        print(f"FAILED {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": info, "metrics": metrics,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "check_failures": tally.check_failures, **record}, fh, indent=1)

    if args.trace:
        from spans import per_layer_units

        units = per_layer_units()
    else:
        units = E2E_UNITS
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
