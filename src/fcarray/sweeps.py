"""Monte-Carlo experiment engines behind the CLI: per-seed metric
computations, sweep orchestration with a worker pool, CSV/manifest emission,
and the coupler-region gain heatmap.

Every row of every CSV is reproducible in isolation: the channel draw, the
pilot session, and the evaluation placements are derived from the row's seed
through independent named substreams, never from loop state.
"""

from __future__ import annotations

import csv
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import chanest
from .channel import active_channel_matrix, coupler_channel_block, sample_channels
from .errors import ConfigError
from .geometry import (
    ArrayLayout,
    CouplerPlacement,
    random_feasible_placement,
    save_placement,
    single_coupler_moves,
    uniform_placement,
)
from .optimizer import (
    SCAConfig,
    optimize,
    screened_initial_placement,
)
from .precoding import (
    active_only_state,
    antenna_chain,
    fc_state,
    fully_active_state,
)
from .runtime import export_message_log, run_algorithm1, run_algorithm3
from .scenario import ESTIMATION_SCHEMES, INT_FIELDS, Scenario, with_field, write_manifest


def _streams(seed: int, n: int = 4) -> list[int]:
    """Independent substream seeds derived from one row seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _draw(scenario: Scenario, seed: int, L: int):
    """The layout, its model and the ``channel.K``-user, ``L``-path channel
    that row seed ``seed`` draws from its first substream."""
    layout = scenario.layout()
    spec = sample_channels(_streams(seed)[0], scenario.doc["channel"]["K"], L, layout)
    return layout, scenario.model(layout), spec


def sca_config_from(scenario: Scenario) -> SCAConfig:
    sca = scenario.doc["sca"]
    return SCAConfig(
        eps_stop=sca["eps_stop"],
        T_max=sca["T_max"],
        alpha_schedule=sca["alpha_schedule"],
    )


def initial_placement(scenario: Scenario, layout: ArrayLayout, spec, model,
                      P_max: float, sigma2: float) -> CouplerPlacement:
    """The SCA start named by ``sca.init``: the uniform placement, or the
    screened one with ``sca.screen_points`` lattice points per axis."""
    sca = scenario.doc["sca"]
    if sca["init"] == "screened":
        return screened_initial_placement(layout, spec, model, P_max, sigma2,
                                          points_per_axis=sca["screen_points"])
    return uniform_placement(layout)


# ---------------------------------------------------------------------------
# rate metrics


def rate_metric(scheme: str, seed: int, scenario: Scenario, sigma2: float) -> float:
    """Sum rate of one scheme on one seeded channel draw, at the scenario's
    layout, ``P_max`` and ``K``."""
    P_max = scenario.P_max
    layout, model, spec = _draw(scenario, seed, scenario.doc["channel"]["L"])
    if scheme == "active-only":
        return active_only_state(spec, layout, model, P_max, sigma2).sum_rate
    if scheme == "fixed-coupler":
        return fc_state(spec, uniform_placement(layout), layout, model,
                        P_max, sigma2).sum_rate
    if scheme == "fully-active":
        return fully_active_state(spec, layout, model, P_max, sigma2).sum_rate
    if scheme == "fc-optimized":
        cfg = sca_config_from(scenario)
        initial = initial_placement(scenario, layout, spec, model, P_max, sigma2)
        result = optimize(initial, cfg, spec, layout, model, P_max, sigma2)
        return result.trace.rates[-1]
    raise ConfigError(f"unknown rate scheme {scheme!r}", field="schemes")


# ---------------------------------------------------------------------------
# estimation metrics


def estimation_metrics(scheme: str, seed: int, scenario: Scenario) -> dict:
    """NMSE, support hit rate, and communication scalars for one trial at
    the scenario's ``K``, ``V``, ``tau`` and SNR."""
    est = scenario.doc["estimation"]
    V, tau, snr_db = est["V"], est["tau"], est["snr_db"]
    K = scenario.doc["channel"]["K"]
    L = est["L"]
    layout, model, spec = _draw(scenario, seed, L)
    grid = chanest.AngularGrid(est["G"])
    sigma2 = Scenario.sigma2_estimation(snr_db)
    _, sess_seed, eval_seed, _ = _streams(seed)
    session = chanest.make_session(layout, K, tau, V, sigma2, sess_seed)
    observations = chanest.run_pilot_phase(session, spec, layout, model)

    if scheme == "centralized":
        result = chanest.centralized_estimate(session, observations, L, grid,
                                              layout, model)
        comm = result.ledger["pilot_uplink_scalars"]
    elif scheme == "distributed":
        result = chanest.distributed_estimate(session, observations, L, grid,
                                              layout, model, eta=est["eta"])
        lg = result.ledger
        comm = (lg["proxy_scalars"] + lg["support_scalars"]
                + lg["suffstat_scalars"] + lg["gain_scalars"])
    elif scheme == "exhaustive":
        result = chanest.exhaustive_baseline(session, spec, layout, model,
                                             D=est["D"])
        lg = result.ledger
        comm = 2 * K * (lg["candidate_measurements_per_user_per_block"]
                        + lg["baseline_measurements_per_user_per_block"])
    else:
        raise ConfigError(f"unknown estimation scheme {scheme!r}",
                          field="estimation.schemes")

    rng = np.random.default_rng(eval_seed)
    placements = [random_feasible_placement(layout, rng)
                  for _ in range(est["test_placements"])]
    value = chanest.nmse(result, spec, placements, layout, model)
    hit = (chanest.support_hit_rate(result, spec, grid)
           if isinstance(result, chanest.EstimationResult) else float("nan"))
    return {
        "seed": seed, "snr_db": snr_db, "V": V, "tau": tau, "scheme": scheme,
        "nmse": value, "support_hit_rate": hit, "comm_scalars": comm,
    }


# ---------------------------------------------------------------------------
# sweep orchestration


_RATE_FIELDS = ["seed", "axis", "value", "scheme", "variant", "metric", "metric_value"]
_EST_FIELDS = ["seed", "snr_db", "V", "tau", "scheme", "nmse",
               "support_hit_rate", "comm_scalars"]

# axis -> (each sweep list crossed into the points -> the config field it
# sets, the schemes run at a point, the CSV columns of its rows)
_RATE = (lambda doc: doc["schemes"], _RATE_FIELDS)
_EST = (lambda doc: doc["estimation"]["schemes"], _EST_FIELDS)
SWEEP_AXES = {
    "power": ({"power_dbm": "power.P_max_dbm"}, *_RATE),
    "users": ({"users": "channel.K"}, *_RATE),
    "region": ({"region_n": "layout.N", "region": "layout.A"}, lambda doc: ["fc-optimized"],
               _RATE_FIELDS),
    "snr": ({"snr_db": "estimation.snr_db"}, *_EST),
    "pilot": ({"pilot": "estimation.tau"}, *_EST),
}


def _job(args) -> dict:
    """One CSV row: the scheme's metric once the point's config fields are
    written into the validated scenario; rate rows keep the unswept noise."""
    doc, axis, point, scheme, seed = args
    scenario = Scenario(doc)
    sigma2 = scenario.sigma2_rate(scenario.doc["channel"]["K"])
    paths = list(SWEEP_AXES[axis][0].values())
    values = point if isinstance(point, tuple) else (point,)
    for path, value in zip(paths, values):
        scenario.doc = with_field(scenario.doc, path, value)
    if scheme in ESTIMATION_SCHEMES:
        return estimation_metrics(scheme, seed, scenario)
    # the last field is the row's value; the ones before it name its variant
    variant = ",".join(f"{path.split('.')[1]}={value}"
                       for path, value in zip(paths, values[:-1]))
    return {"seed": seed, "axis": axis, "value": values[-1], "scheme": scheme,
            "variant": variant, "metric": "sum_rate_bps_hz",
            "metric_value": rate_metric(scheme, seed, scenario, sigma2)}


def _point_error(doc: dict, path: str, value) -> str | None:
    """Why the job of a point setting config field ``path`` to ``value`` would
    fail, or None: ``INT_FIELDS``, 0 < d_min < A, tau >= K (rate rows take any K)."""
    if path in INT_FIELDS and not (int(value) == value and value >= INT_FIELDS[path]):
        return f"must be an integer >= {INT_FIELDS[path]}, got {value!r}"
    if path == "layout.A" and not value > doc["layout"]["d_min"]:
        return f"must exceed layout.d_min = {doc['layout']['d_min']!r}, got {value!r}"
    if path == "estimation.tau" and not value >= doc["channel"]["K"]:
        return f"must be >= channel.K = {doc['channel']['K']!r}, got {value!r}"
    return None


def sweep_jobs(scenario: Scenario, axis: str) -> list[tuple]:
    """Jobs (doc, axis, point, scheme, seed) of one sweep, point-major, then
    scheme, then seed.  A point holds one value per swept field, typed as
    that field (a single value when the axis sweeps one field); a point its
    job would reject raises a ConfigError naming ``sweep.<list>[i]``."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}",
                          field="sweep")
    doc, seeds = scenario.doc, scenario.seeds()
    fields, schemes, _ = SWEEP_AXES[axis]
    for key, path in fields.items():
        for i, value in enumerate(doc["sweep"][key]):
            error = _point_error(doc, path, value)
            if error:
                raise ConfigError(error, field=f"sweep.{key}[{i}]")
    lists = [[int(v) if path in INT_FIELDS else float(v) for v in doc["sweep"][key]]
             for key, path in fields.items()]
    points = [p if len(p) > 1 else p[0] for p in itertools.product(*lists)]
    return [(doc, axis, point, scheme, seed)
            for point in points for scheme in schemes(doc) for seed in seeds]


def run_sweep(scenario: Scenario, axis: str, out_dir, workers: int = 1) -> list[dict]:
    """Run one sweep and write sweep_<axis>.csv plus manifest.json in out_dir."""
    return _run_jobs(scenario, f"sweep {axis}", sweep_jobs(scenario, axis), SWEEP_AXES[axis][2],
                     out_dir, workers, {"workers": workers, "csv": f"sweep_{axis}.csv"})


def run_estimate(scenario: Scenario, out_dir, workers: int = 1) -> list[dict]:
    """Estimation run at the scenario's own SNR/V/tau for every scheme/seed."""
    est = scenario.doc["estimation"]
    jobs = [(scenario.doc, "snr", float(est["snr_db"]), scheme, seed)
            for scheme in est["schemes"] for seed in scenario.seeds()]
    return _run_jobs(scenario, "estimate", jobs, _EST_FIELDS, out_dir, workers)


def _run_jobs(scenario: Scenario, command: str, jobs, fields, out_dir, workers: int,
              extra: dict | None = None) -> list[dict]:
    """The rows of ``jobs``, from a pool of ``workers`` processes when there is more
    than one, written to <command>.csv (spaces as underscores) and manifest.json."""
    if workers <= 1:
        rows = [_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_job, jobs, chunksize=1))
    os.makedirs(out_dir, exist_ok=True)
    _write_rows(os.path.join(out_dir, command.replace(" ", "_") + ".csv"), fields, rows)
    write_manifest(os.path.join(out_dir, "manifest.json"),
                   scenario.manifest(command, {"rows": len(rows), **(extra or {})}))
    return rows


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # a bare number, not numpy 2's np.float64(...)
    return str(value)


def _write_rows(path, fields, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(fields)
        for row in rows:
            wr.writerow([_fmt(row[f]) for f in fields])


# ---------------------------------------------------------------------------
# optimize entry (single scenario run)


def run_optimize(scenario: Scenario, seed: int, out_dir) -> dict:
    """One SCA run; writes the trace CSV, a summary JSON, and the final
    placement."""
    layout, model, spec = _draw(scenario, seed, scenario.doc["channel"]["L"])
    sigma2 = scenario.sigma2_rate(scenario.doc["channel"]["K"])
    cfg = sca_config_from(scenario)
    initial = initial_placement(scenario, layout, spec, model, scenario.P_max, sigma2)
    result = optimize(initial, cfg, spec, layout, model, scenario.P_max, sigma2)
    os.makedirs(out_dir, exist_ok=True)
    result.trace.to_csv(os.path.join(out_dir, "trace.csv"))
    result.trace.to_json(os.path.join(out_dir, "trace_summary.json"))
    save_placement(os.path.join(out_dir, "placement.json"), result.placement, layout)
    write_manifest(os.path.join(out_dir, "manifest.json"),
                   scenario.manifest("optimize", {"seed": seed,
                                                  **result.trace.summary()}))
    return result.trace.summary()


# ---------------------------------------------------------------------------
# heatmap


@dataclass
class HeatmapResult:
    xs: np.ndarray
    ys: np.ndarray
    gain_db: np.ndarray  # (res, res), NaN where infeasible
    trajectory: list[dict]


def _whitened_gains(spec, positions, m, layout, model) -> np.ndarray:
    """|g_m|^2 / b_m of the one user at coupler positions ``positions``
    (..., N, 2) of antenna m, as ``antenna_chain`` indexes it (``slice(None)``
    for all M on the last batch axis): the K=1 rate is monotone in their sum."""
    _, _, cols, b = antenna_chain(coupler_channel_block(spec, positions, layout.lam), positions,
                                  m, layout, model, active_channel_matrix(spec, layout))
    return np.abs(cols[..., 0]) ** 2 / b


def compute_heatmap(scenario: Scenario, seed: int) -> HeatmapResult:
    """Power-normalized channel gain over one antenna's coupler region
    (remaining antennas held at the uniform placement), plus the optimizer
    trajectory of that coupler."""
    doc = scenario.doc
    if doc["layout"]["N"] != 1 or doc["channel"]["K"] != 1:
        raise ConfigError("heatmap requires N=1 and K=1", field="heatmap")
    layout, model, spec = _draw(scenario, seed, doc["channel"]["L"])
    res = doc["heatmap"]["resolution"]
    a = doc["heatmap"]["antenna"]

    base = uniform_placement(layout)
    idx_other = [m for m in range(layout.M) if m != a]
    c0 = float(np.sum(_whitened_gains(spec, base.positions, slice(None), layout, model)[idx_other]))

    lo, hi = layout.region_bounds(a)
    xs = np.linspace(lo[0], hi[0], res)
    ys = np.linspace(lo[1], hi[1], res)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    ok, moved = single_coupler_moves(base.positions[a], a, [0], grid, layout)
    feasible = ok[0].reshape(res, res)

    # antenna a's single coupler at every feasible grid point, as one batch
    gain = np.full((res, res), np.nan)
    gain[feasible] = 10.0 * np.log10(c0 + _whitened_gains(spec, moved[0][ok[0]], a, layout, model))

    log = []
    result = optimize(base, sca_config_from(scenario), spec, layout, model, scenario.P_max,
                      scenario.sigma2_rate(1), log=log)
    # the start placement, then each accepted round's "positions" payloads
    moves = [vec for _, _, kind, _, vec in log if kind == "positions"]
    snaps = np.concatenate([base.positions[None],
                            np.reshape(moves, (-1,) + base.positions.shape)])
    totals = np.sum(_whitened_gains(spec, snaps, slice(None), layout, model), axis=-1)
    trajectory = [{"iteration": t, "x": float(snap[a, 0, 0]), "y": float(snap[a, 0, 1]),
                   "gain_db": 10.0 * np.log10(total), "rate": result.trace.rates[t]}
                  for t, (snap, total) in enumerate(zip(snaps, totals))]
    return HeatmapResult(xs=xs, ys=ys, gain_db=gain, trajectory=trajectory)


def run_heatmap(scenario: Scenario, seed: int, out_dir) -> HeatmapResult:
    hm = compute_heatmap(scenario, seed)
    os.makedirs(out_dir, exist_ok=True)
    _write_rows(os.path.join(out_dir, "heatmap.csv"), ["x_m", "y_m", "gain_db"],
                [{"x_m": x, "y_m": y, "gain_db": g}
                 for x, row in zip(hm.xs, hm.gain_db) for y, g in zip(hm.ys, row)])
    _write_rows(os.path.join(out_dir, "trajectory.csv"),
                ["iteration", "x", "y", "gain_db", "rate"], hm.trajectory)
    write_manifest(
        os.path.join(out_dir, "manifest.json"),
        scenario.manifest("heatmap", {
            "seed": seed,
            "note": "gain is sum_m |g_m|^2/b_m in dB; trajectory overlays the "
                    "tracked antenna's coupler while all couplers move",
        }),
    )
    return hm


# ---------------------------------------------------------------------------
# communication ledgers


def run_ledger(scenario: Scenario, seed: int, out_dir) -> dict:
    """Run both message-routed algorithms on the scenario and export their
    logs and ledgers."""
    doc = scenario.doc
    K = doc["channel"]["K"]
    layout, model, spec = _draw(scenario, seed, doc["channel"]["L"])
    sigma2 = scenario.sigma2_rate(K)
    _, sess_seed, _, _ = _streams(seed)
    cfg = sca_config_from(scenario)
    initial = initial_placement(scenario, layout, spec, model, scenario.P_max, sigma2)
    result1, log1, ledger1 = run_algorithm1(initial, cfg, spec, layout, model,
                                            scenario.P_max, sigma2)

    est = doc["estimation"]
    sigma2_est = Scenario.sigma2_estimation(est["snr_db"])
    session = chanest.make_session(layout, K, est["tau"], est["V"],
                                   sigma2_est, sess_seed)
    observations = chanest.run_pilot_phase(session, spec, layout, model)
    grid = chanest.AngularGrid(est["G"])
    result3, log3, ledger3 = run_algorithm3(session, observations, est["L"],
                                            grid, layout, model, eta=est["eta"])

    os.makedirs(out_dir, exist_ok=True)
    export_message_log(os.path.join(out_dir, "algorithm1_log.ndjson"), log1)
    export_message_log(os.path.join(out_dir, "algorithm3_log.ndjson"), log3)
    summary = {
        "algorithm1": {
            "ledger": ledger1.to_dict(),
            "final_rate": result1.trace.rates[-1],
            "rounds": result1.trace.rounds,
            "closed_form": result1.trace.comm,
        },
        "algorithm3": {
            "ledger": ledger3.to_dict(),
            "chanest_ledger": result3.ledger,
        },
    }
    write_manifest(os.path.join(out_dir, "ledger.json"), summary)
    write_manifest(os.path.join(out_dir, "manifest.json"),
                   scenario.manifest("ledger", {"seed": seed}))
    return summary
