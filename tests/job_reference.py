"""Frozen copy of the per-axis job functions that ``sweeps._job`` replaced:
each axis mapped its point to metric parameters in its own branch, and the
metrics took the layout, ``P_max``, ``V``, ``tau`` and SNR as overrides.
The tests compare ``_job``'s rows against these, value and type."""

import numpy as np

from fcarray import chanest
from fcarray.channel import sample_channels
from fcarray.errors import ConfigError
from fcarray.geometry import ArrayLayout, random_feasible_placement, uniform_placement
from fcarray.optimizer import optimize
from fcarray.precoding import active_only_state, fc_state, fully_active_state
from fcarray.scenario import Scenario
from fcarray.sweeps import _streams, initial_placement, sca_config_from


def rate_metric(scheme, seed, scenario, layout, P_max, sigma2):
    K = scenario.doc["channel"]["K"]
    L = scenario.doc["channel"]["L"]
    ch_seed, _, _, _ = _streams(seed)
    spec = sample_channels(ch_seed, K, L, layout)
    model = scenario.model(layout)
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


def layout_of(scenario, **overrides):
    lay = dict(scenario.doc["layout"])
    lay.update(overrides)
    return ArrayLayout(M=lay["M"], N=lay["N"], d_y=lay["d_y"],
                       region_side=lay["A"], d_min=lay["d_min"], f_c=lay["f_c"])


def sigma2_rate(scenario, K, P_max):
    snr = 10.0 ** (scenario.doc["power"]["snr_db"] / 10.0)
    return P_max / (K * snr)


def rate_job(args):
    scenario_doc, axis, value, scheme, seed = args
    scenario = Scenario(scenario_doc)
    K = scenario.doc["channel"]["K"]
    P_ref = scenario.P_max
    sigma2 = sigma2_rate(scenario, K, P_ref)
    layout = layout_of(scenario)
    P_max = P_ref
    variant = ""
    if axis == "power":
        P_max = 10.0 ** ((value - 30.0) / 10.0)
    elif axis == "users":
        scenario.doc["channel"]["K"] = int(value)
        sigma2 = sigma2_rate(scenario, K, P_ref)  # noise fixed at the reference K
    elif axis == "region":
        n_value, a_value = value
        layout = layout_of(scenario, N=int(n_value), A=float(a_value))
        variant = f"N={int(n_value)}"
        value = a_value
    rate = rate_metric(scheme, seed, scenario, layout, P_max, sigma2)
    return {
        "seed": seed, "axis": axis, "value": value, "scheme": scheme,
        "variant": variant, "metric": "sum_rate_bps_hz", "metric_value": rate,
    }


def estimation_metrics(scheme, seed, scenario, snr_db, V=None, tau=None):
    est = scenario.doc["estimation"]
    V = est["V"] if V is None else V
    tau = est["tau"] if tau is None else tau
    K = scenario.doc["channel"]["K"]
    L = est["L"]
    layout = layout_of(scenario)
    model = scenario.model(layout)
    grid = chanest.AngularGrid(est["G"])
    sigma2 = Scenario.sigma2_estimation(snr_db)
    ch_seed, sess_seed, eval_seed, _ = _streams(seed)
    spec = sample_channels(ch_seed, K, L, layout)
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


def estimation_job(args):
    scenario_doc, axis, value, scheme, seed = args
    scenario = Scenario(scenario_doc)
    est = scenario.doc["estimation"]
    if axis == "snr":
        return estimation_metrics(scheme, seed, scenario, snr_db=value)
    if axis == "pilot":
        return estimation_metrics(scheme, seed, scenario,
                                  snr_db=est["snr_db"], tau=int(value))
    raise ConfigError(f"unknown estimation axis {axis!r}", field="sweep")


def job(args):
    """The worker the CLI ran for a job: the rate job on a rate axis, the
    estimation job otherwise."""
    return rate_job(args) if args[1] in {"power", "users", "region"} else estimation_job(args)
