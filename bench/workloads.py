"""The four benchmark workloads.

Each workload draws the inputs of trial ``i`` from ``SeedSequence([seed, i])``,
so the same seed always gives the same trials.  ``trial`` is the timed call
into fcarray; ``check`` verifies its outputs afterwards, untimed, and returns
the list of failed checks plus the figures that feed the quality metrics.

Why these four (also recorded in BENCHMARK.json):

* ``sca-small`` is the ``sweep region`` traffic (acceptance-6 shape).  Tiny
  matrices, so per-call overhead in the impedance/precoding chain dominates.
* ``sca-large`` scales the array to M=32, K=8: 4*M*N finite-difference probes
  per iteration with 8x32 MMSE solves and M Dykstra projections, where
  gradient algorithm and projection cost show.
* ``estimation`` is the acceptance-8 channel-estimation trial: chanest and
  runtime only, no optimizer and no MMSE, so it is the bypass workload for
  every SCA-side change and vice versa.
* ``exhaustive`` is M*N*D independent full-array rebuilds with no cache; a
  batched kernel shows here in bulk.  Folded into ``estimation`` it would
  drown the ~20 ms OMP/proxy path.
"""

from __future__ import annotations

import numpy as np

from fcarray import chanest, channel, geometry, impedance, optimizer, precoding, runtime
from fcarray.errors import FcError

P_MAX = 1.0
RATE_SNR_DB = 10.0
EST_SNR_DB = 0.0
TEST_PLACEMENTS = 10
# Inputs of the untimed warm-up trial come from this trial index.
WARMUP_INDEX = 2**31 - 1
# The warm-up trial runs every code path of a trial at reduced size, so
# set-up time does not scale with trial length: the SCA warm-up stops after
# this many iterations and the exhaustive warm-up uses this lattice size.
WARMUP_SCA_ITERATIONS = 2
WARMUP_LATTICE = 16


def _streams(seed: int, i: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, i]).generate_state(n)]


class ScaWorkload:
    """One trial is one ``optimize`` call to convergence from the uniform
    placement with the default ``SCAConfig``.  ``shapes`` is cycled over the
    trial index: (M, N, K, A in wavelengths)."""

    L = 15

    def __init__(self, seed: int, shapes: list[tuple[int, int, int, float]]):
        self.seed = seed
        self.shapes = shapes

    def inputs(self, i: int) -> dict:
        shape = i % len(self.shapes)
        M, N, K, A = self.shapes[shape]
        layout = geometry.ArrayLayout(M=M, N=N, region_side=A)
        (ch_seed,) = _streams(self.seed, i, 1)
        return {
            "layout": layout,
            "model": impedance.DipoleModel.for_layout(layout),
            "spec": channel.sample_channels(ch_seed, K=K, L=self.L, layout=layout),
            "initial": geometry.uniform_placement(layout),
            "sigma2": P_MAX / (K * 10.0 ** (RATE_SNR_DB / 10.0)),
            "config": optimizer.SCAConfig(),
            "shape": shape,
        }

    def warmup_inputs(self) -> dict:
        inp = self.inputs(WARMUP_INDEX)
        inp["config"] = optimizer.SCAConfig(T_max=WARMUP_SCA_ITERATIONS)
        return inp

    @staticmethod
    def trial(inp: dict):
        return optimizer.optimize(inp["initial"], inp["config"], inp["spec"],
                                  inp["layout"], inp["model"], P_MAX, inp["sigma2"])

    @staticmethod
    def check(inp: dict, res) -> tuple[list[str], dict]:
        failures = []
        rates = np.asarray(res.trace.rates)
        if np.any(np.diff(rates) < 0.0):
            failures.append("trace.rates not monotone")
        if not geometry.is_feasible(res.placement, inp["layout"]):
            failures.append("final placement infeasible")
        power = precoding.transmit_power(res.state.U, res.state.B)
        if abs(power - P_MAX) > 1e-9 * P_MAX:
            failures.append(f"transmit power {power!r} != P_max")
        if rates[-1] < rates[0]:
            failures.append("final rate below the fixed-coupler rate")
        return failures, {"initial_rate": float(rates[0]), "final_rate": float(rates[-1]),
                          "shape": inp["shape"], "iterations": len(rates) - 1}


class _PilotWorkload:
    """Inputs shared by the estimation workloads: a channel draw, a pilot
    session (pilots and V training placements) and the test placements."""

    M: int
    N: int
    K, L, V, TAU = 2, 3, 4, 13

    def __init__(self, seed: int):
        self.seed = seed
        self.layout = geometry.ArrayLayout(M=self.M, N=self.N)
        self.model = impedance.DipoleModel.for_layout(self.layout)
        self.sigma2 = 10.0 ** (-EST_SNR_DB / 10.0)

    def inputs(self, i: int) -> dict:
        ch_seed, sess_seed, eval_seed = _streams(self.seed, i, 3)
        spec = channel.sample_channels(ch_seed, self.K, self.L, self.layout)
        session = chanest.make_session(self.layout, self.K, self.TAU, self.V,
                                       self.sigma2, sess_seed)
        rng = np.random.default_rng(eval_seed)
        tests = [geometry.random_feasible_placement(self.layout, rng)
                 for _ in range(TEST_PLACEMENTS)]
        return {"spec": spec, "session": session, "tests": tests}

    def warmup_inputs(self) -> dict:
        return self.inputs(WARMUP_INDEX)


class EstimationWorkload(_PilotWorkload):
    """One trial: pilot phase, centralized and distributed estimates, the
    routed Algorithm 3 on the same inputs, and NMSE of both estimates."""

    M, N, G = 8, 2, 256

    def __init__(self, seed: int):
        super().__init__(seed)
        self.grid = chanest.AngularGrid(self.G)

    def trial(self, inp: dict) -> dict:
        lay, model, grid, L = self.layout, self.model, self.grid, self.L
        session, spec = inp["session"], inp["spec"]
        obs = chanest.run_pilot_phase(session, spec, lay, model)
        cen = chanest.centralized_estimate(session, obs, L, grid, lay, model)
        dist = chanest.distributed_estimate(session, obs, L, grid, lay, model)
        routed = runtime.run_algorithm3(session, obs, L, grid, lay, model)
        return {
            "cen": cen, "dist": dist, "routed": routed,
            "nmse_cen": chanest.nmse(cen, spec, inp["tests"], lay, model),
            "nmse_dist": chanest.nmse(dist, spec, inp["tests"], lay, model),
        }

    def check(self, inp: dict, out: dict) -> tuple[list[str], dict]:
        failures = []
        dist = out["dist"]
        routed, _, ledger = out["routed"]
        if not (np.array_equal(routed.supports, dist.supports)
                and np.array_equal(routed.gains, dist.gains)):
            failures.append("routed supports/gains differ from distributed_estimate")
        if routed.ledger != dist.ledger:
            failures.append("routed ledger differs from the chanest ledger")
        lg = dist.ledger
        wire = {
            "proxy_scalars": ledger.total(runtime.LPU_TO_CPU, "proxy_list"),
            "support_scalars": ledger.total(runtime.CPU_TO_LPU, "support"),
            "suffstat_scalars": ledger.total(runtime.LPU_TO_CPU, "suff_stats"),
            "gain_scalars": ledger.total(runtime.CPU_TO_LPU, "gains"),
        }
        if any(wire[k] != lg[k] for k in wire) or (
                ledger.total(runtime.CPU_TO_LPU, "proxy_request")
                != self.M * lg["fallback_rounds"]):
            failures.append("message log does not replay to the chanest ledger")
        if not (np.isfinite(out["nmse_cen"]) and np.isfinite(out["nmse_dist"])):
            failures.append("NMSE not finite")
        # useful selections: selected bins that are a true path's nearest bin
        hits = selections = 0
        for res in (out["cen"], dist):
            for k in range(self.K):
                true_bins = set(self.grid.nearest_index(inp["spec"].angles[k]).tolist())
                hits += len(true_bins & set(res.supports[k].tolist()))
                selections += res.supports.shape[1]
        return failures, {"nmse_cen": out["nmse_cen"], "nmse_dist": out["nmse_dist"],
                          "support_hits": hits, "support_selections": selections}


class ExhaustiveWorkload(_PilotWorkload):
    """One trial: ``exhaustive_baseline`` on the default layout (D=400 is a
    perfect square, so the lattice has exactly D points) and its NMSE."""

    M, N = 4, 2
    D = 400

    def warmup_inputs(self) -> dict:
        return {**self.inputs(WARMUP_INDEX), "D": WARMUP_LATTICE}

    def trial(self, inp: dict) -> dict:
        res = chanest.exhaustive_baseline(inp["session"], inp["spec"], self.layout,
                                          self.model, D=inp.get("D", self.D))
        return {"res": res,
                "nmse": chanest.nmse(res, inp["spec"], inp["tests"], self.layout,
                                     self.model)}

    def check(self, inp: dict, out: dict) -> tuple[list[str], dict]:
        failures = []
        measured = out["res"].ledger["candidate_measurements_per_user_per_block"]
        if measured != self.M * self.N * self.D:
            failures.append(f"ledger reports {measured} candidates, "
                            f"expected M*N*D = {self.M * self.N * self.D}")
        if not np.isfinite(out["nmse"]):
            failures.append("NMSE not finite")
        return failures, {"nmse": out["nmse"]}


# N cycles over {2, 3} and A over {0.5, 1, 2} wavelengths: period 6.
SCA_SMALL_SHAPES = [(4, (2, 3)[i % 2], 3, (0.5, 1.0, 2.0)[i % 3]) for i in range(6)]

WORKLOADS = {
    "sca-small": lambda seed: ScaWorkload(seed, SCA_SMALL_SHAPES),
    "sca-large": lambda seed: ScaWorkload(seed, [(32, 3, 8, 2.0)]),
    "estimation": EstimationWorkload,
    "exhaustive": ExhaustiveWorkload,
}

# A trial fails when it raises one of these or fails a check.
TRIAL_ERRORS = (FcError,)
