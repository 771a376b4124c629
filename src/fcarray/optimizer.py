"""Distributed SCA optimization of coupler positions.

Per iteration the central unit evaluates the sum-rate objective and its
gradient (one adjoint pass), every antenna maximizes a strongly
concave local surrogate by a projected step inside the linearized feasible
set, a relaxation with diminishing step mixes the candidate with the current
point, and the central unit re-solves the MMSE precoder.  Acceptance is
monotone: if the relaxed update lowers the rate, the inverse step size is
doubled and the update recomputed; after ``MAX_BACKTRACKS`` failed doublings
the iteration is skipped, which drives the relative-change stopping rule to
zero and terminates the run.

Each antenna updates through ``relaxed_update`` only, from its own state and
the step vector the central unit sends it; ``optimize`` can log those
exchanges as the message record of Algorithm 1 (runtime.run_algorithm1).
The M updates of an iteration run as one batch: one ``linearize_spacing``
call builds all M sets and each tried eta is one ``relaxed_update`` call on
the (M, 2N) stack.  Rows never mix, and each row's exact active-set
projection freezes at the step where it alone would, so every antenna's update
is, to the last bit, the one its LPU computes from its own set.

The forward pass (a full evaluation or a probe) is precoding's one
per-antenna chain, ``antenna_chain``, on coupler channels formed from cached
steering.  The gradient is its adjoint (``gradient_of``), read from the full
evaluation the iteration already holds, Gram solve included.  The rate
depends on the positions only through the whitened Gram W = sum_m g_bar_m
g_bar_m^H, g_bar_m = g_m / sqrt(b_m), so d rate = Re tr(Psi dW) for one K x K
Hermitian Psi (``gram_rate_adjoint``), i.e. 2 Re sum_m (Psi g_bar_m)^H
d g_bar_m.  From there the chain runs per antenna, batched over all M: the
weights w = A^-1 z_bar need one adjoint solve with A = Z_hat + X, the
impedances enter through the closed-form dZ/dd
(``mutual_impedance_derivative``) of each pair distance, and the coupler
channels through d h_C[k, n] / d p_n = sum_l gain_kl (-j k [cos, sin]
phi_kl) a_kln, from the per-path steering the forward caches.

An iteration builds no array that depends only on the shape.  Per N, the
spacing-pair tables (``geometry.pair_tables``: the coupler pairs, the
linearization's orientation and the gradient's incidence matrix), the load
matrix X and the identities are built once; per layout, the active positions
and the linearized sets' box bounds.  All are read-only and shared.  Each
full evaluation assembles Re Z once (``ImpedanceBlock.resistance``) for its
power coefficients and the backward pass.  ``constraint_margins`` runs once
per accepted iteration, plus once for the initial placement: the margins of
the accepted iterate give ``SCATrace.min_margins`` and are the anchor check
of the next ``linearize_spacing``.

Central differences (``gradient``) stay as the test oracle: each of the
M * 4N probes moves one coordinate of one coupler and is scored by a rank-2
update of the pinned whitened Gram (``rate_with_override``).  The linearized
sets keep a clearance (``CLEARANCE_WL``) that no probe needs: it guards the
impedance model's exact d_min check against the projection's rounding.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MultipathSpec,
    active_channel_matrix,
    coupler_channel_block,
    steering_coupler_block,
)
from .errors import ConfigError, NumericalError
from .geometry import (
    ArrayLayout,
    CouplerPlacement,
    LinearizedFeasibleSet,
    constraint_margins,
    linearize_spacing,
    pair_tables,
    project_onto_set,
    single_coupler_moves,
    spacing_pairs,
    uniform_placement,
)
from .impedance import DipoleModel, ImpedanceBlock, mutual_impedance_derivative
from .precoding import (
    PrecodingState,
    antenna_chain,
    gram_rate_adjoint,
    gram_sum_rate,
    mmse_precoder,
)


def _diminishing(t: int) -> float:
    return 2.0 / (t + 2.0)


def _constant(t: int) -> float:
    return 1.0


ALPHA_SCHEDULES = {"diminishing": _diminishing, "constant": _constant}


# The inverse step size starts at eta = ETA0_WL / lam and is raised at t = 0
# so the first unconstrained step is at most 10% of the region side; each
# rejected update multiplies it by BACKTRACK_FACTOR, at most MAX_BACKTRACKS
# times per iteration.
ETA0_WL = 10.0
BACKTRACK_FACTOR = 2.0
MAX_BACKTRACKS = 5
# Clearance of the linearized feasible sets, in wavelengths.  The projection
# is exact only to rounding: it lands on a set's boundary, which touches d_min
# wherever the anchor does, and with a constant alpha an iterate is that
# projection, while mutual_impedance rejects any spacing below d_min exactly
# (TooClose); the sets stay this far inside instead.
CLEARANCE_WL = 1e-4


@dataclass
class SCAConfig:
    """Knobs of the SCA loop: the relaxation schedule, the relative-change
    stopping threshold, the iteration cap, and whether the trace keeps every
    accepted placement.  An unknown schedule is a ConfigError."""

    alpha_schedule: str = "diminishing"
    eps_stop: float = 1e-4
    T_max: int = 200
    snapshot_placements: bool = False

    def __post_init__(self):
        if self.alpha_schedule not in ALPHA_SCHEDULES:
            raise ConfigError(f"unknown alpha schedule {self.alpha_schedule!r}",
                              field="sca.alpha_schedule")

    def alpha(self, t: int) -> float:
        return ALPHA_SCHEDULES[self.alpha_schedule](t)


@dataclass
class SCATrace:
    """Everything observable about one run: accepted-rate sequence, gradient
    norms, projection work, backtracking, the smallest box or spacing margin
    (distance - d_min) of each accepted iterate, and the communication ledger.
    ``proj_sweeps[t]`` counts the active-set steps (each adds or drops one
    constraint) of iteration t's accepted projection, summed over the
    antennas."""

    rates: list[float] = field(default_factory=list)
    grad_norms: list[np.ndarray] = field(default_factory=list)
    proj_sweeps: list[int] = field(default_factory=list)
    backtracks: list[int] = field(default_factory=list)
    etas: list[float] = field(default_factory=list)
    min_margins: list[float] = field(default_factory=list)
    rounds: int = 0
    skipped_final: bool = False
    placements: list[np.ndarray] | None = None
    comm: dict = field(default_factory=dict)

    def record_round(self, M: int, N: int) -> None:
        self.rounds += 1
        self.comm = communication_count(M, N, self.rounds)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["iteration", "rate", "max_grad_norm", "backtracks",
                         "eta", "comm_scalars_cum"])
            per_round = (self.comm.get("total_scalars", 0) / max(self.rounds, 1))
            for t, rate in enumerate(self.rates):
                if t == 0:
                    wr.writerow([0, rate, "", "", "", 0])
                else:
                    g = float(np.max(self.grad_norms[t - 1])) if t - 1 < len(self.grad_norms) else ""
                    bt = self.backtracks[t - 1] if t - 1 < len(self.backtracks) else ""
                    eta = self.etas[t - 1] if t - 1 < len(self.etas) else ""
                    wr.writerow([t, rate, g, bt, eta, int(per_round * min(t, self.rounds))])

    def summary(self) -> dict:
        return {
            "iterations": len(self.rates) - 1,
            "rounds": self.rounds,
            "initial_rate": self.rates[0] if self.rates else None,
            "final_rate": self.rates[-1] if self.rates else None,
            "skipped_final": self.skipped_final,
            "proj_sweeps_total": sum(self.proj_sweeps),
            "backtracks_total": sum(self.backtracks),
            "min_margin_m": min(self.min_margins, default=None),
            "comm": self.comm,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=1)


def communication_count(M: int, N: int, rounds: int) -> dict:
    """Closed-form ledger of the position-optimization protocol: per round the
    CPU broadcasts 2N real scalars to each of the M antennas (gradient steps)
    and each antenna uploads its 2N updated coordinates."""
    per_round = 2 * N * M
    return {
        "rounds": rounds,
        "gradient_scalars": per_round * rounds,
        "position_scalars": per_round * rounds,
        "total_scalars": 2 * per_round * rounds,
    }


@dataclass
class _Forward:
    """One full evaluation, as ``ObjectiveEvaluator`` caches it."""

    positions: np.ndarray  # (M, N, 2)
    steering: np.ndarray  # (M, K, L, N) per-path coupler steering
    h_c: np.ndarray  # (M, K, N) coupler channels
    block: ImpedanceBlock  # batched over the M antennas
    w: np.ndarray  # (M, N) mechanical weights
    state: PrecodingState


class ObjectiveEvaluator:
    """Sum-rate objective and its gradient.  A full evaluation runs all M
    antennas as one batch and is reused while the positions stay equal.  It
    caches the forward state that ``gradient_of`` reads back: the per-path
    coupler steering (M, K, L, N), the coupler channels (M, K, N) formed from
    it with ``coupler_channel_block``'s einsum, the impedance blocks, the
    mechanical weights (M, N) and the MMSE state.  ``set_placement`` also
    pins the evaluation that ``rate_with_override`` scores moves against."""

    def __init__(self, spec: MultipathSpec, layout: ArrayLayout, model: DipoleModel,
                 P_max: float, sigma2: float):
        self.spec = spec
        self.layout = layout
        self.model = model
        self.P_max = P_max
        self.sigma2 = sigma2
        self.h_active = active_channel_matrix(spec, layout)
        # gain_kl times d/dp of path l's steering phase, -j k [cos, sin] phi_kl
        k0 = 2.0 * np.pi / layout.lam
        self._path_slopes = (-1j * k0) * spec.gains[..., None] * np.stack(
            [np.cos(spec.angles), np.sin(spec.angles)], axis=-1)  # (K, L, 2)
        self._last = None  # _Forward of the latest full evaluation
        self._pinned = None  # _Forward that rate_with_override moves away from

    def _evaluate(self, placement: CouplerPlacement) -> _Forward:
        pos = placement.positions
        if self._last is None or not np.array_equal(self._last.positions, pos):
            steering = steering_coupler_block(self.spec.angles, pos, self.layout.lam)
            h_c = np.einsum("kl,...kln->...kn", self.spec.gains, steering)
            block, w, cols, B = antenna_chain(h_c, pos, slice(None), self.layout, self.model,
                                              self.h_active)
            state = mmse_precoder(np.ascontiguousarray(cols.T), B, self.P_max, self.sigma2)
            self._last = _Forward(pos.copy(), steering, h_c, block, w, state)
        return self._last

    def state_of(self, placement: CouplerPlacement) -> PrecodingState:
        """MMSE state at a placement; the latest one is reused."""
        return self._evaluate(placement).state

    def set_placement(self, placement: CouplerPlacement) -> float:
        """Full evaluation, pinned as the base of ``rate_with_override``."""
        self._pinned = self._evaluate(placement)
        return self._pinned.state.sum_rate

    def rate_of(self, placement: CouplerPlacement) -> float:
        """Full evaluation; the pinned one stays."""
        return self.state_of(placement).sum_rate

    def gradient_of(self, placement: CouplerPlacement) -> np.ndarray:
        """Gradient of the sum rate w.r.t. every antenna's flattened coupler
        coordinates, (M, 2N) rows in ``antenna_vector`` order: one backward
        pass through the cached forward (see the module docstring).  Raises
        NumericalError rather than return a non-finite entry."""
        fwd = self._evaluate(placement)
        st, w, h_c = fwd.state, fwd.w, fwd.h_c
        M, N = w.shape
        sqrt_b = np.sqrt(st.B)
        g = st.G.T  # (M, K) columns g_m
        g_bar = g / sqrt_b[:, None]
        Psi = gram_rate_adjoint(st.gram, self.P_max, self.sigma2)
        v = g_bar @ Psi.T  # rows Psi g_bar_m
        # d rate = Re(c_m . dg_m) + s_m db_m, from g_bar_m = g_m / sqrt(b_m)
        c = 2.0 * v.conj() / sqrt_b[:, None]
        s = -np.sum(v.conj() * g, axis=-1).real / st.B**1.5
        # through w = A^-1 z_bar: g_m = h_A - h_C w and b_m = w_t^H Re(Z) w_t
        w_t = np.concatenate([np.ones((M, 1)), -w], axis=-1)
        r = (fwd.block.resistance @ w_t[..., None])[:, 1:, 0]
        lam_w = -(c[:, None, :] @ h_c)[:, 0] - 2.0 * s[:, None] * r.conj()
        # adjoint solve; A = Z_hat + X is complex symmetric, so A^-T = A^-1
        mu = np.linalg.solve(fwd.block.Z_hat + fwd.block.X, lam_w[..., None])[..., 0]
        # d rate / d z for each distance of build_block, in spacing_pairs order
        pairs = pair_tables(N)
        ca, cb = pairs.coupler_a, pairs.coupler_b
        zeta = np.concatenate([
            mu - 2.0 * s[:, None] * w.real,
            2.0 * s[:, None] * (w[:, ca].conj() * w[:, cb]).real
            - (mu[:, ca] * w[:, cb] + mu[:, cb] * w[:, ca]),
        ], axis=-1)
        q = self.layout.active_positions()[:, None, :]
        full = np.concatenate([q, fwd.positions], axis=1)  # (M, N+1, 2)
        a, b = spacing_pairs(N)
        diff = full[:, b] - full[:, a]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        d_dist = np.real(zeta * mutual_impedance_derivative(dist, self.model))
        # distance d_ab moves with +u at point b and -u at point a
        grad = (pairs.incidence.T @ ((d_dist / dist)[..., None] * diff))[:, 1:]
        # through the coupler channels: dh_C[k, n]/dp_n = sum_l slope_kl a_kln,
        # slope_kl = gain_kl (-j k [cos phi_kl, sin phi_kl])
        paths = (c[:, :, None, None] * self._path_slopes).reshape(M, -1, 2)
        dh = np.swapaxes(paths, -1, -2) @ fwd.steering.reshape(paths.shape[:2] + (N,))
        grad -= np.real(dh * w[:, None, :]).transpose(0, 2, 1)
        grad = grad.reshape(M, 2 * N)
        if not np.all(np.isfinite(grad)):
            raise NumericalError("adjoint gradient has non-finite entries")
        return grad

    def probe_parts(self, m, p_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Effective columns (..., K) and power coefficients (...) of
        ``antenna_chain`` at candidate positions ``p_m`` (..., N, 2) of
        antenna m (an index or an index array matching the batch axes).
        Couplers that did not move keep their pinned channels; the impedance
        block, weights and power coefficient are rebuilt whole."""
        base = self._pinned
        m = np.broadcast_to(m, p_m.shape[:-2])
        moved = np.any(p_m != base.positions[m], axis=-1)  # (..., N)
        h_c = np.take(base.h_c, m, axis=0)  # (..., K, N)
        if moved.any():
            np.swapaxes(h_c, -1, -2)[moved] = coupler_channel_block(
                self.spec, p_m[moved][:, None, :], self.layout.lam)[..., 0]
        return antenna_chain(h_c, p_m, m, self.layout, self.model, self.h_active)[2:]

    def rate_with_override(self, m, p_m: np.ndarray):
        """Rate with antenna m moved to ``p_m`` (N, 2); all else as pinned.  A
        batch of positions (..., N, 2) gives one rate per entry, and ``m`` may
        then be an index array matching the batch axes.  The moved column
        enters as a rank-2 update of the pinned whitened Gram."""
        st = self._pinned.state
        G_bar = st.G / np.sqrt(st.B)
        col, b = self.probe_parts(m, p_m)
        old = np.take(G_bar.T, np.broadcast_to(m, p_m.shape[:-2]), axis=0)
        new = col / np.sqrt(b)[..., None]
        W_p = (st.gram.W - old[..., :, None] * old.conj()[..., None, :]
               + new[..., :, None] * new.conj()[..., None, :])
        return gram_sum_rate(W_p, self.P_max, self.sigma2)


def gradient(
    placement: CouplerPlacement,
    m,
    evaluator: ObjectiveEvaluator,
    fd_step: float,
) -> np.ndarray:
    """Central-difference gradient of the objective w.r.t. antenna m's
    flattened coupler coordinates (2N,), all 2 * 2N probes scored in one
    batch; the oracle the adjoint ``gradient_of`` is tested against.  An
    index array ``m`` gives one row per antenna (len(m), 2N) from a single
    batch.  The evaluator must be pinned at ``placement``.  A probe that
    crosses d_min raises TooClose; one past the box edge is scored as is."""
    base = placement.positions[m].reshape(np.shape(m) + (-1,))
    n_coord = base.shape[-1]
    step = fd_step * np.eye(n_coord)
    plus = base[..., None, :] + step  # (..., 2N probes, 2N coordinates)
    minus = plus - 2.0 * step
    probes = np.stack([plus, minus]).reshape((2,) + plus.shape[:-1] + (-1, 2))
    rates = evaluator.rate_with_override(np.asarray(m)[..., None], probes)
    return (rates[0] - rates[1]) / (2.0 * fd_step)


def relaxed_update(
    p_vec: np.ndarray,
    step_vec: np.ndarray,
    alpha_t: float,
    anchor_set: LinearizedFeasibleSet,
    return_steps: bool = False,
):
    """One antenna's full update: project p + step onto its linearized set
    (the maximizer of its surrogate), then relax toward that candidate with
    weight alpha.  This is the exact computation an LPU runs from (its own
    state, the received step vector, the public schedule).  Stacked vectors
    (A, 2N) with a batch of A sets update A antennas, row by row;
    ``return_steps`` also gives the projection's active-set step counts."""
    cand, steps = project_onto_set(p_vec + step_vec, anchor_set, return_steps=True)
    new = p_vec + alpha_t * (cand - p_vec)
    return (new, steps) if return_steps else new


@dataclass
class OptimizeResult:
    placement: CouplerPlacement
    state: PrecodingState
    trace: SCATrace


def optimize(
    initial: CouplerPlacement,
    config: SCAConfig,
    spec: MultipathSpec,
    layout: ArrayLayout,
    model: DipoleModel,
    P_max: float,
    sigma2: float,
    log: list | None = None,
) -> OptimizeResult:
    """Run the SCA loop from a feasible initial placement.

    ``log``, when given, receives the exchanges of every accepted round r as
    (r, antenna, payload kind, scalar count, payload) records: the step
    vector sent to each antenna ("gradient"), then each antenna's updated
    coordinates ("positions"), which its previous coordinates and that step
    replay through ``relaxed_update`` with alpha(r - 1)."""
    ev = ObjectiveEvaluator(spec, layout, model, P_max, sigma2)
    p = initial.copy()
    trace = SCATrace(rates=[ev.rate_of(p)])
    if config.snapshot_placements:
        trace.placements = [p.positions.copy()]
    eta = ETA0_WL / layout.lam
    M, N = layout.M, layout.N

    if N == 0 or config.T_max == 0:
        return OptimizeResult(p, ev.state_of(p), trace)

    antennas = np.arange(M)
    clearance = CLEARANCE_WL * layout.lam
    margins = constraint_margins(p.positions, layout)  # of the current iterate
    for t in range(config.T_max):
        grads = ev.gradient_of(p)
        norms = np.sqrt(np.vecdot(grads, grads))  # np.linalg.norm of each row
        if t == 0:
            gmax = float(norms.max())
            if gmax > 0:
                eta = max(eta, gmax / (0.1 * layout.region_side_m))
        sets = linearize_spacing(p, antennas, layout, margin=clearance, margins=margins)
        alpha_t = config.alpha(t)
        p_vecs = p.positions.reshape(M, 2 * N)

        accepted = None
        backtracks = 0
        for _ in range(MAX_BACKTRACKS + 1):
            steps = grads / eta
            vecs, proj_steps = relaxed_update(p_vecs, steps, alpha_t, sets, return_steps=True)
            cand = CouplerPlacement(vecs.reshape(M, N, 2))
            cand_rate = ev.rate_of(cand)
            if cand_rate >= trace.rates[-1]:
                accepted = (cand, steps, cand_rate, int(proj_steps.sum()))
                break
            eta *= BACKTRACK_FACTOR
            backtracks += 1

        if accepted is None:
            # No improving step at any tested eta: stationary for our
            # purposes.  The skip keeps the rate flat, so the relative-change
            # rule fires and the run stops here.
            trace.skipped_final = True
            trace.rates.append(trace.rates[-1])
            break

        cand, steps, cand_rate, proj_steps_total = accepted
        prev = trace.rates[-1]
        p = cand
        trace.rates.append(cand_rate)
        trace.grad_norms.append(norms)
        trace.backtracks.append(backtracks)
        trace.etas.append(eta)
        trace.proj_sweeps.append(proj_steps_total)
        margins = box, dist = constraint_margins(p.positions, layout)
        trace.min_margins.append(float(min(box.min(), (dist - layout.min_sep_m).min())))
        trace.record_round(M, N)
        if log is not None:
            r = trace.rounds
            log.extend((r, m, "gradient", 2 * N, steps[m]) for m in range(M))
            log.extend((r, m, "positions", 2 * N, p.antenna_vector(m)) for m in range(M))
        if config.snapshot_placements:
            trace.placements.append(p.positions.copy())
        rel = 0.0 if cand_rate == prev else abs(cand_rate - prev) / max(prev, 1e-300)
        if rel <= config.eps_stop:
            break

    return OptimizeResult(p, ev.state_of(p), trace)


def screened_initial_placement(
    layout: ArrayLayout,
    spec: MultipathSpec,
    model: DipoleModel,
    P_max: float,
    sigma2: float,
    points_per_axis: int = 11,
) -> CouplerPlacement:
    """Coarse deterministic initializer: starting from the uniform placement,
    sweep one coupler at a time over a feasible sub-lattice of its region
    (all other couplers held at their current spots, antennas and couplers in
    index order) and keep the best rate seen.  The uniform placement stays a
    candidate throughout, so a monotone SCA run started here still dominates
    the fixed-coupler baseline."""
    base = uniform_placement(layout)
    if layout.N == 0:
        return base
    ev = ObjectiveEvaluator(spec, layout, model, P_max, sigma2)
    best = base.copy()
    margin = 2.0 * CLEARANCE_WL * layout.lam  # strictly inside the SCA sets' clearance
    for m in range(layout.M):
        lo, hi = layout.region_bounds(m)
        # keep a box margin so the screened points stay strictly feasible
        pad = 2.0 * (0.5 * layout.region_side_m) / (points_per_axis + 1)
        xs = np.linspace(lo[0] + pad / 2, hi[0] - pad / 2, points_per_axis)
        ys = np.linspace(lo[1] + pad / 2, hi[1] - pad / 2, points_per_axis)
        lattice = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        ev.set_placement(best)
        for n in range(layout.N):
            pts_m = best.positions[m].copy()
            best_rate = ev.rate_with_override(m, pts_m)
            ok, moved = single_coupler_moves(pts_m, m, n, lattice, layout, margin)
            if ok.any():
                probes = moved[ok]
                rates = ev.rate_with_override(m, probes)
                # first lattice point (x-major) strictly above the current rate
                i = int(np.argmax(rates))
                if rates[i] > best_rate:
                    pts_m[n] = probes[i, n]
            best = best.with_antenna_vector(m, pts_m.reshape(-1))
    return best
