"""Frozen copy of the exhaustive measurement baseline as it was before it
shared the lattice channels across couplers: one chain call per (antenna,
coupler) pair, steering all N couplers of every feasible candidate, and the
parked measurement from its own ``true_effective`` call.  The tests compare
``chanest.exhaustive_baseline`` against it field by field, bit for bit.

``predict`` is the frozen predictor from before the nearest candidate was
found on the lattice's rows and columns: it forms the full (..., M, N, D)
squared-distance cube and takes the first feasible minimum."""

import numpy as np

from fcarray.chanest import pilot_correlate, true_effective
from fcarray.channel import active_channel_matrix
from fcarray.geometry import single_coupler_moves
from fcarray.impedance import build_block
from fcarray.precoding import effective_column, mech_weights


def exhaustive_baseline(session, spec, layout, model, D=400) -> dict:
    side = max(int(round(np.sqrt(D))), 1)
    D_actual = side * side
    M, N, K = layout.M, layout.N, session.K
    parked = session.placements[0]
    rng = np.random.default_rng([session.seed, 3])

    candidates = np.zeros((M, D_actual, 2))
    for m in range(M):
        lo, hi = layout.region_bounds(m)
        xs = lo[0] + (np.arange(side) + 0.5) * (hi[0] - lo[0]) / side
        ys = lo[1] + (np.arange(side) + 0.5) * (hi[1] - lo[1]) / side
        xx, yy = np.meshgrid(xs, ys)
        candidates[m] = np.column_stack([xx.ravel(), yy.ravel()])

    h_active = active_channel_matrix(spec, layout)
    sigma = np.sqrt(session.sigma2 / 2.0)

    def measure(g):
        w = rng.standard_normal(g.shape[:-1] + (2, session.tau))
        y = g @ session.S + sigma * (w[..., 0, :] + 1j * w[..., 1, :])
        return pilot_correlate(y, session.S, session.tau)

    base = measure(true_effective(spec, parked, layout, model))

    table = np.zeros((M, N, D_actual, K), dtype=complex)
    feasible = np.zeros((M, N, D_actual), dtype=bool)
    for m in range(M):
        ok, moved = single_coupler_moves(parked.positions[m], m, np.arange(N), candidates[m],
                                         layout)
        feasible[m] = ok
        for n in np.flatnonzero(ok.any(axis=1)):
            P = moved[n, ok[n]]
            w = mech_weights(build_block(P, layout.active_positions()[m], model))[0]
            table[m, n, ok[n]] = measure(effective_column(spec, P, w, m, h_active, layout.lam))

    ledger = {
        "candidate_measurements_per_user_per_block": M * N * D_actual,
        "baseline_measurements_per_user_per_block": M,
        "lattice_side": side,
    }
    return {"candidates": candidates, "feasible": feasible, "table": table, "base": base,
            "ledger": ledger}


def predict(res, P) -> np.ndarray:
    M, N, D, K = res.table.shape
    P = np.asarray(P, dtype=float)
    d2 = np.sum((res.candidates[:, None] - P[..., None, :]) ** 2, axis=-1)
    d_idx = np.argmin(np.where(res.feasible, d2, np.inf), axis=-1)  # (..., M, N)
    picked = res.table[np.arange(M)[:, None], np.arange(N), d_idx]  # (..., M, N, K)
    step = np.where(res.feasible.any(axis=-1)[..., None], picked - res.base[:, None], 0.0)
    out = np.broadcast_to(res.base, P.shape[:-2] + (K,)).copy()
    for n in range(N):  # summed coupler by coupler, in a fixed order
        out = out + step[..., n, :]
    return out
