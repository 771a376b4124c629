"""The stage functions broadcast over a leading candidate axis.  A batch must
give the per-candidate results of the unbatched calls and fail with the same
error when one candidate is bad; the batched consumers (finite-difference
gradient, screened initializer, exhaustive baseline) are checked against
frozen per-candidate loops.  Finite-difference probes are scored from a
rank-2 update of the whitened Gram; that path is checked against the full
MMSE precoder and against per-probe ``fc_state`` evaluations.  The
estimation side (pilot phase, dictionaries, reconstruction, NMSE) is checked
against frozen per-(block, antenna) and per-(placement, antenna) loops, and
Algorithm 3, whose local dictionaries are slices of one batched build and
whose local units run as one bank, against a frozen run in which every local
unit builds its own and computes alone, and the bank unit by unit against
single units.  The centralized estimator, which recovers all users in one
stacked OMP and one stacked least-squares call, is checked against a frozen
per-user loop."""

import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fcarray import (
    ArrayLayout,
    DipoleModel,
    make_session,
    random_feasible_placement,
    sample_channels,
    uniform_placement,
)
from fcarray.channel import active_channel_matrix, coupler_channel_block
from fcarray.chanest import (
    AngularGrid,
    EstimationResult,
    LocalEstimator,
    _algorithm3_rounds,
    aggregate_gains,
    build_dictionary,
    centralized_estimate,
    distributed_estimate,
    exhaustive_baseline,
    fuse_and_select,
    local_dictionary,
    local_proxy,
    nmse,
    omp,
    pilot_correlate,
    run_pilot_phase,
    simulate_rx,
    true_effective,
)
from fcarray.errors import (
    FcError,
    InformationLeak,
    NonPositivePower,
    RankDeficientSupport,
    SingularAggregate,
    SingularGram,
    SingularSystem,
    TooClose,
)
from fcarray.geometry import is_feasible
from fcarray.impedance import ImpedanceBlock, build_block
from fcarray.optimizer import (
    ObjectiveEvaluator,
    gradient,
    screened_initial_placement,
)
from fcarray.precoding import (
    COND_LIMIT,
    GRAM_COND_LIMIT,
    _certified_solve,
    _frobenius,
    antenna_chain,
    effective_column,
    fc_state,
    gram_sum_rate,
    mech_weights,
    mmse_precoder,
    power_coefficient,
)
from fcarray.runtime import run_algorithm3
from fcarray.sweeps import _streams

from chanest_reference import stack_observations

P_MAX, SIGMA2 = 1.0, 0.05
BATCH = 6


def rel_err(got, ref) -> float:
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref)) if ref.size else 0.0
    return float(np.max(np.abs(got - ref)) / scale) if scale > 0 else 0.0


def stack(values):
    return np.stack([np.asarray(v) for v in values])


def antenna_batch(layout, m, seed):
    """Coupler positions of antenna m from BATCH random feasible placements."""
    rng = np.random.default_rng(seed)
    return stack([random_feasible_placement(layout, rng).positions[m]
                  for _ in range(BATCH)])


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_stage_functions_match_per_candidate_calls(N):
    lay = ArrayLayout(M=3, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(N, K=3, L=9, layout=lay)
    h_active = active_channel_matrix(spec, lay)
    for m in range(lay.M):
        P = antenna_batch(lay, m, seed=10 * N + m)
        q = lay.active_position(m)
        block = build_block(P, q, model)
        w, cond = mech_weights(block)
        cols = effective_column(spec, P, w, m, h_active, lay.lam)
        b = power_coefficient(block, w)
        assert cols.shape == (BATCH, spec.K) and np.shape(b) == (BATCH,)
        Z = block.full_matrix()
        assert np.array_equal(Z, np.swapaxes(Z, -1, -2))
        ref = []
        for p_m in P:
            blk = build_block(p_m, q, model)
            w_m, c_m = mech_weights(blk)
            ref.append((blk.full_matrix(), w_m, c_m,
                        effective_column(spec, p_m, w_m, m, h_active, lay.lam),
                        power_coefficient(blk, w_m),
                        coupler_channel_block(spec, p_m, lay.lam)))
        got = (block.full_matrix(), w, cond, cols, b, coupler_channel_block(spec, P, lay.lam))
        for got_i, ref_i in zip(got, zip(*ref)):
            assert rel_err(got_i, stack(ref_i)) <= 1e-12


def test_mixed_antenna_batch_matches_per_antenna_calls():
    # one batch entry per antenna, as a full evaluation runs them
    lay = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(3, K=2, L=15, layout=lay)
    h_active = active_channel_matrix(spec, lay)
    pos = random_feasible_placement(lay, np.random.default_rng(3)).positions
    m = np.arange(lay.M)
    block = build_block(pos, lay.active_positions(), model)
    w, _ = mech_weights(block)
    cols = effective_column(spec, pos, w, m, h_active, lay.lam)
    for k in range(lay.M):
        blk = build_block(pos[k], lay.active_position(k), model)
        w_k, _ = mech_weights(blk)
        ref = effective_column(spec, pos[k], w_k, k, h_active, lay.lam)
        assert rel_err(cols[k], ref) <= 1e-12


def test_mmse_batch_matches_per_candidate_calls():
    rng = np.random.default_rng(4)
    K, M = 3, 5
    G = rng.standard_normal((BATCH, K, M)) + 1j * rng.standard_normal((BATCH, K, M))
    G[0] = 0.0  # zero channel: silent precoder, beta = 0
    B = rng.uniform(10.0, 200.0, (BATCH, M))
    st = mmse_precoder(G, B, P_MAX, SIGMA2)
    assert st.beta[0] == 0.0
    for i in range(BATCH):
        ref = mmse_precoder(G[i], B[i], P_MAX, SIGMA2)
        assert rel_err(st.U[i], ref.U) <= 1e-12
        assert rel_err(st.sinr[i], ref.sinr) <= 1e-12
        assert rel_err(st.sum_rate[i], ref.sum_rate) <= 1e-12
        assert st.beta[i] == pytest.approx(ref.beta, rel=1e-12)


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_rate_with_override_batch_matches_loop(N):
    lay = ArrayLayout(M=3, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(7, K=2, L=15, layout=lay)
    ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
    ev.set_placement(uniform_placement(lay))
    P = antenna_batch(lay, 1, seed=N)
    rates = ev.rate_with_override(1, P)
    ref = [ev.rate_with_override(1, p_m) for p_m in P]
    assert rel_err(rates, ref) <= 1e-12


class TestBatchErrors:
    """One bad candidate fails the batch with the scalar call's error."""

    def test_too_close(self):
        lay = ArrayLayout(M=1, N=2)
        model = DipoleModel.for_layout(lay)
        q = lay.active_position(0)
        P = antenna_batch(lay, 0, seed=1)
        P[3, 1] = q + [0.5 * lay.min_sep_m, 0.0]
        with pytest.raises(TooClose):
            build_block(P[3], q, model)
        with pytest.raises(TooClose):
            build_block(P, q, model)

    def test_singular_coupling_system(self):
        X = np.array([[50j]])
        good = ImpedanceBlock(73.0 + 0j, np.array([[5.0 + 1j]]), np.array([[[73.0 + 0j]]]), X)
        bad = ImpedanceBlock(73.0 + 0j, np.array([[5.0 + 1j]]), -X[None], X)
        both = ImpedanceBlock(73.0 + 0j, np.concatenate([good.z_bar, bad.z_bar]),
                              np.concatenate([good.Z_hat, bad.Z_hat]), X)
        mech_weights(good)
        for blk in (bad, both):
            with pytest.raises(SingularSystem):
                mech_weights(blk)

    def test_nonpositive_power(self):
        blk = ImpedanceBlock(73.0 + 0j, np.zeros((2, 1), dtype=complex),
                             np.array([[[73.0 + 0j]], [[-1000.0 + 0j]]]),
                             np.zeros((1, 1), dtype=complex))
        w = np.ones((2, 1), dtype=complex)
        assert power_coefficient(ImpedanceBlock(
            73.0 + 0j, blk.z_bar[0], blk.Z_hat[0], blk.X), w[0]) > 0
        with pytest.raises(NonPositivePower):
            power_coefficient(ImpedanceBlock(73.0 + 0j, blk.z_bar[1], blk.Z_hat[1], blk.X), w[1])
        with pytest.raises(NonPositivePower):
            power_coefficient(blk, w)

    def test_mmse_nonpositive_and_singular(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        B = np.full((3, 4), 50.0)
        B[1, 2] = 0.0
        with pytest.raises(NonPositivePower):
            mmse_precoder(G[1], B[1], P_MAX, SIGMA2)
        with pytest.raises(NonPositivePower):
            mmse_precoder(G, B, P_MAX, SIGMA2)
        B[1, 2] = 50.0
        G[2, 1] = 0.0  # one silent user at vanishing noise: Gram cond ~ 1/alpha
        with pytest.raises(SingularGram):
            mmse_precoder(G[2], B[2], P_MAX, 1e-18)
        with pytest.raises(SingularGram):
            mmse_precoder(G, B, P_MAX, 1e-18)


def fd_gradient_oracle(placement, m, ev, h):
    """Per-probe central differences, one scalar rate evaluation per probe."""
    base = placement.positions[m].reshape(-1)
    g = np.zeros(base.size)
    for i in range(base.size):
        probe = base.copy()
        probe[i] += h
        r_plus = ev.rate_with_override(m, probe.reshape(-1, 2))
        probe[i] -= 2.0 * h
        r_minus = ev.rate_with_override(m, probe.reshape(-1, 2))
        g[i] = (r_plus - r_minus) / (2.0 * h)
    return g


def test_gradient_matches_per_probe_oracle():
    # the acceptance-4 instances
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    h = 1e-4 * lay.lam
    for seed in range(10):
        spec = sample_channels(_streams(seed)[0], K=2, L=15, layout=lay)
        pl = uniform_placement(lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        ev.set_placement(pl)
        m = seed % lay.M
        for step in (h, h / 2, h / 4):
            ref = fd_gradient_oracle(pl, m, ev, step)
            g = gradient(pl, m, ev, step)
            assert np.linalg.norm(g - ref) <= 1e-9 * np.linalg.norm(ref)


class TestEvaluatorReuse:
    def test_full_evaluation_reused_until_positions_change(self):
        lay = ArrayLayout(M=3, N=2)
        model = DipoleModel.for_layout(lay)
        spec = sample_channels(5, K=2, L=15, layout=lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        pl = uniform_placement(lay)
        rate = ev.rate_of(pl)
        state = ev.state_of(pl.copy())
        assert state is ev.state_of(pl) and state.sum_rate == rate
        assert ev.set_placement(pl.copy()) == rate
        moved = random_feasible_placement(lay, np.random.default_rng(0))
        assert ev.state_of(moved) is not state
        fresh = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        assert ev.rate_of(moved) == fresh.rate_of(moved)

    def test_probe_at_current_positions_equals_full_evaluation(self):
        lay = ArrayLayout(M=3, N=3)
        model = DipoleModel.for_layout(lay)
        spec = sample_channels(6, K=3, L=15, layout=lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        pl = uniform_placement(lay)
        rate = ev.set_placement(pl)
        for m in range(lay.M):
            assert ev.rate_with_override(m, pl.positions[m]) == pytest.approx(rate, rel=1e-12)


def screened_reference(layout, spec, model, points_per_axis=11):
    """Per-candidate screen: one scalar rate per lattice point, strict >."""
    ev = ObjectiveEvaluator(spec, layout, model, P_MAX, SIGMA2)
    best = uniform_placement(layout)
    margin = 2e-4 * layout.lam
    for m in range(layout.M):
        lo, hi = layout.region_bounds(m)
        q = layout.active_position(m)
        pad = 2.0 * (0.5 * layout.region_side_m) / (points_per_axis + 1)
        xs = np.linspace(lo[0] + pad / 2, hi[0] - pad / 2, points_per_axis)
        ys = np.linspace(lo[1] + pad / 2, hi[1] - pad / 2, points_per_axis)
        ev.set_placement(best)
        for n in range(layout.N):
            pts_m = best.positions[m].copy()
            best_rate = ev.rate_with_override(m, pts_m)
            best_pt = pts_m[n].copy()
            anchors = np.vstack([q[None, :], np.delete(pts_m, n, axis=0)])
            for x in xs:
                for y in ys:
                    d = np.hypot(anchors[:, 0] - x, anchors[:, 1] - y)
                    if np.min(d) < layout.min_sep_m + margin:
                        continue
                    pts_m[n] = [x, y]
                    r = ev.rate_with_override(m, pts_m)
                    if r > best_rate:
                        best_rate = r
                        best_pt = np.array([x, y])
            pts_m[n] = best_pt
            best = best.with_antenna_vector(m, pts_m.reshape(-1))
    return best


@pytest.mark.parametrize("M, N", [(1, 1), (2, 2)])
def test_screened_initial_placement_matches_per_candidate_screen(M, N):
    lay = ArrayLayout(M=M, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(42, K=2, L=15, layout=lay)
    got = screened_initial_placement(lay, spec, model, P_MAX, SIGMA2)
    ref = screened_reference(lay, spec, model)
    assert np.array_equal(got.positions, ref.positions)


def exhaustive_reference(session, spec, layout, model, D):
    """Per-candidate exhaustive baseline: a full-array rebuild and one noise
    draw per measurement."""
    side = max(int(round(np.sqrt(D))), 1)
    M, N, K = layout.M, layout.N, session.K
    parked = session.placements[0]
    rng = np.random.default_rng([session.seed, 3])
    candidates = np.zeros((M, side * side, 2))
    for m in range(M):
        lo, hi = layout.region_bounds(m)
        xs = lo[0] + (np.arange(side) + 0.5) * (hi[0] - lo[0]) / side
        ys = lo[1] + (np.arange(side) + 0.5) * (hi[1] - lo[1]) / side
        xx, yy = np.meshgrid(xs, ys)
        candidates[m] = np.column_stack([xx.ravel(), yy.ravel()])

    def measure_row(placement, m):
        g = true_effective(spec, placement, layout, model)[m]
        noise = np.sqrt(session.sigma_eff2 / 2.0) * (
            rng.standard_normal(K) + 1j * rng.standard_normal(K))
        return pilot_correlate(g @ session.S, session.S, session.tau) + noise

    base = stack([measure_row(parked, m) for m in range(M)])
    table = np.zeros((M, N, side * side, K), dtype=complex)
    feasible = np.zeros((M, N, side * side), dtype=bool)
    for m in range(M):
        q = layout.active_position(m)
        for n in range(N):
            ref = np.vstack([q[None, :], np.delete(parked.positions[m], n, axis=0)])
            for d in range(side * side):
                c = candidates[m, d]
                if np.min(np.hypot(ref[:, 0] - c[0], ref[:, 1] - c[1])) < layout.min_sep_m:
                    continue
                feasible[m, n, d] = True
                moved = parked.copy()
                moved.positions[m, n] = c
                table[m, n, d] = measure_row(moved, m)
    return table, base, feasible


@pytest.mark.parametrize("D", [1, 25])
def test_exhaustive_baseline_matches_per_candidate_loop(D):
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(11, K=2, L=15, layout=lay)
    session = make_session(lay, K=2, tau=5, V=1, sigma2=0.1, seed=17)
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    table, base, feasible = exhaustive_reference(session, spec, lay, model, D)
    assert np.array_equal(res.feasible, feasible)
    assert rel_err(res.base, base) <= 1e-12
    assert rel_err(res.table, table) <= 1e-12
    if D == 25:
        assert feasible.any() and not feasible.all()


def whitened_gram(G, B):
    G_bar = G / np.sqrt(B)[..., None, :]
    return G_bar @ np.swapaxes(G_bar.conj(), -1, -2)


@pytest.mark.parametrize("K, M, scale", [(1, 4, 1.0), (3, 3, 1.0), (3, 5, 1.0),
                                         (4, 6, 1e-4), (2, 2, 1e-7)])
def test_gram_rate_matches_mmse_precoder(K, M, scale):
    # K=1, K=M and weak channels, where the rate is far below one bit
    rng = np.random.default_rng(K * 10 + M)
    G = scale * (rng.standard_normal((BATCH, K, M)) + 1j * rng.standard_normal((BATCH, K, M)))
    B = rng.uniform(10.0, 200.0, (BATCH, M))
    rates = gram_sum_rate(whitened_gram(G, B), P_MAX, SIGMA2)
    for i in range(BATCH):
        ref = mmse_precoder(G[i], B[i], P_MAX, SIGMA2).sum_rate
        assert rates[i] == pytest.approx(ref, rel=1e-12)
        assert gram_sum_rate(whitened_gram(G[i], B[i]), P_MAX, SIGMA2) == pytest.approx(
            ref, rel=1e-12)


def test_gram_rate_of_zero_channel_is_zero():
    G = np.zeros((2, 3), dtype=complex)
    assert gram_sum_rate(whitened_gram(G, np.ones(3)), P_MAX, SIGMA2) == 0.0


@pytest.mark.parametrize("N", [1, 2, 3])
def test_probe_parts_match_antenna_chain(N):
    # every single-coordinate probe of every antenna: only the moved coupler
    # gets a new channel, yet column and power coefficient match the chain
    lay = ArrayLayout(M=3, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(20 + N, K=3, L=15, layout=lay)
    pl = random_feasible_placement(lay, np.random.default_rng(N))
    ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
    ev.set_placement(pl)
    h_active = active_channel_matrix(spec, lay)
    h = 1e-4 * lay.lam
    m = np.repeat(np.arange(lay.M), 2 * N)
    P = pl.positions[m].reshape(m.size, -1) + h * np.tile(np.eye(2 * N), (lay.M, 1))
    P = P.reshape(m.size, N, 2)
    cols, b = ev.probe_parts(m, P)
    for i in range(m.size):
        col_ref, b_ref = antenna_chain(coupler_channel_block(spec, P[i], lay.lam), P[i], m[i],
                                       lay, model, h_active)[2:]
        assert rel_err(cols[i], col_ref) <= 1e-12
        assert b[i] == pytest.approx(b_ref, rel=1e-12)


def fc_gradient_oracle(placement, ev, h):
    """Per-probe central differences, each probe rate a full fc_state
    evaluation of the moved placement; minus probes are (x + h) - 2h."""
    M, n_coord = placement.M, 2 * placement.N
    g = np.zeros((M, n_coord))
    for m in range(M):
        for i in range(n_coord):
            rates = []
            for sign in (1.0, -1.0):
                vec = placement.antenna_vector(m)
                vec[i] += h
                if sign < 0:
                    vec[i] -= 2.0 * h
                moved = placement.with_antenna_vector(m, vec)
                rates.append(fc_state(ev.spec, moved, ev.layout, ev.model,
                                      ev.P_max, ev.sigma2).sum_rate)
            g[m, i] = (rates[0] - rates[1]) / (2.0 * h)
    return g


def test_all_antenna_gradient_matches_fc_state_oracle():
    # the acceptance-4 instances, all antennas in one batch
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    h = 1e-4 * lay.lam
    for seed in range(10):
        spec = sample_channels(_streams(seed)[0], K=2, L=15, layout=lay)
        pl = uniform_placement(lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        ev.set_placement(pl)
        g = gradient(pl, np.arange(lay.M), ev, h)
        ref = fc_gradient_oracle(pl, ev, h)
        assert g.shape == ref.shape
        assert np.linalg.norm(g - ref) <= 1e-8 * np.linalg.norm(ref)
        for m in range(lay.M):
            assert np.array_equal(g[m], gradient(pl, m, ev, h))


def test_gram_certificate_raises_exactly_when_cond_exceeds_limit():
    # Hermitian PSD Grams with condition numbers straddling the limit: the
    # certificate path must raise SingularGram iff np.linalg.cond says so
    rng = np.random.default_rng(8)
    K = 3
    alpha = K * SIGMA2 / P_MAX
    conds = GRAM_COND_LIMIT * np.array([1e-3, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 1e3])
    W = []
    for c in conds:
        # W has eigenvalues (2c - 1, sqrt(c), 1) alpha, so cond(W + alpha I) ~ c
        Q, _ = np.linalg.qr(rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
        eig = alpha * np.array([2.0 * c - 1.0, np.sqrt(c), 1.0])
        W.append((Q * eig) @ Q.conj().T)
    W = np.stack(W)
    exact = np.linalg.cond(W + alpha * np.eye(K))
    assert (exact > GRAM_COND_LIMIT).any() and (exact <= GRAM_COND_LIMIT).any()
    for i in range(len(conds)):
        if exact[i] > GRAM_COND_LIMIT:
            with pytest.raises(SingularGram):
                gram_sum_rate(W[i], P_MAX, SIGMA2)
        else:
            gram_sum_rate(W[i], P_MAX, SIGMA2)
    ok = exact <= GRAM_COND_LIMIT
    gram_sum_rate(W[ok], P_MAX, SIGMA2)
    with pytest.raises(SingularGram):
        gram_sum_rate(W, P_MAX, SIGMA2)


@pytest.mark.parametrize("N", [2, 3])
def test_coupling_certificate_raises_exactly_when_cond_exceeds_limit(N):
    # coupling systems with condition numbers straddling the limit: the
    # certified solve must raise SingularSystem iff np.linalg.cond says so,
    # and solve the passing entries bit for bit as np.linalg.solve does; at
    # N = 2 the bound is the determinant form
    rng = np.random.default_rng(9)
    conds = COND_LIMIT * np.array([1e-3, 1e-2, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 1e3])
    Z_hat, z_bar = [], []
    for c in conds:
        U, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        V, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        s = [c, c, 1.0] if N == 3 else [c, 1.0]
        Z_hat.append(60.0 * (U * np.array(s)) @ V.conj().T)
        z_bar.append(rng.standard_normal(N) + 1j * rng.standard_normal(N))
    Z_hat, z_bar = np.stack(Z_hat), np.stack(z_bar)
    X = np.zeros((N, N), dtype=complex)
    exact = np.linalg.cond(Z_hat)
    ok = exact <= COND_LIMIT
    assert ok.any() and not ok.all()
    # the SVD rounds the smallest singular value by about eps * sigma_max, a
    # relative eps * cond in ``exact``; at N = 3 the singular values [c, c, 1]
    # put the bound near sqrt(2) cond, far above that rounding, while at N = 2
    # the bound, cond + 1 / cond, sits far closer to the exact value than that,
    # so the check allows it there
    slack = 1e-12 + np.finfo(float).eps * exact * (N == 2)
    for i in range(len(conds)):
        block = ImpedanceBlock(73.0 + 0j, z_bar[i], Z_hat[i], X)
        if not ok[i]:
            with pytest.raises(SingularSystem):
                mech_weights(block)
            continue
        w, cond = mech_weights(block)
        assert np.array_equal(w, np.linalg.solve(Z_hat[i], z_bar[i]))
        # an upper bound, and the exact value wherever the bound misses
        assert cond >= exact[i] * (1.0 - slack[i])
        assert cond <= 1e-2 * COND_LIMIT or cond == exact[i]
    w, cond = mech_weights(ImpedanceBlock(73.0 + 0j, z_bar[ok], Z_hat[ok], X))
    assert np.array_equal(w, np.linalg.solve(Z_hat[ok], z_bar[ok][..., None])[..., 0])
    assert np.all(cond >= exact[ok] * (1.0 - slack[ok]))
    assert np.array_equal(cond[cond > 1e-2 * COND_LIMIT], exact[ok][cond > 1e-2 * COND_LIMIT])
    with pytest.raises(SingularSystem):
        mech_weights(ImpedanceBlock(73.0 + 0j, z_bar, Z_hat, X))


def test_two_by_two_coupling_systems_solve_and_bound():
    # at N = 2 as at any N: the weights of the one solve of [z_bar | I] and
    # the bound ||Z||_F ||Z^-1||_F from its inverse columns
    rng = np.random.default_rng(12)
    F = 64
    Z_hat = 60.0 * (rng.standard_normal((F, 2, 2)) + 1j * rng.standard_normal((F, 2, 2)))
    Z_hat += 200.0 * np.eye(2)  # well conditioned
    z_bar = rng.standard_normal((F, 2)) + 1j * rng.standard_normal((F, 2))
    X = np.zeros((2, 2), dtype=complex)
    w, cond = mech_weights(ImpedanceBlock(73.0 + 0j, z_bar, Z_hat, X))
    assert np.array_equal(w, np.linalg.solve(Z_hat, z_bar[..., None])[..., 0])
    want = _frobenius(Z_hat) * _frobenius(np.linalg.inv(Z_hat))
    assert np.max(np.abs(cond - want) / want) <= 1e-13
    Z_hat[5] = [[1.0, 2.0], [2.0, 4.0]]  # exactly singular
    with pytest.raises(SingularSystem):
        mech_weights(ImpedanceBlock(73.0 + 0j, z_bar, Z_hat, X))
    with pytest.raises(SingularSystem):
        mech_weights(ImpedanceBlock(73.0 + 0j, z_bar[5], Z_hat[5], X))


class TestNonFinite:
    """A NaN reaching the coupling system or the Gram, or a singular Gram,
    raises the package's own error, not numpy's LinAlgError."""

    def test_nan_in_coupling_system(self):
        lay = ArrayLayout(M=1, N=2)
        model = DipoleModel.for_layout(lay)
        P = antenna_batch(lay, 0, seed=5)
        block = build_block(P, lay.active_position(0), model)
        block.Z_hat[2, 0, 1] = np.nan
        with pytest.raises(SingularSystem):
            mech_weights(ImpedanceBlock(block.z_self, block.z_bar[2], block.Z_hat[2], block.X))
        with pytest.raises(SingularSystem):
            mech_weights(block)

    def test_nan_noise_in_mmse_precoder(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        with pytest.raises(SingularGram):
            mmse_precoder(G, np.full(3, 50.0), 1.0, float("nan"))

    def test_nan_in_probe_gram(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((BATCH, 2, 3)) + 1j * rng.standard_normal((BATCH, 2, 3))
        W = whitened_gram(G, np.full(3, 50.0))
        W[4, 1, 0] = np.nan
        gram_sum_rate(W[:4], P_MAX, SIGMA2)
        with pytest.raises(SingularGram):
            gram_sum_rate(W, P_MAX, SIGMA2)
        with pytest.raises(SingularGram):
            gram_sum_rate(W[0], P_MAX, float("nan"))

    def test_exactly_singular_probe_gram(self):
        # no noise and a silent user: LAPACK rejects the inverse outright
        W = np.zeros((2, 2, 2), dtype=complex)
        W[:, 0, 0] = 1.0
        with pytest.raises(SingularGram):
            mmse_precoder(np.array([[1.0 + 0j], [0.0]]), np.ones(1), P_MAX, 0.0)
        with pytest.raises(SingularGram):
            gram_sum_rate(W, P_MAX, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308])
    @pytest.mark.parametrize("with_rhs", [True, False])
    def test_bad_entry_raises_without_numpy_warnings(self, n, bad, with_rhs):
        # a non-finite or overflowing entry turns the condition bound inf or
        # NaN; the verdict is the package's error alone, with no numpy warning
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A[-1, 0] = bad
        rhs, limit, error = ((rng.standard_normal((n, 1)) + 0j, COND_LIMIT, SingularSystem)
                             if with_rhs else (None, GRAM_COND_LIMIT, SingularGram))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                _certified_solve(A, rhs, limit, error, "system")

    def test_nan_in_aggregated_statistics(self):
        with pytest.raises(SingularAggregate):
            aggregate_gains([(np.full((2, 2), np.nan + 0j), np.ones(2, complex))], "auto")


# ---------------------------------------------------------------------------
# estimation side: frozen per-antenna copies of the unbatched code as oracles


def response_row_reference(phi, p_m, w_m, m, layout):
    phi = np.asarray(phi, dtype=float)
    k0 = 2.0 * np.pi / layout.lam
    ay_m = np.exp(-1j * k0 * layout.spacing_m * np.sin(phi) * m)
    if w_m.size == 0:
        return ay_m + 0j
    proj = np.cos(phi)[..., None] * p_m[:, 0] + np.sin(phi)[..., None] * p_m[:, 1]
    return ay_m - np.exp(-1j * k0 * proj) @ w_m


def weights_reference(p_m, m, layout, model):
    w_m, _ = mech_weights(build_block(p_m, layout.active_position(m), model))
    return w_m


def true_effective_reference(spec, placement, layout, model):
    h_active = active_channel_matrix(spec, layout)
    G = np.zeros((spec.K, layout.M), dtype=complex)
    for m in range(layout.M):
        p_m = placement.positions[m]
        G[:, m] = effective_column(spec, p_m, weights_reference(p_m, m, layout, model), m,
                                   h_active, layout.lam)
    return G.T


def simulate_rx_reference(session, spec, v, layout, model):
    G = true_effective_reference(spec, session.placements[v], layout, model)
    rng = np.random.default_rng([session.seed, 2, v])
    noise = np.sqrt(session.sigma2 / 2.0) * (
        rng.standard_normal((layout.M, session.tau))
        + 1j * rng.standard_normal((layout.M, session.tau)))
    return G @ session.S + noise


def local_dictionary_reference(session, m, grid, layout, model):
    A_m = np.zeros((session.V, grid.G), dtype=complex)
    for v in range(session.V):
        p_m = session.placements[v].positions[m]
        A_m[v] = response_row_reference(grid.angles, p_m,
                                        weights_reference(p_m, m, layout, model), m, layout)
    return A_m


def predict_reference(result, placement, layout, model):
    K, L = result.angles.shape
    out = np.zeros((layout.M, K), dtype=complex)
    for m in range(layout.M):
        p_m = placement.positions[m]
        b = response_row_reference(result.angles.reshape(-1), p_m,
                                   weights_reference(p_m, m, layout, model), m, layout)
        out[m] = np.sum(result.gains * b.reshape(K, L), axis=1)
    return out


def exhaustive_predict_reference(res, placement):
    M, N, D, K = res.table.shape
    out = np.zeros((M, K), dtype=complex)
    for m in range(M):
        acc = res.base[m].copy()
        for n in range(N):
            ok = res.feasible[m, n]
            if not np.any(ok):
                continue
            d2 = np.sum((res.candidates[m] - placement.positions[m, n]) ** 2, axis=1)
            acc = acc + (res.table[m, n, int(np.argmin(np.where(ok, d2, np.inf)))] - res.base[m])
        out[m] = acc
    return out


def nmse_reference(predict, spec, placements, layout, model):
    ratios = []
    for placement in placements:
        g_hat = predict(placement)
        g = true_effective_reference(spec, placement, layout, model)
        ratios.append(np.sum(np.abs(g_hat - g) ** 2, axis=0)
                      / np.sum(np.abs(g) ** 2, axis=0))
    return float(np.mean(ratios))


def estimation_setup(N, V, seed=0):
    lay = ArrayLayout(M=4, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(30 + N, K=2, L=3, layout=lay)
    session = make_session(lay, K=2, tau=4, V=V, sigma2=0.1, seed=40 + N + V)
    rng = np.random.default_rng(seed)
    result = EstimationResult(
        supports=np.zeros((2, 3), dtype=int),
        angles=rng.uniform(-np.pi / 2, np.pi / 2, (2, 3)),
        gains=rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    tests = [random_feasible_placement(lay, rng) for _ in range(5)]
    return lay, model, spec, session, result, tests


@pytest.mark.parametrize("V", [1, 4])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_pilot_phase_and_dictionaries_match_per_antenna_loops(N, V):
    lay, model, spec, session, _, _ = estimation_setup(N, V)
    obs = run_pilot_phase(session, spec, lay, model)
    assert len(obs) == V
    for v in range(V):
        ref = simulate_rx_reference(session, spec, v, lay, model)
        assert np.array_equal(obs[v], ref)
        assert np.array_equal(simulate_rx(session, spec, v, lay, model), ref)
    grid = AngularGrid(32)
    dictionary = build_dictionary(session, grid, lay, model)
    assert dictionary.shape == (V * lay.M, grid.G)
    assert local_dictionary(session, slice(None), grid, lay, model).shape == (V, lay.M, grid.G)
    for m in range(lay.M):
        A_m = local_dictionary(session, m, grid, lay, model)
        assert rel_err(A_m, local_dictionary_reference(session, m, grid, lay, model)) <= 4e-16
        assert rel_err(dictionary.reshape(V, lay.M, grid.G)[:, m], A_m) <= 4e-16


@pytest.mark.parametrize("V", [1, 4])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_reconstruction_and_nmse_match_per_placement_loops(N, V):
    lay, model, spec, session, result, tests = estimation_setup(N, V)
    exhaustive = exhaustive_baseline(session, spec, lay, model, D=16)
    P = stack([pl.positions for pl in tests])
    cases = [(result, lambda pl: predict_reference(result, pl, lay, model)),
             (exhaustive, lambda pl: exhaustive_predict_reference(exhaustive, pl))]
    for res, reference in cases:
        ref = stack([reference(pl) for pl in tests])
        assert rel_err(res.predict(P, lay, model), ref) <= 4e-16
        assert rel_err(res.predict(tests[0], lay, model), ref[0]) <= 4e-16
        assert rel_err(nmse(res, spec, tests, lay, model),
                       nmse_reference(reference, spec, tests, lay, model)) <= 4e-16
    ref = stack([true_effective_reference(spec, pl, lay, model) for pl in tests])
    assert rel_err(true_effective(spec, P, lay, model), ref) <= 4e-16
    assert rel_err(true_effective(spec, tests[0], lay, model), ref[0]) <= 4e-16


@pytest.mark.parametrize("N", [1, 2, 3])
def test_bad_test_placement_fails_the_batched_nmse(N):
    lay, model, spec, session, result, tests = estimation_setup(N, V=1)
    exhaustive = exhaustive_baseline(session, spec, lay, model, D=16)
    close = tests[2].copy()
    close.positions[1, N - 1] = lay.active_position(1) + [0.5 * lay.min_sep_m, 0.0]
    broken = tests[3].copy()
    broken.positions[2, 0, 1] = np.nan
    for res in (result, exhaustive):
        nmse(res, spec, tests, lay, model)
        with pytest.raises(TooClose):
            nmse(res, spec, tests[:2] + [close] + tests[3:], lay, model)
        with pytest.raises(FcError):
            nmse(res, spec, tests[:3] + [broken], lay, model)


# ---------------------------------------------------------------------------
# Algorithm 3: frozen copy of the per-LPU dictionary build as the oracle


def algorithm3_reference(session, observations, L, grid, layout, model, eta,
                         eps_k="auto"):
    """Algorithm 3 with every local unit calling ``local_dictionary`` for its
    own antenna and recomputing its column energies per user; returns the
    result fields, the ledger and the (round, antenna, kind, count, payload)
    records in exchange order."""
    M, K, V = layout.M, session.K, session.V
    A = [local_dictionary(session, m, grid, layout, model) for m in range(M)]
    corr = [np.stack([pilot_correlate(observations[v][m], session.S, session.tau)
                      for v in range(V)]) for m in range(M)]
    records = []
    supports = np.zeros((K, L), dtype=int)
    gains = np.zeros((K, L), dtype=complex)
    r = 0
    for k in range(K):
        r += 1
        rhos, uploads = [], []
        for m in range(M):
            rho, passed = local_proxy(A[m], corr[m][:, k], session.sigma_eff2, eta)
            kept = np.flatnonzero(passed)
            rhos.append(rho)
            uploads.append((kept, rho[kept]))
            records.append((r, m, "proxy_list", 2 * len(kept), uploads[m]))
        support, ok = fuse_and_select(uploads, L, grid.G)
        if not ok:
            r += 1
            uploads = []
            for m in range(M):
                records.append((r, m, "proxy_request", 1, L))
                idx = np.sort(np.lexsort((np.arange(grid.G), -rhos[m]))[:L])
                uploads.append((idx, rhos[m][idx]))
                records.append((r, m, "proxy_list", 2 * L, uploads[m]))
            support, _ = fuse_and_select(uploads, L, grid.G)
        supports[k] = support
        r += 1
        stats = []
        for m in range(M):
            records.append((r, m, "support", L, support))
            A_g = A[m][:, list(support)]
            stats.append((A_g.conj().T @ A_g, A_g.conj().T @ corr[m][:, k]))
            records.append((r, m, "suff_stats", 2 * (L * L + L), stats[m]))
        gains[k] = aggregate_gains(stats, eps_k)
        r += 1
        records += [(r, m, "gains", 2 * L, gains[k]) for m in range(M)]
    units = Counter()
    for _, _, kind, count, _ in records:
        units[kind] += count
    ledger = {
        "proxy_scalars": units["proxy_list"],
        "fallback_rounds": units["proxy_request"] // M,
        "support_scalars": units["support"],
        "suffstat_complex": units["suff_stats"] // 2,
        "suffstat_scalars": units["suff_stats"],
        "gain_scalars": units["gains"],
    }
    return supports, gains, ledger, records


def payload_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(payload_equal(x, y) for x, y in zip(a, b)))
    return np.array_equal(a, b)


def assert_records_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g[:4] == r[:4]
        assert payload_equal(g[4], r[4]), g[:4]


def algorithm3_setup(M, N, V, K=2, tau=5):
    lay = ArrayLayout(M=M, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(60 + N, K=K, L=3, layout=lay)
    session = make_session(lay, K=K, tau=tau, V=V, sigma2=0.05, seed=70 + M + N + V)
    return lay, model, session, run_pilot_phase(session, spec, lay, model)


# (M, N, V, eta) at K=2, L=3, tau=5 and G=32, or (M, N, V, eta, K, L, tau, G);
# eta = 1e12 starves the fusion, so every user takes the fallback round
ALGORITHM3_CASES = ([(4, N, V, 4.0) for N in (0, 1, 2, 3) for V in (1, 4)]
                    + [(8, 2, 4, 4.0), (4, 2, 4, 1e12)]
                    + [(8, 2, 4, 4.0, 2, 3, 13, 256),  # the acceptance-8 shape
                       (8, 2, 4, 1e12, 2, 3, 13, 256),
                       (4, 2, 4, 4.0, 2, 1, 5, 32),  # L = 1
                       (4, 2, 4, 1e12, 2, 1, 5, 32),
                       (4, 2, 4, 4.0, 2, 3, 2, 32),  # tau = K
                       (2, 2, 4, 4.0, 3, 3, 5, 32),  # K > M
                       (2, 2, 4, 1e12, 3, 3, 5, 32)])


def algorithm3_case(case):
    """(M, N, V, eta, K, L, tau, G) of an ``ALGORITHM3_CASES`` entry."""
    return case + (2, 3, 5, 32)[len(case) - 4:]


@pytest.mark.parametrize("case", ALGORITHM3_CASES, ids=lambda c: "-".join(map(str, c)))
def test_algorithm3_matches_per_lpu_dictionary_reference(case):
    M, N, V, eta, K, L, tau, G = algorithm3_case(case)
    lay, model, session, obs = algorithm3_setup(M, N, V, K, tau)
    grid = AngularGrid(G)
    supports, gains, ledger, records = algorithm3_reference(session, obs, L, grid, lay,
                                                            model, eta)
    assert (ledger["fallback_rounds"] > 0) == (eta == 1e12)
    direct = distributed_estimate(session, obs, L, grid, lay, model, eta=eta)
    routed, messages, _ = run_algorithm3(session, obs, L, grid, lay, model, eta=eta)
    rounds, got_records = _algorithm3_rounds(session, obs, L, grid, lay, model,
                                             eta, "auto")
    for res in (direct, routed, rounds):
        assert np.array_equal(res.supports, supports)
        assert np.array_equal(res.gains, gains)
        assert np.array_equal(res.angles, grid.angles[supports])
        assert res.ledger == ledger
    assert_records_equal(got_records, records)
    assert_records_equal([(msg.round, msg.antenna, msg.payload_kind, msg.scalar_count,
                           msg.payload) for msg in messages], records)


@pytest.mark.parametrize("case", ALGORITHM3_CASES, ids=lambda c: "-".join(map(str, c)))
def test_lpu_bank_matches_single_units(case):
    """One bank over all M antennas gives, unit by unit, the bits of M
    single-antenna LocalEstimators: correlations, proxies, fallback top-L
    and sufficient statistics.  The bank reads the cube as ``_algorithm3_rounds``
    does (a view) and as an index-array copy."""
    M, N, V, eta, K, L, tau, G = algorithm3_case(case)
    lay, model, session, obs = algorithm3_setup(M, N, V, K, tau)
    grid = AngularGrid(G)
    supports = [np.sort(np.random.default_rng(k).choice(G, L, replace=False))
                for k in range(K)]
    want = []
    for m in range(M):
        unit = LocalEstimator([m], session, local_dictionary(session, [m], grid, lay, model))
        unit.correlate([obs[v][[m]] for v in range(V)])
        want.append({"corr": unit.corr[0]})
        for k in range(K):
            want[m][k] = [unit.proxies([k], eta)[0][0], unit.top_proxies([k], L)[0][0]]
            unit.receive_support([k], supports[k][None])
            want[m][k].append(unit.suff_stats([k])[0])
    for cube in (slice(None), np.arange(M)):
        bank = LocalEstimator(np.arange(M), session,
                              local_dictionary(session, cube, grid, lay, model))
        bank.correlate(obs)
        assert all(np.array_equal(bank.corr[m], want[m]["corr"]) for m in range(M))
        for k in range(K):
            got = [[up[0] for up in bank.proxies([k], eta)],
                   [up[0] for up in bank.top_proxies([k], L)]]
            bank.receive_support([k], supports[k][None])
            got.append(bank.suff_stats([k]))
            for m in range(M):
                for name, g, w in zip(("proxies", "top", "stats"), got, want[m][k]):
                    assert payload_equal(g[m], w), (name, k, m)


# ---------------------------------------------------------------------------
# centralized estimation: frozen per-user loop as the oracle


def ls_on_columns_reference(y, cols):
    """One user's QR least squares on its selected columns."""
    Q, R = np.linalg.qr(cols)
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() < 1e-10 * max(diag.max(), 1e-300):
        raise RankDeficientSupport("selected columns are numerically dependent")
    x = np.linalg.solve(R, Q.conj().T @ y)
    return x, y - cols @ x


def omp_reference(y, A, L):
    """One user's OMP: exactly L selections, ties toward the lowest index,
    a least-squares refit per round; returns the support and the last
    refit's coefficients."""
    residual = y.astype(complex).copy()
    support, x = [], np.zeros(0, dtype=complex)
    for _ in range(L):
        corr = np.abs(A.conj().T @ residual)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        x, residual = ls_on_columns_reference(y, A[:, support])
    return support, x


def centralized_reference(session, observations, L, grid, layout, model):
    """The centralized estimator as a loop over users: each user's stacked
    observation, OMP and least-squares gains on its own."""
    corr_blocks = [pilot_correlate(Y, session.S, session.tau) for Y in observations]
    A = build_dictionary(session, grid, layout, model)
    supports = np.zeros((session.K, L), dtype=int)
    gains = np.zeros((session.K, L), dtype=complex)
    omp_gains = np.zeros((session.K, L), dtype=complex)
    for k in range(session.K):
        y_k = stack_observations(corr_blocks, k)
        supports[k], omp_gains[k] = omp_reference(y_k, A, L)
        gains[k] = ls_on_columns_reference(y_k, A[:, supports[k]])[0]
    return supports, gains, omp_gains


@pytest.mark.parametrize("case", ALGORITHM3_CASES, ids=lambda c: "-".join(map(str, c)))
def test_centralized_matches_per_user_reference(case):
    """One stacked OMP, whose last refit gives the gains, gives every user
    the bits of its own loop iteration, at every Algorithm 3 shape (K > M,
    L = 1 and tau = K included)."""
    M, N, V, _, K, L, tau, G = algorithm3_case(case)
    lay, model, session, obs = algorithm3_setup(M, N, V, K, tau)
    grid = AngularGrid(G)
    supports, gains, omp_gains = centralized_reference(session, obs, L, grid, lay, model)
    result = centralized_estimate(session, obs, L, grid, lay, model)
    assert np.array_equal(result.supports, supports)
    assert np.array_equal(result.gains, gains)
    assert np.array_equal(result.angles, grid.angles[supports])
    y = np.stack([stack_observations([pilot_correlate(Y, session.S, session.tau)
                                      for Y in obs], k) for k in range(K)])
    _, got = omp(y, build_dictionary(session, grid, lay, model), L)
    assert np.array_equal(got, omp_gains)


@pytest.mark.parametrize("case", ALGORITHM3_CASES, ids=lambda c: "-".join(map(str, c)))
def test_lpu_bank_user_batch_matches_single_users(case):
    """Asked for all users at once, the bank gives each user the bits of
    asking for that user alone: each unit's proxy upload is a list with one
    pair per user, and its statistics carry a leading user axis."""
    M, N, V, eta, K, L, tau, G = algorithm3_case(case)
    lay, model, session, obs = algorithm3_setup(M, N, V, K, tau)
    grid = AngularGrid(G)
    users = np.arange(K)
    supports = np.array([np.sort(np.random.default_rng(k).choice(G, L, replace=False))
                         for k in range(K)])
    one, batch = (LocalEstimator(np.arange(M), session,
                                 local_dictionary(session, slice(None), grid, lay, model))
                  for _ in range(2))
    one.correlate(obs)
    batch.correlate(obs)
    proxies = batch.proxies(users, eta)
    top = batch.top_proxies(users, L)
    batch.receive_support(users, supports)
    stats = batch.suff_stats(users)
    for k in range(K):
        want_proxies, want_top = one.proxies([k], eta), one.top_proxies([k], L)
        one.receive_support([k], supports[[k]])
        want_stats = one.suff_stats([k])
        for m in range(M):
            assert payload_equal(proxies[m][k], want_proxies[m][0])
            assert payload_equal(top[m][k], want_top[m][0])
            assert payload_equal((stats[m][0][[k]], stats[m][1][[k]]), want_stats[m])


def test_lpu_bank_guards_each_user():
    """A bank answers a fallback or statistics request only for a user whose
    earlier exchange it has run, for every antenna at once."""
    M = 4
    lay, model, session, obs = algorithm3_setup(M, 2, 4)
    grid = AngularGrid(32)
    bank = LocalEstimator(np.arange(M), session,
                          local_dictionary(session, slice(None), grid, lay, model))
    bank.correlate(obs)
    for k in range(session.K):
        with pytest.raises(InformationLeak):
            bank.top_proxies([k], 3)
        bank.proxies([k], 4.0)
        assert len(bank.top_proxies([k], 3)) == M
        with pytest.raises(InformationLeak):
            bank.suff_stats([k])
        bank.receive_support([k], np.array([[1, 5, 9]]))
        assert len(bank.suff_stats([k])) == M
        if k + 1 < session.K:
            with pytest.raises(InformationLeak):
                bank.top_proxies([k + 1], 3)
            with pytest.raises(InformationLeak):
                bank.suff_stats([k + 1])


@pytest.mark.parametrize("M, N, V", [(4, 1, 1), (4, 2, 4), (3, 3, 5), (8, 2, 4)])
def test_batched_local_dictionaries_are_per_antenna(M, N, V):
    """Moving antenna j's couplers in every block changes slice j of the
    batched cube and leaves every other LPU's slice bit for bit as it was."""
    lay, model, session, _ = algorithm3_setup(M, N, V)
    grid = AngularGrid(32)
    cube = local_dictionary(session, np.arange(M), grid, lay, model)
    for m in range(M):
        assert np.array_equal(cube[:, m], local_dictionary(session, m, grid, lay, model))
    rng = np.random.default_rng(M + N + V)
    for j in range(M):
        moved = []
        for pl in session.placements:
            pl = pl.copy()
            pl.positions[j] = random_feasible_placement(lay, rng).positions[j]
            assert is_feasible(pl, lay)
            moved.append(pl)
        perturbed = local_dictionary(replace(session, placements=moved), np.arange(M),
                                     grid, lay, model)
        for m in range(M):
            assert np.array_equal(perturbed[:, m], cube[:, m]) == (m != j)
