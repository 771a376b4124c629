import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcarray import chanest
from fcarray import (
    AngularGrid,
    ArrayLayout,
    DipoleModel,
    MultipathSpec,
    build_dictionary,
    centralized_estimate,
    distributed_estimate,
    exhaustive_baseline,
    fuse_and_select,
    local_proxy,
    make_pilots,
    make_session,
    nmse,
    omp,
    pilot_correlate,
    random_feasible_placement,
    run_pilot_phase,
    sample_channels,
    simulate_rx,
    uniform_placement,
)
from fcarray.chanest import (
    EstimationResult,
    LocalEstimator,
    local_dictionary,
    support_hit_rate,
    true_effective,
)
from fcarray.errors import (
    ConfigError,
    DimensionMismatch,
    FcError,
    InfeasibleLayout,
    RankDeficientSupport,
    TauTooShort,
    TooClose,
)
from fcarray.impedance import build_block
from fcarray.precoding import mech_weights
from fcarray.runtime import run_algorithm3

from chanest_reference import ls_gains, stack_observations


def on_grid_spec(grid, rng, K, L, min_bin_sep=3, sector_deg=90.0):
    """Multipath spec whose angles sit exactly on grid points, pairwise
    separated by at least min_bin_sep bins and restricted to |phi| within
    the given sector."""
    allowed = np.where(np.abs(np.degrees(grid.angles)) <= sector_deg + 1e-9)[0]
    angles = np.zeros((K, L))
    for k in range(K):
        while True:
            bins = np.sort(rng.choice(allowed, size=L, replace=False))
            if L == 1 or np.min(np.diff(bins)) >= min_bin_sep:
                break
        angles[k] = grid.angles[bins]
    gains = (rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L)))
    gains /= np.sqrt(2 * L)
    return MultipathSpec(angles=angles, gains=gains)


@pytest.fixture
def est_setup():
    layout = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(layout)
    return layout, model


class TestPilots:
    def test_square_case(self):
        S = make_pilots(4, 4, seed=0)
        assert np.allclose(S @ S.conj().T, 4 * np.eye(4), atol=1e-12)

    def test_rectangular_case(self):
        S = make_pilots(2, 13, seed=1)
        assert np.allclose(S @ S.conj().T, 13 * np.eye(2), atol=1e-12)

    def test_seed_changes_pilots(self):
        a = make_pilots(3, 16, seed=0)
        b = make_pilots(3, 16, seed=1)
        assert not np.allclose(a, b)
        assert np.allclose(b @ b.conj().T, 16 * np.eye(3), atol=1e-12)

    def test_tau_too_short(self):
        with pytest.raises(TauTooShort):
            make_pilots(5, 4, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda tau: st.tuples(st.integers(1, tau), st.just(tau))),
           st.integers(0, 2**32 - 1))
    def test_rows_are_orthogonal_for_every_shape(self, shape, seed):
        # the exhaustive baseline's direct draw of the correlated noise rests on
        # S S^H / tau = I; the entries of S S^H round to about 1e-12 near tau = 64
        K, tau = shape
        S = make_pilots(K, tau, seed)
        assert S.shape == (K, tau)
        assert np.max(np.abs(S @ S.conj().T / tau - np.eye(K))) <= 1e-12


class TestSimulateRx:
    def test_noiseless_identity(self, est_setup):
        layout, model = est_setup
        spec = sample_channels(1, K=1, L=3, layout=layout)
        session = make_session(layout, K=1, tau=8, V=2, sigma2=0.0, seed=5)
        Y = simulate_rx(session, spec, 0, layout, model)
        g = true_effective(spec, session.placements[0], layout, model)  # (M, K)
        assert np.allclose(Y, g @ session.S, atol=1e-12)

    def test_pure_noise_variance(self, est_setup):
        layout, model = est_setup
        spec = MultipathSpec(angles=np.zeros((1, 2)),
                             gains=np.zeros((1, 2), dtype=complex))
        sigma2 = 0.7
        samples = []
        for seed in range(40):
            session = make_session(layout, K=1, tau=64, V=1, sigma2=sigma2,
                                   seed=seed)
            samples.append(simulate_rx(session, spec, 0, layout, model).ravel())
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert var == pytest.approx(sigma2, rel=0.05)

    def test_composition_oracle(self, est_setup):
        layout, model = est_setup
        spec = sample_channels(2, K=3, L=5, layout=layout)
        session = make_session(layout, K=3, tau=8, V=3, sigma2=0.1, seed=9)
        v = 1
        Y = simulate_rx(session, spec, v, layout, model)
        g = true_effective(spec, session.placements[v], layout, model)
        noise = Y - g @ session.S
        # deterministic under the seed: regenerate and compare
        Y2 = simulate_rx(session, spec, v, layout, model)
        assert np.array_equal(Y, Y2)
        assert np.mean(np.abs(noise) ** 2) < 10 * session.sigma2


class TestPilotCorrelate:
    def test_noiseless_exact(self, est_setup):
        layout, model = est_setup
        spec = sample_channels(3, K=2, L=4, layout=layout)
        session = make_session(layout, K=2, tau=13, V=1, sigma2=0.0, seed=2)
        Y = simulate_rx(session, spec, 0, layout, model)
        G_hat = pilot_correlate(Y, session.S, session.tau)
        g = true_effective(spec, session.placements[0], layout, model)
        assert np.max(np.abs(G_hat - g)) < 1e-12

    def test_noise_variance_scales_inverse_tau(self, est_setup):
        layout, model = est_setup
        spec = MultipathSpec(angles=np.zeros((1, 1)),
                             gains=np.zeros((1, 1), dtype=complex))
        out = {}
        for tau in (8, 16):
            errs = []
            for seed in range(300):
                session = make_session(layout, K=1, tau=tau, V=1, sigma2=1.0,
                                       seed=seed)
                Y = simulate_rx(session, spec, 0, layout, model)
                errs.append(pilot_correlate(Y, session.S, tau).ravel())
            out[tau] = np.mean(np.abs(np.concatenate(errs)) ** 2)
        assert out[16] / out[8] == pytest.approx(0.5, rel=0.1)

    def test_single_user_matched_filter(self):
        S = make_pilots(1, 8, seed=0)
        y = 3.0j * S[0]
        assert pilot_correlate(y, S, 8)[0] == pytest.approx(3.0j, abs=1e-12)


class TestDictionary:
    @pytest.mark.parametrize("G", [1, 0, -3])
    def test_grid_rejects_fewer_than_two_points(self, G):
        with pytest.raises(ConfigError, match="at least 2 points"):
            AngularGrid(G)

    def test_no_couplers_reduces_to_active_steering(self):
        layout = ArrayLayout(M=3, N=0)
        model = DipoleModel.for_layout(layout)
        session = make_session(layout, K=1, tau=4, V=2, sigma2=0.0, seed=3)
        grid = AngularGrid(16)
        A = build_dictionary(session, grid, layout, model)
        from fcarray import steering_active
        for g in range(grid.G):
            col = A[:, g].reshape(session.V, layout.M)
            a_y = steering_active(grid.angles[g], layout)
            assert np.allclose(col, np.tile(a_y, (session.V, 1)), atol=1e-12)

    def test_on_grid_single_path_matches_column(self, est_setup):
        layout, model = est_setup
        grid = AngularGrid(64)
        rng = np.random.default_rng(4)
        spec = on_grid_spec(grid, rng, K=1, L=1)
        session = make_session(layout, K=1, tau=8, V=3, sigma2=0.0, seed=8)
        obs = run_pilot_phase(session, spec, layout, model)
        corr = [pilot_correlate(Y, session.S, session.tau) for Y in obs]
        y = stack_observations(corr, 0)
        A = build_dictionary(session, grid, layout, model)
        j = int(grid.nearest_index(spec.angles[0, 0]))
        assert np.allclose(y, spec.gains[0, 0] * A[:, j], atol=1e-10)

    def test_local_views_match_reindexing(self, est_setup):
        layout, model = est_setup
        session = make_session(layout, K=2, tau=8, V=3, sigma2=0.1, seed=6)
        grid = AngularGrid(32)
        A = build_dictionary(session, grid, layout, model)
        for m in range(layout.M):
            A_m = local_dictionary(session, m, grid, layout, model)
            for v in range(session.V):
                assert np.array_equal(A_m[v], A[v * layout.M + m])


def count_calls(monkeypatch, *names):
    """One list per named ``chanest`` function, filled with the arguments of
    every call made to it until the patch is undone."""
    logs = []
    for name in names:
        real, log = getattr(chanest, name), []
        monkeypatch.setattr(chanest, name,
                            lambda *args, real=real, log=log: log.append(args) or real(*args))
        logs.append(log)
    return logs


class TestDictionaryCache:
    """A session builds its (V, M, G) cube once; a change to anything the
    cube depends on (placements, grid, model) builds a new one."""

    def _session(self, layout):
        return make_session(layout, K=2, tau=4, V=3, sigma2=0.1, seed=9)

    def test_one_session_builds_once(self, est_setup, monkeypatch):
        layout, model = est_setup
        session = self._session(layout)
        obs = run_pilot_phase(session, sample_channels(2, K=2, L=3, layout=layout),
                              layout, model)
        cubes, builds = count_calls(monkeypatch, "response_row", "build_block")
        grid = AngularGrid(32)
        centralized_estimate(session, obs, 2, grid, layout, model)
        distributed_estimate(session, obs, 2, grid, layout, model)
        run_algorithm3(session, obs, 2, grid, layout, model)
        for m in range(layout.M):
            local_dictionary(session, m, grid, layout, model)
        assert len(cubes) == 1
        # the cube reads the weights the pilot phase solved at the session positions
        assert builds == []

    def test_moved_placement_rebuilds(self, est_setup):
        layout, model = est_setup
        session = self._session(layout)
        grid = AngularGrid(32)
        M = np.arange(layout.M)
        before = local_dictionary(session, M, grid, layout, model)
        rng = np.random.default_rng(1)
        session.placements[1].positions[2] = random_feasible_placement(layout, rng).positions[2]
        after = local_dictionary(session, M, grid, layout, model)
        assert np.array_equal(after, local_dictionary(replace(session), M, grid, layout, model))
        assert not np.array_equal(after[1, 2], before[1, 2])
        assert np.array_equal(np.delete(after, 2, axis=1), np.delete(before, 2, axis=1))

    def test_grid_and_model_get_their_own_cube(self, est_setup):
        layout, model = est_setup
        session = self._session(layout)
        grid = AngularGrid(32)
        other_model = DipoleModel.for_layout(layout, load_impedance=1.0 + 20.0j)
        base = local_dictionary(session, 0, grid, layout, model)
        for g, mdl in ((AngularGrid(16), model), (grid, other_model)):
            got = local_dictionary(session, 0, g, layout, mdl)
            assert np.array_equal(got, local_dictionary(replace(session), 0, g, layout, mdl))
            assert not np.array_equal(got, base)
        assert np.array_equal(local_dictionary(session, 0, grid, layout, model), base)

    def test_returned_slices_are_read_only(self, est_setup):
        layout, model = est_setup
        session = self._session(layout)
        grid = AngularGrid(32)
        for out in (local_dictionary(session, 1, grid, layout, model),
                    local_dictionary(session, np.arange(layout.M), grid, layout, model),
                    build_dictionary(session, grid, layout, model)):
            with pytest.raises(ValueError):
                out[0, 0] = 0.0


class TestWeightsSlot:
    """``_weights`` keeps its last solve in one read-only slot keyed on the
    layout, model, shape and position bytes."""

    def _positions(self, layout, T=2, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([random_feasible_placement(layout, rng).positions
                         for _ in range(T)])

    def test_estimation_trial_solves_each_position_set_once(self, monkeypatch):
        # the acceptance-8 trial: pilot phase, three estimators, two NMSEs
        layout = ArrayLayout(M=8, N=2)
        model = DipoleModel.for_layout(layout)
        spec = sample_channels(11, K=2, L=3, layout=layout)
        session = make_session(layout, K=2, tau=13, V=4, sigma2=1.0, seed=12)
        rng = np.random.default_rng(13)
        tests = [random_feasible_placement(layout, rng) for _ in range(10)]
        grid = AngularGrid(256)
        builds, solves = count_calls(monkeypatch, "build_block", "mech_weights")
        obs = run_pilot_phase(session, spec, layout, model)
        cen = centralized_estimate(session, obs, 3, grid, layout, model)
        dist = distributed_estimate(session, obs, 3, grid, layout, model)
        run_algorithm3(session, obs, 3, grid, layout, model)
        nmse(cen, spec, tests, layout, model)
        nmse(dist, spec, tests, layout, model)
        assert len(builds) == len(solves) == 2  # session and test positions

    def test_weights_are_read_only_and_reused(self, est_setup, monkeypatch):
        layout, model = est_setup
        P = self._positions(layout)
        w = chanest._weights(P, layout, model)
        builds, = count_calls(monkeypatch, "build_block")
        assert chanest._weights(P.copy(), layout, model) is w
        assert builds == []
        with pytest.raises(ValueError):
            w[0, 0, 0] = 0.0

    def test_any_changed_key_field_solves_again(self, est_setup, monkeypatch):
        layout, model = est_setup
        P = self._positions(layout)
        moved = P.copy()
        moved[1, 2, 0] = self._positions(layout, T=1, seed=1)[0, 2, 0]
        queries = [
            (moved, layout, model),
            (P, replace(layout, d_min=0.9 * layout.d_min), model),
            (P, layout, DipoleModel.for_layout(layout, load_impedance=1.0 + 20.0j)),
            (P.reshape((1,) + P.shape), layout, model),
        ]
        for Q, lay, mdl in queries:
            chanest._weights(P, layout, model)
            builds, = count_calls(monkeypatch, "build_block")
            w = chanest._weights(Q, lay, mdl)
            assert len(builds) == 1
            monkeypatch.undo()
            fresh = mech_weights(build_block(Q, lay.active_positions(), mdl))[0]
            assert w.shape == Q.shape[:-1]
            assert np.array_equal(w, fresh)

    def test_failed_solve_is_not_kept(self, est_setup):
        layout, model = est_setup
        P = self._positions(layout)
        close = P.copy()
        close[0, 1, 0] = layout.active_position(1) + [0.5 * layout.min_sep_m, 0.0]
        for _ in range(2):
            with pytest.raises(TooClose):
                chanest._weights(close, layout, model)


class TestTruthSlot:
    """``nmse`` keeps its last ground truth in one read-only slot keyed on the
    spec's angle and gain bytes, the layout, model and position bytes."""

    def _inputs(self, layout, T=3, seed=0):
        rng = np.random.default_rng(seed)
        spec = sample_channels(seed + 5, K=2, L=3, layout=layout)
        return spec, [random_feasible_placement(layout, rng) for _ in range(T)]

    def test_estimation_trial_builds_the_truth_once(self, monkeypatch):
        # the acceptance-8 trial: pilot phase, two estimators, two NMSEs
        layout = ArrayLayout(M=8, N=2)
        model = DipoleModel.for_layout(layout)
        spec = sample_channels(11, K=2, L=3, layout=layout)
        session = make_session(layout, K=2, tau=13, V=4, sigma2=1.0, seed=12)
        rng = np.random.default_rng(13)
        tests = [random_feasible_placement(layout, rng) for _ in range(10)]
        grid = AngularGrid(256)
        monkeypatch.delitem(chanest._slots, "truth", raising=False)  # as in a fresh process
        truths, = count_calls(monkeypatch, "true_effective")
        obs = run_pilot_phase(session, spec, layout, model)
        cen = centralized_estimate(session, obs, 3, grid, layout, model)
        dist = distributed_estimate(session, obs, 3, grid, layout, model)
        scores = [nmse(res, spec, tests, layout, model) for res in (cen, dist)]
        at_tests = [args for args in truths if np.shape(args[1]) == (10, 8, 2, 2)]
        assert len(at_tests) == 1
        monkeypatch.delitem(chanest._slots, "truth")
        assert scores[1] == nmse(dist, spec, tests, layout, model)

    def test_truth_is_read_only_and_reused(self, est_setup, monkeypatch):
        layout, model = est_setup
        spec, tests = self._inputs(layout)
        P = np.stack([pl.positions for pl in tests])
        g = chanest._truth(spec, P, layout, model)
        truths, = count_calls(monkeypatch, "true_effective")
        assert chanest._truth(spec, P.copy(), layout, model) is g
        assert truths == []
        assert chanest._slots["truth"][1] is g
        with pytest.raises(ValueError):
            g[0, 0, 0] = 0.0

    def test_any_changed_key_field_builds_again(self, est_setup, monkeypatch):
        layout, model = est_setup
        spec, tests = self._inputs(layout)
        P = np.stack([pl.positions for pl in tests])
        moved = P.copy()
        moved[1, 2] = random_feasible_placement(layout, np.random.default_rng(7)).positions[2]
        angles = spec.angles.copy()
        angles[0, 0] *= 0.5
        queries = [
            (spec, moved, layout, model),
            (MultipathSpec(angles, spec.gains), P, layout, model),
            (MultipathSpec(spec.angles, 2.0 * spec.gains), P, layout, model),
            (spec, P, replace(layout, f_c=1.01 * layout.f_c), model),
            (spec, P, layout, DipoleModel.for_layout(layout, load_impedance=1.0 + 20.0j)),
            (spec, P.reshape((1,) + P.shape), layout, model),
        ]
        for sp, Q, lay, mdl in queries:
            chanest._truth(spec, P, layout, model)
            truths, = count_calls(monkeypatch, "true_effective")
            g = chanest._truth(sp, Q, lay, mdl)
            assert len(truths) == 1
            monkeypatch.undo()
            assert g.shape == Q.shape[:-2] + (spec.K,)
            assert np.array_equal(g, true_effective(sp, Q, lay, mdl))


def omp_row(y, A, L):
    """``omp`` on one row y (n,), a batch of one, as lists."""
    support, gains = omp(y[None], A, L)
    return support[0].tolist(), gains[0].tolist()


class TestOMP:
    def test_single_column(self, rng):
        A = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
        y = A[:, 11].copy()
        support, gains = omp_row(y, A, 1)
        assert support == [11]
        assert np.linalg.norm(y - A[:, support] @ gains) < 1e-10

    def test_two_paths_vs_brute_force(self, rng):
        # well-separated columns; oracle enumerates all pairs with LS fits
        G = 64
        A = rng.standard_normal((24, G)) + 1j * rng.standard_normal((24, G))
        A /= np.linalg.norm(A, axis=0)
        y = 1.3 * A[:, 5] + (0.8 - 0.6j) * A[:, 40]
        support, _ = omp_row(y, A, 2)
        best_pair, best_res = None, np.inf
        for pair in itertools.combinations(range(G), 2):
            cols = A[:, list(pair)]
            x, *_ = np.linalg.lstsq(cols, y, rcond=None)
            r = np.linalg.norm(y - cols @ x)
            if r < best_res:
                best_res, best_pair = r, pair
        assert set(support) == set(best_pair)

    def test_empty_selection(self, rng):
        A = rng.standard_normal((8, 16)).astype(complex)
        y = rng.standard_normal(8).astype(complex)
        support, gains = omp_row(y, A, 0)
        assert support == [] and gains == []

    def test_residuals_nonincreasing(self, rng):
        # the greedy picks at l selections are a prefix of those at L, so the
        # residual of each l's gains is the residual after round l
        A = rng.standard_normal((20, 50)) + 1j * rng.standard_normal((20, 50))
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        support, _ = omp_row(y, A, 8)
        hist = [np.linalg.norm(y)]
        for l in range(1, 9):
            prefix, gains = omp_row(y, A, l)
            assert prefix == support[:l]
            hist.append(np.linalg.norm(y - A[:, prefix] @ gains))
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_exact_recovery(self, rng):
        A = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
        y = (2.0 + 3.0j) * A[:, 7]
        support, gains = omp_row(y, A, 1)
        assert support == [7]
        assert gains[0] == pytest.approx(2.0 + 3.0j, abs=1e-10)

    def test_gains_match_the_qr_oracle(self, rng):
        A = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        support, gains = omp_row(y, A, 3)
        ref, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        assert np.allclose(gains, ref, atol=1e-10)
        # LS residual orthogonal to the selected columns
        resid = y - A[:, support] @ np.array(gains)
        assert np.linalg.norm(A[:, support].conj().T @ resid) < 1e-10 * np.linalg.norm(y)

    def test_rank_deficient_support(self):
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        c2 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        A = np.column_stack([c1, c2, c1 + c2])  # only 3 columns, dependent set
        y = c1 + 2 * c2
        with pytest.raises(RankDeficientSupport):
            omp_row(y, A, 3)

    def test_more_selections_than_atoms(self, rng):
        A = rng.standard_normal((8, 4)).astype(complex)
        y = rng.standard_normal(8).astype(complex)
        with pytest.raises(DimensionMismatch, match="L=5 exceeds the dictionary size 4"):
            omp_row(y, A, 5)

    def test_more_selections_than_samples(self, rng):
        # the fifth column of a 4-sample fit is dependent on the first four
        A = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        with pytest.raises(RankDeficientSupport, match="5 columns on 4 samples"):
            omp_row(y, A, 5)


class TestStackedOMP:
    """Rows y (K, n) sharing a dictionary run as one OMP: each row's support
    and gains are the bits of its own call, and the gains those of the
    least squares on the support."""

    @staticmethod
    def _per_row(Y, A, L):
        runs = [omp_row(y, A, L) for y in Y]
        return (np.array([s for s, _ in runs], dtype=int),
                np.array([g for _, g in runs], dtype=complex).reshape(len(Y), L))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_row_calls(self, seed):
        rng = np.random.default_rng(seed)
        K, n, G = int(rng.integers(1, 6)), int(rng.integers(8, 40)), int(rng.integers(8, 300))
        L = int(rng.integers(1, min(n, G, 9) + 1))
        A = rng.standard_normal((n, G)) + 1j * rng.standard_normal((n, G))
        Y = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
        support, gains = omp(Y, A, L)
        want_support, want_gains = self._per_row(Y, A, L)
        assert support.shape == (K, L) and gains.shape == (K, L)
        assert np.array_equal(support, want_support)
        assert np.array_equal(gains, want_gains)
        assert np.array_equal(gains, ls_gains(Y, A, support))

    def test_exact_ties_break_toward_lowest_index(self):
        A = np.eye(6, 8, dtype=complex)
        Y = np.array([[1, 1, 1, 1, 1, 1], [0, 2, 0, 2j, 0, -2]], dtype=complex)
        support, gains = omp(Y, A, 3)
        assert support.tolist() == [[0, 1, 2], [1, 3, 5]]
        want_support, want_gains = self._per_row(Y, A, 3)
        assert np.array_equal(support, want_support)
        assert np.array_equal(gains, want_gains)

    def test_one_dependent_row_raises(self):
        e = np.eye(4, dtype=complex)
        A = np.column_stack([e[0], e[1], e[2], (e[0] + e[1]) / np.sqrt(2)])
        Y = np.array([e[0] + e[1], e[2] + 0.5 * e[0]])
        assert omp_row(Y[1], A, 3)[0] == [2, 0, 1]
        with pytest.raises(RankDeficientSupport):
            omp_row(Y[0], A, 3)
        with pytest.raises(RankDeficientSupport):
            omp(Y, A, 3)

    def test_zero_selections(self, rng):
        A = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        Y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        support, gains = omp(Y, A, 0)
        assert support.shape == (3, 0)
        assert gains.shape == (3, 0) and gains.dtype == complex

    def test_more_selections_than_atoms(self, rng):
        A = rng.standard_normal((8, 4)).astype(complex)
        Y = rng.standard_normal((2, 8)).astype(complex)
        with pytest.raises(DimensionMismatch, match="L=5 exceeds the dictionary size 4"):
            omp(Y, A, 5)

    def test_ls_gains_matches_per_row_calls(self, rng):
        A = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
        Y = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
        supports = np.array([rng.choice(40, 5, replace=False) for _ in range(4)])
        gains = ls_gains(Y, A, supports)
        assert np.array_equal(gains, [ls_gains(y[None], A, s[None])[0]
                                      for y, s in zip(Y, supports)])
        assert ls_gains(Y, A, np.zeros((4, 0), dtype=int)).shape == (4, 0)


class TestOnePass:
    """Every user of a call runs in one pass: no estimator loops over users
    around OMP, least squares or the local units."""

    def _inputs(self, layout, model):
        session = make_session(layout, K=3, tau=5, V=3, sigma2=0.1, seed=4)
        spec = sample_channels(5, K=3, L=3, layout=layout)
        return session, run_pilot_phase(session, spec, layout, model)

    def test_centralized_makes_one_omp_call_and_one_ls_per_round(self, est_setup, monkeypatch):
        # one least-squares refit per OMP round, the last one giving the gains
        layout, model = est_setup
        session, obs = self._inputs(layout, model)
        omps, solves = count_calls(monkeypatch, "omp", "_ls_on_columns")
        L = 3
        centralized_estimate(session, obs, L, AngularGrid(32), layout, model)
        assert len(omps) == 1 and len(solves) == L
        assert omps[0][0].shape == (session.K, session.V * layout.M)

    def test_algorithm3_makes_one_proxy_and_one_gains_call(self, est_setup, monkeypatch):
        layout, model = est_setup
        session, obs = self._inputs(layout, model)
        grid = AngularGrid(32)
        proxies, solves = count_calls(monkeypatch, "local_proxy", "aggregate_gains")
        result = distributed_estimate(session, obs, 3, grid, layout, model)
        assert result.ledger["fallback_rounds"] == 0
        assert len(proxies) == 1 and len(solves) == 1
        run_algorithm3(session, obs, 3, grid, layout, model)
        assert len(proxies) == 2 and len(solves) == 2


class TestLsGains:
    """The tests' least-squares reference on fixed supports."""

    def test_exact_recovery(self, rng):
        A = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
        y = (2.0 + 3.0j) * A[:, 7]
        gains, = ls_gains(y[None], A, [[7]])
        assert gains[0] == pytest.approx(2.0 + 3.0j, abs=1e-10)

    def test_orthogonal_rhs(self):
        A = np.eye(6, dtype=complex)
        y = np.zeros(6, dtype=complex)
        y[5] = 1.0
        gains, = ls_gains(y[None], A, [[0, 1]])
        assert np.allclose(gains, 0.0)

    def test_qr_oracle(self, rng):
        A = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        sup = [2, 5, 9]
        gains, = ls_gains(y[None], A, [sup])
        ref, *_ = np.linalg.lstsq(A[:, sup], y, rcond=None)
        assert np.allclose(gains, ref, atol=1e-10)
        # LS residual orthogonal to the selected columns
        resid = y - A[:, sup] @ gains
        assert np.linalg.norm(A[:, sup].conj().T @ resid) < 1e-10 * np.linalg.norm(y)


class TestCentralized:
    # Exact-recovery regime: alias-free element spacing (d_y < 0.5), a grid
    # commensurate with the aperture and angles away from the endfire blur.
    RECOVERY = dict(d_y=0.45, G=14, N=6, sector_deg=50.0)

    def test_noiseless_exact_recovery(self):
        p = self.RECOVERY
        layout = ArrayLayout(M=8, N=p["N"], d_y=p["d_y"])
        model = DipoleModel.for_layout(layout)
        grid = AngularGrid(p["G"])
        rng = np.random.default_rng(17)
        spec = on_grid_spec(grid, rng, K=2, L=3, sector_deg=p["sector_deg"])
        session = make_session(layout, K=2, tau=13, V=4, sigma2=0.0, seed=21)
        obs = run_pilot_phase(session, spec, layout, model)
        result = centralized_estimate(session, obs, 3, grid, layout, model)
        for k in range(2):
            true_bins = set(grid.nearest_index(spec.angles[k]).tolist())
            assert set(result.supports[k].tolist()) == true_bins
            # align gains by bin and compare
            err = 0.0
            for ell, j in enumerate(result.supports[k]):
                truth = spec.gains[k][grid.nearest_index(spec.angles[k]) == j]
                err += abs(result.gains[k, ell] - truth[0]) ** 2
            assert err / np.sum(np.abs(spec.gains[k]) ** 2) < 1e-10

    def test_ledger(self, est_setup):
        layout, model = est_setup
        spec = sample_channels(5, K=2, L=3, layout=layout)
        session = make_session(layout, K=2, tau=13, V=4, sigma2=0.1, seed=3)
        obs = run_pilot_phase(session, spec, layout, model)
        result = centralized_estimate(session, obs, 3, AngularGrid(64),
                                      layout, model)
        assert result.ledger["pilot_uplink_complex"] == layout.M * 4 * 13

    @pytest.mark.slow
    def test_more_blocks_help(self, est_setup):
        layout = ArrayLayout(M=8, N=2)
        model = DipoleModel.for_layout(layout)
        grid = AngularGrid(128)
        res = {1: [], 4: []}
        for V in (1, 4):
            for seed in range(60):
                spec = sample_channels(1000 + seed, K=1, L=3, layout=layout)
                session = make_session(layout, K=1, tau=13, V=V, sigma2=1.0,
                                       seed=seed)
                obs = run_pilot_phase(session, spec, layout, model)
                result = centralized_estimate(session, obs, 3, grid, layout,
                                              model)
                rng = np.random.default_rng(2000 + seed)
                placements = [random_feasible_placement(layout, rng)
                              for _ in range(5)]
                res[V].append(nmse(result, spec, placements, layout, model))
        assert np.mean(res[4]) < np.mean(res[1])

    def test_fig7_configuration_runs(self):
        layout = ArrayLayout(M=8, N=2)
        model = DipoleModel.for_layout(layout)
        spec = sample_channels(3, K=2, L=3, layout=layout)
        session = make_session(layout, K=2, tau=13, V=4, sigma2=0.1, seed=4)
        obs = run_pilot_phase(session, spec, layout, model)
        result = centralized_estimate(session, obs, 3, AngularGrid(256),
                                      layout, model)
        assert result.supports.shape == (2, 3)
        assert np.all(result.supports >= 0) and np.all(result.supports < 256)


class TestLocalProxy:
    def test_zero_observation(self, rng):
        A = rng.standard_normal((4, 16)).astype(complex)
        rho, passed = local_proxy(A, np.zeros(4, dtype=complex), 0.1, eta=4.0)
        kept = np.flatnonzero(passed)
        assert kept.size == 0
        assert np.allclose(rho, 0.0)

    def test_zero_threshold_keeps_all(self, rng):
        A = rng.standard_normal((4, 16)).astype(complex)
        y = rng.standard_normal(4).astype(complex)
        rho, passed = local_proxy(A, y, 0.1, eta=0.0)
        kept = np.flatnonzero(passed)
        assert kept.size == 16

    def test_argmax_matches_single_path(self, est_setup):
        layout, model = est_setup
        grid = AngularGrid(128)
        rng = np.random.default_rng(5)
        spec = on_grid_spec(grid, rng, K=1, L=1)
        session = make_session(layout, K=1, tau=8, V=4, sigma2=0.0, seed=6)
        obs = run_pilot_phase(session, spec, layout, model)
        est = LocalEstimator([0], session, local_dictionary(session, [0], grid, layout, model))
        est.correlate([obs[v][[0]] for v in range(4)])
        rho, _ = local_proxy(est.A_m, est.observation([0]), 1e-12, eta=0.0)
        assert int(np.argmax(rho)) == int(grid.nearest_index(spec.angles[0, 0]))


class TestFusion:
    def test_single_antenna(self):
        idx = np.array([3, 7, 9])
        rho = np.array([0.5, 2.0, 1.0])
        support, ok = fuse_and_select([(idx, rho)], 2, G=16)
        assert ok
        assert support.tolist() == [7, 9]

    def test_identical_uploads_scale_invariant(self):
        idx = np.array([3, 7, 9])
        rho = np.array([0.5, 2.0, 1.0])
        s1, _ = fuse_and_select([(idx, rho)], 2, G=16)
        s4, _ = fuse_and_select([(idx, rho)] * 4, 2, G=16)
        assert np.array_equal(s1, s4)

    def test_subset_enumeration_oracle(self, rng):
        G, L, M = 32, 2, 3
        uploads = []
        for _ in range(M):
            idx = np.sort(rng.choice(G, size=6, replace=False))
            uploads.append((idx, rng.uniform(0.1, 3.0, size=6)))
        support, _ = fuse_and_select(uploads, L, G)
        scores = np.zeros(G)
        for idx, rho in uploads:
            scores[idx] += rho
        best = max(itertools.combinations(range(G), L),
                   key=lambda s: sum(scores[list(s)]))
        assert set(support.tolist()) == set(best)

    def test_tie_breaks_lowest_index(self):
        support, ok = fuse_and_select([(np.array([4, 2]), np.array([1.0, 1.0]))],
                                      1, G=8)
        assert support.tolist() == [2]

    def test_starved_fusion_flags_fallback(self):
        support, ok = fuse_and_select([(np.array([], dtype=int), np.array([]))],
                                      2, G=8)
        assert not ok


class TestDistributed:
    def _run(self, layout, model, sigma2, seed, eps_k="auto", grid_size=128,
             eta=4.0):
        grid = AngularGrid(grid_size)
        spec = sample_channels(300 + seed, K=2, L=3, layout=layout)
        session = make_session(layout, K=2, tau=13, V=4, sigma2=sigma2,
                               seed=seed)
        obs = run_pilot_phase(session, spec, layout, model)
        result = distributed_estimate(session, obs, 3, grid, layout, model,
                                      eta=eta, eps_k=eps_k)
        return spec, session, obs, grid, result

    def test_gram_additivity_equals_centralized_ls(self, est_setup):
        # equal supports, no loading: distributed gains == stacked LS
        layout, model = est_setup
        for seed in range(20):
            spec, session, obs, grid, result = self._run(layout, model, 0.05,
                                                         seed, eps_k=0.0)
            A = build_dictionary(session, grid, layout, model)
            corr = [pilot_correlate(Y, session.S, session.tau) for Y in obs]
            for k in range(2):
                y_k = stack_observations(corr, k)
                ref, = ls_gains(y_k[None], A, result.supports[[k]])
                assert np.allclose(result.gains[k], ref, atol=1e-10)

    def test_single_antenna_local_ls(self):
        layout = ArrayLayout(M=1, N=2)
        model = DipoleModel.for_layout(layout)
        spec, session, obs, grid, result = self._run(layout, model, 0.01, 3,
                                                     eps_k=0.0)
        est = LocalEstimator([0], session, local_dictionary(session, [0], grid, layout, model))
        est.correlate([obs[v][[0]] for v in range(session.V)])
        for k in range(2):
            ref, = ls_gains(est.observation([k])[0], est.A_m[0], result.supports[[k]])
            assert np.allclose(result.gains[k], ref, atol=1e-10)

    def test_suffstat_ledger_arithmetic(self, est_setup):
        layout, model = est_setup
        spec, session, obs, grid, result = self._run(layout, model, 0.1, 7)
        # M=4, K=2, L=3 -> 4*2*(9+3) = 96 complex
        assert result.ledger["suffstat_complex"] == 96
        assert result.ledger["suffstat_scalars"] == 192

    def test_fallback_on_huge_threshold(self, est_setup):
        layout, model = est_setup
        spec, session, obs, grid, result = self._run(layout, model, 0.1, 8,
                                                     eta=1e12)
        assert result.ledger["fallback_rounds"] >= 1
        assert result.supports.shape == (2, 3)


class TestReconstructAndNmse:
    def test_ground_truth_injection(self, est_setup):
        layout, model = est_setup
        grid = AngularGrid(512)
        rng = np.random.default_rng(11)
        spec = on_grid_spec(grid, rng, K=2, L=3)
        result = EstimationResult(
            supports=grid.nearest_index(spec.angles),
            angles=spec.angles.copy(),
            gains=spec.gains.copy(),
        )
        for i in range(20):
            pl = random_feasible_placement(layout, rng)
            g_hat = result.predict(pl, layout, model)
            g = true_effective(spec, pl, layout, model)
            assert np.max(np.abs(g_hat - g)) < 1e-10

    def test_zero_gains(self, est_setup):
        layout, model = est_setup
        result = EstimationResult(
            supports=np.zeros((1, 2), dtype=int),
            angles=np.zeros((1, 2)), gains=np.zeros((1, 2), dtype=complex))
        pl = uniform_placement(layout)
        assert np.allclose(result.predict(pl, layout, model), 0.0)

    def test_training_block_replay(self, est_setup):
        layout, model = est_setup
        grid = AngularGrid(512)
        rng = np.random.default_rng(13)
        spec = on_grid_spec(grid, rng, K=1, L=2)
        session = make_session(layout, K=1, tau=8, V=2, sigma2=0.0, seed=14)
        result = EstimationResult(
            supports=grid.nearest_index(spec.angles),
            angles=spec.angles.copy(), gains=spec.gains.copy())
        for v in range(2):
            pl = session.placements[v]
            g_hat = result.predict(pl, layout, model)
            g = true_effective(spec, pl, layout, model)
            assert np.max(np.abs(g_hat - g)) < 1e-10

    def test_nmse_perfect_zero_and_normalization(self, est_setup):
        layout, model = est_setup
        grid = AngularGrid(64)
        rng = np.random.default_rng(15)
        spec = on_grid_spec(grid, rng, K=1, L=2)
        exact = EstimationResult(
            supports=grid.nearest_index(spec.angles),
            angles=spec.angles.copy(), gains=spec.gains.copy())
        placements = [random_feasible_placement(layout, rng) for _ in range(3)]
        assert nmse(exact, spec, placements, layout, model) < 1e-20
        zero = EstimationResult(
            supports=exact.supports, angles=exact.angles,
            gains=np.zeros_like(exact.gains))
        assert nmse(zero, spec, placements, layout, model) == pytest.approx(1.0)
        double = EstimationResult(
            supports=exact.supports, angles=exact.angles,
            gains=2.0 * spec.gains)
        assert nmse(double, spec, placements, layout, model) == pytest.approx(1.0)

    def test_nmse_rejects_empty(self, est_setup):
        layout, model = est_setup
        result = EstimationResult(
            supports=np.zeros((1, 1), dtype=int),
            angles=np.zeros((1, 1)), gains=np.ones((1, 1), dtype=complex))
        spec = MultipathSpec(angles=np.zeros((1, 1)), gains=np.ones((1, 1)))
        with pytest.raises(DimensionMismatch):
            nmse(result, spec, [], layout, model)

    def test_nmse_zero_channel_error(self, est_setup):
        from fcarray.errors import ZeroChannel
        layout, model = est_setup
        result = EstimationResult(
            supports=np.zeros((1, 1), dtype=int),
            angles=np.zeros((1, 1)), gains=np.ones((1, 1), dtype=complex))
        dead = MultipathSpec(angles=np.zeros((1, 1)),
                             gains=np.zeros((1, 1), dtype=complex))
        with pytest.raises(ZeroChannel):
            nmse(result, dead, [uniform_placement(layout)], layout, model)

    def test_support_hit_rate(self, est_setup):
        layout, model = est_setup
        grid = AngularGrid(64)
        rng = np.random.default_rng(16)
        spec = on_grid_spec(grid, rng, K=1, L=2)
        exact = EstimationResult(
            supports=grid.nearest_index(spec.angles),
            angles=spec.angles, gains=spec.gains)
        assert support_hit_rate(exact, spec, grid) == 1.0


class TestExhaustive:
    def test_lookup_hit_noiseless(self):
        layout = ArrayLayout(M=2, N=1)
        model = DipoleModel.for_layout(layout)
        spec = sample_channels(1, K=1, L=4, layout=layout)
        session = make_session(layout, K=1, tau=8, V=1, sigma2=0.0, seed=1)
        result = exhaustive_baseline(session, spec, layout, model, D=25)
        # query exactly at a feasible candidate: exact lookup for N = 1
        m, n = 0, 0
        d_idx = int(np.where(result.feasible[m, n])[0][0])
        pl = result.parked.copy()
        pl.positions[m, n] = result.candidates[m, d_idx]
        g_hat = result.predict(pl, layout, model)
        g = true_effective(spec, pl, layout, model)
        assert abs(g_hat[m, 0] - g[m, 0]) < 1e-12

    def test_degenerate_single_candidate(self):
        layout = ArrayLayout(M=1, N=1)
        model = DipoleModel.for_layout(layout)
        spec = sample_channels(2, K=1, L=4, layout=layout)
        session = make_session(layout, K=1, tau=8, V=1, sigma2=0.0, seed=2)
        result = exhaustive_baseline(session, spec, layout, model, D=1)
        # the lone center candidate is infeasible; prediction falls back to
        # the constant parked measurement
        rng = np.random.default_rng(3)
        pls = [random_feasible_placement(layout, rng) for _ in range(4)]
        preds = [result.predict(p, layout, model) for p in pls]
        for p in preds[1:]:
            assert np.array_equal(p, preds[0])
        assert nmse(result, spec, pls, layout, model) > 1e-3

    def test_measurement_ledger(self):
        layout = ArrayLayout(M=4, N=2)
        model = DipoleModel.for_layout(layout)
        spec = sample_channels(4, K=1, L=3, layout=layout)
        session = make_session(layout, K=1, tau=4, V=1, sigma2=0.1, seed=4)
        result = exhaustive_baseline(session, spec, layout, model, D=400)
        assert result.ledger["candidate_measurements_per_user_per_block"] == 3200


def test_sampler_failure_is_fc_error():
    # nine cells of 0.1033 wavelengths, each with a diagonal under d_min =
    # 0.15, hold at most one point each: the active element and nine couplers
    # (ten points) can never be drawn
    lay = ArrayLayout(M=1, N=9, region_side=0.31)
    with pytest.raises(InfeasibleLayout) as err:
        random_feasible_placement(lay, np.random.default_rng(0), max_tries=20)
    assert isinstance(err.value, FcError)
    assert "antenna 0" in str(err.value)
