import numpy as np
import pytest

from fcarray import (
    ArrayLayout,
    DipoleModel,
    MultipathSpec,
    SCAConfig,
    build_block,
    communication_count,
    effective_channel,
    fc_state,
    gradient,
    linearize_spacing,
    mech_weights,
    mmse_precoder,
    optimize,
    random_feasible_placement,
    sample_channels,
    uniform_placement,
    is_feasible,
)
from fcarray.errors import ConfigError
from fcarray.optimizer import ObjectiveEvaluator, relaxed_update, screened_initial_placement
from fcarray.precoding import power_coefficient


P_MAX = 1.0
SIGMA2 = 0.05


@pytest.fixture
def toy():
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(42, K=2, L=15, layout=lay)
    return lay, model, spec


class TestObjective:
    def test_positive_rate(self, toy):
        lay, model, spec = toy
        r = fc_state(spec, uniform_placement(lay), lay, model, P_MAX, SIGMA2).sum_rate
        assert r > 0

    def test_vanishing_snr(self, toy):
        lay, model, spec = toy
        r = fc_state(spec, uniform_placement(lay), lay, model, P_MAX, 1e12).sum_rate
        assert r < 1e-6

    def test_pipeline_decomposition(self, toy):
        # recompose stage by stage; must match to the last bit tolerance
        lay, model, spec = toy
        pl = uniform_placement(lay)
        r = fc_state(spec, pl, lay, model, P_MAX, SIGMA2).sum_rate
        blocks = build_block(pl.positions, lay.active_positions(), model)
        w, _ = mech_weights(blocks)
        G = effective_channel(spec, pl, w, lay)
        B = power_coefficient(blocks, w)
        st = mmse_precoder(G, B, P_MAX, SIGMA2)
        assert abs(r - st.sum_rate) < 1e-12


@pytest.mark.parametrize("M, N, K", [(4, 2, 3), (8, 3, 8), (2, 1, 1), (3, 0, 2), (1, 4, 2)])
def test_fc_state_and_evaluator_agree_bit_for_bit(M, N, K):
    # the two callers of the one chain give the same rate and precoder
    lay = ArrayLayout(M=M, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(M + 10 * N + 100 * K, K=K, L=6, layout=lay)
    ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
    for pl in (uniform_placement(lay), random_feasible_placement(lay, np.random.default_rng(M))):
        st = fc_state(spec, pl, lay, model, P_MAX, SIGMA2)
        assert st.sum_rate == ev.rate_of(pl)
        assert np.array_equal(st.U, ev.state_of(pl).U)


class TestGradient:
    def test_zero_gains_flat(self, toy):
        lay, model, _ = toy
        spec = MultipathSpec(angles=np.zeros((2, 3)),
                             gains=np.zeros((2, 3), dtype=complex))
        pl = uniform_placement(lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        ev.set_placement(pl)
        g = gradient(pl, 0, ev, 1e-4 * lay.lam)
        assert np.allclose(g, 0.0)

    def test_richardson_ratio(self, toy):
        lay, model, spec = toy
        pl = uniform_placement(lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        ev.set_placement(pl)
        h = 1e-4 * lay.lam
        for m in range(lay.M):
            g1 = gradient(pl, m, ev, h)
            g2 = gradient(pl, m, ev, h / 2)
            g4 = gradient(pl, m, ev, h / 4)
            ratio = np.linalg.norm(g1 - g2) / np.linalg.norm(g2 - g4)
            assert 3.5 <= ratio <= 4.5

    def test_directional_derivative(self, toy):
        lay, model, spec = toy
        pl = uniform_placement(lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
        ev.set_placement(pl)
        h = 1e-4 * lay.lam
        rng = np.random.default_rng(0)
        for m in range(lay.M):
            g = gradient(pl, m, ev, h)
            u = rng.standard_normal(g.size)
            u /= np.linalg.norm(u)
            base = pl.antenna_vector(m)
            r_p = ev.rate_with_override(m, (base + h * u).reshape(-1, 2))
            r_m = ev.rate_with_override(m, (base - h * u).reshape(-1, 2))
            fd = (r_p - r_m) / (2 * h)
            assert abs(g @ u - fd) / abs(fd) < 1e-6


class TestLocalStep:
    """The surrogate step p + grad/eta projected, i.e. relaxed_update at alpha = 1."""

    def test_zero_gradient_identity(self, toy):
        lay, _, _ = toy
        pl = uniform_placement(lay)
        fs = linearize_spacing(pl, 0, lay)
        cand = relaxed_update(pl.antenna_vector(0), np.zeros(2 * lay.N), 1.0, fs)
        assert np.allclose(cand, pl.antenna_vector(0), atol=1e-9 * lay.lam)

    def test_vanishing_step(self, toy):
        lay, _, _ = toy
        pl = uniform_placement(lay)
        fs = linearize_spacing(pl, 0, lay)
        g = np.ones(2 * lay.N)
        cand = relaxed_update(pl.antenna_vector(0), g / 1e15, 1.0, fs)
        assert np.allclose(cand, pl.antenna_vector(0), atol=1e-8 * lay.lam)

    def test_interior_unconstrained(self, toy):
        lay, _, _ = toy
        pl = uniform_placement(lay)
        fs = linearize_spacing(pl, 0, lay)
        g = np.full(2 * lay.N, 1e-6 * lay.lam)  # tiny move, no constraint active
        cand = relaxed_update(pl.antenna_vector(0), g, 1.0, fs)
        assert np.allclose(cand, pl.antenna_vector(0) + g, atol=1e-9 * lay.lam)


class TestOptimize:
    def test_monotone_and_dominates_init(self, toy):
        lay, model, spec = toy
        pl = uniform_placement(lay)
        res = optimize(pl, SCAConfig(T_max=30), spec, lay, model, P_MAX, SIGMA2)
        r = res.trace.rates
        assert all(r[i + 1] >= r[i] - 1e-12 for i in range(len(r) - 1))
        assert r[-1] >= r[0]
        assert is_feasible(res.placement, lay).ok

    def test_unknown_alpha_schedule_is_config_error(self, toy):
        lay, model, spec = toy
        with pytest.raises(ConfigError) as err:
            optimize(uniform_placement(lay), SCAConfig(alpha_schedule="foo"), spec,
                     lay, model, P_MAX, SIGMA2)
        assert err.value.field == "sca.alpha_schedule"

    @pytest.mark.parametrize("N, ch_seed", [(3, 2613022947), (3, 1205035877),
                                            (2, 1563021450), (3, 2406264477)])
    def test_iterates_keep_the_clearance(self, N, ch_seed):
        """Constant-alpha runs at M=4, K=3, A=0.5 whose iterates, the
        projections themselves, stopped with TooClose on sets without the
        clearance.  Every accepted iterate keeps 1e-4 wavelengths."""
        lay = ArrayLayout(M=4, N=N, region_side=0.5)
        spec = sample_channels(ch_seed, K=3, L=15, layout=lay)
        res = optimize(uniform_placement(lay), SCAConfig(alpha_schedule="constant"), spec,
                       lay, DipoleModel.for_layout(lay), P_MAX, P_MAX / 30.0)
        assert res.trace.min_margins
        assert min(res.trace.min_margins) >= 0.99 * 1e-4 * lay.lam

    def test_eps_infinite_single_iteration(self, toy):
        lay, model, spec = toy
        pl = uniform_placement(lay)
        res = optimize(pl, SCAConfig(eps_stop=np.inf), spec, lay, model,
                       P_MAX, SIGMA2)
        assert len(res.trace.rates) == 2
        assert res.trace.rounds == 1

    def test_n_zero_returns_immediately(self, model):
        lay = ArrayLayout(M=3, N=0)
        spec = sample_channels(1, K=2, L=5, layout=lay)
        res = optimize(uniform_placement(lay), SCAConfig(), spec, lay,
                       DipoleModel.for_layout(lay), P_MAX, SIGMA2)
        assert res.trace.rounds == 0
        assert len(res.trace.rates) == 1

    def test_trace_csv_and_summary(self, toy, tmp_path):
        lay, model, spec = toy
        res = optimize(uniform_placement(lay), SCAConfig(T_max=5, eps_stop=0.0),
                       spec, lay, model, P_MAX, SIGMA2)
        res.trace.to_csv(tmp_path / "trace.csv")
        res.trace.to_json(tmp_path / "trace.json")
        assert (tmp_path / "trace.csv").read_text().count("\n") >= 2
        summary = res.trace.summary()
        assert summary["final_rate"] >= summary["initial_rate"]

    def test_summary_health_figures(self, toy):
        lay, model, spec = toy
        res = optimize(uniform_placement(lay),
                       SCAConfig(T_max=6, eps_stop=0.0, snapshot_placements=True),
                       spec, lay, model, P_MAX, SIGMA2)
        summary = res.trace.summary()
        assert summary["proj_sweeps_total"] == sum(res.trace.proj_sweeps) > 0
        assert summary["backtracks_total"] == sum(res.trace.backtracks)
        # smallest box or spacing margin over the accepted iterates, pair by pair
        margins = []
        for pos in res.trace.placements[1:]:
            for m in range(lay.M):
                lo, hi = lay.region_bounds(m)
                full = np.vstack([lay.active_position(m)[None, :], pos[m]])
                margins += list(np.minimum(pos[m] - lo, hi - pos[m]).ravel())
                margins += [np.hypot(*(full[a] - full[b])) - lay.min_sep_m
                            for a in range(lay.N + 1) for b in range(a + 1, lay.N + 1)]
        assert summary["min_margin_m"] == min(margins)
        assert 0.0 < summary["min_margin_m"] < 0.01 * lay.min_sep_m

    def test_margins_computed_once_per_accepted_iteration(self, toy, monkeypatch):
        """The margins of each accepted iterate give the trace's minimum margin
        and the next linearization's anchor check: one ``constraint_margins``
        call for the initial placement and one per accepted iteration."""
        from fcarray import geometry, optimizer
        lay, model, spec = toy
        pl = uniform_placement(lay)
        calls, real = [], geometry.constraint_margins

        def counted(positions, layout, m=None):
            calls.append(m)
            return real(positions, layout, m)

        monkeypatch.setattr(optimizer, "constraint_margins", counted)
        monkeypatch.setattr(geometry, "constraint_margins", counted)
        res = optimize(pl, SCAConfig(T_max=6, eps_stop=0.0), spec, lay, model, P_MAX, SIGMA2)
        assert res.trace.rounds == len(res.trace.min_margins) == 6
        assert len(calls) == res.trace.rounds + 1
        assert all(m is None for m in calls)  # all antennas, never linearize's own rows

    def test_summary_without_updates(self, toy):
        lay, model, spec = toy
        summary = optimize(uniform_placement(lay), SCAConfig(T_max=0), spec, lay, model,
                           P_MAX, SIGMA2).trace.summary()
        assert summary["proj_sweeps_total"] == summary["backtracks_total"] == 0
        assert summary["min_margin_m"] is None

    @pytest.mark.slow
    def test_toy_lattice_two_couplers(self):
        # single antenna, two couplers, one user: compare against a joint
        # exhaustive lattice (coarse 13x13 per coupler keeps this tractable;
        # the acceptance suite runs the N=1 case at 41x41)
        lay = ArrayLayout(M=1, N=2)
        model = DipoleModel.for_layout(lay)
        lo, hi = lay.region_bounds(0)
        axis = np.linspace(lo[0] + 0.02 * lay.lam, hi[0] - 0.02 * lay.lam, 13)
        pts = np.array([[x, y] for x in axis for y in axis])
        q = lay.active_position(0)
        pts = pts[np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1]) >= lay.min_sep_m]
        # every (i, j) pair of lattice points d_min apart, i-major, as one batch
        i, j = np.divmod(np.arange(len(pts) ** 2), len(pts))
        pairs = np.stack([pts[i], pts[j]], axis=1)
        pairs = pairs[np.hypot(*(pairs[:, 0] - pairs[:, 1]).T) >= lay.min_sep_m]
        ok = 0
        for seed in range(3):
            spec = sample_channels(seed, K=1, L=15, layout=lay)
            ev = ObjectiveEvaluator(spec, lay, model, P_MAX, SIGMA2)
            ev.set_placement(uniform_placement(lay))
            best = float(np.max(ev.rate_with_override(0, pairs)))
            init = screened_initial_placement(lay, spec, model, P_MAX, SIGMA2)
            res = optimize(init, SCAConfig(), spec, lay, model, P_MAX, SIGMA2)
            if res.trace.rates[-1] >= 0.98 * best:
                ok += 1
        assert ok >= 2


class TestCommunicationCount:
    def test_arithmetic(self):
        ledger = communication_count(M=4, N=2, rounds=10)
        assert ledger["gradient_scalars"] == 160
        assert ledger["position_scalars"] == 160
        assert ledger["total_scalars"] == 320

    def test_no_couplers(self):
        assert communication_count(M=5, N=0, rounds=7)["total_scalars"] == 0

    def test_matches_trace(self, toy):
        lay, model, spec = toy
        res = optimize(uniform_placement(lay), SCAConfig(T_max=4, eps_stop=0.0),
                       spec, lay, model, P_MAX, SIGMA2)
        assert res.trace.comm == communication_count(lay.M, lay.N,
                                                     res.trace.rounds)


class TestScreenedInit:
    def test_beats_or_equals_uniform(self):
        lay = ArrayLayout(M=1, N=1)
        model = DipoleModel.for_layout(lay)
        spec = sample_channels(7, K=1, L=15, layout=lay)
        base = fc_state(spec, uniform_placement(lay), lay, model, P_MAX, SIGMA2).sum_rate
        init = screened_initial_placement(lay, spec, model, P_MAX, SIGMA2)
        assert is_feasible(init, lay).ok
        got = fc_state(spec, init, lay, model, P_MAX, SIGMA2).sum_rate
        assert got >= base

    def test_multi_coupler_improves(self, toy):
        lay, model, spec = toy
        base = fc_state(spec, uniform_placement(lay), lay, model, P_MAX, SIGMA2).sum_rate
        init = screened_initial_placement(lay, spec, model, P_MAX, SIGMA2)
        assert is_feasible(init, lay).ok
        assert fc_state(spec, init, lay, model, P_MAX, SIGMA2).sum_rate >= base
