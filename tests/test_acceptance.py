"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Run with ``pytest tests/test_acceptance.py -v -s``.

Statistical criteria use fixed seed lists, so every check here is
deterministic; tolerances are stated inline next to each assertion.
"""

import numpy as np
import pytest

import fcarray as fc
from fcarray import (
    AngularGrid,
    ArrayLayout,
    CostLedger,
    DipoleModel,
    SCAConfig,
    communication_count,
    distributed_estimate,
    make_session,
    mmse_precoder,
    mutual_impedance,
    optimize,
    run_algorithm1,
    run_algorithm3,
    run_pilot_phase,
    sample_channels,
    sine_cosine_integrals,
    transmit_power,
    uniform_placement,
)
from fcarray.chanest import (
    build_dictionary,
    centralized_estimate,
    ls_gains,
    nmse,
    pilot_correlate,
)
from fcarray.geometry import random_feasible_placement
from fcarray.optimizer import ObjectiveEvaluator, gradient, screened_initial_placement
from fcarray.precoding import active_only_state, fc_state, fully_active_state

from chanest_reference import stack_observations
from test_chanest import on_grid_spec
from test_impedance import ci_oracle, emf_oracle, si_oracle


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS — {message}")


def seeded(seed, n=4):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def test_criterion_01_power_equality():
    """tr(U^H diag(B) U) = P_max within 1e-9 relative on 100 random scenarios."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 5))
        M = int(rng.integers(K, 10))
        G = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        B = rng.uniform(10.0, 200.0, M)
        P_max = float(rng.uniform(0.05, 20.0))
        sigma2 = float(rng.uniform(0.001, 2.0))
        st = mmse_precoder(G, B, P_max, sigma2)
        worst = max(worst, abs(transmit_power(st.U, B) - P_max) / P_max)
    assert worst < 1e-9
    report(1, f"power equality, worst relative error {worst:.2e} over 100 scenarios")


def test_criterion_02_monotone_sca():
    """Nondecreasing accepted rates (1e-12) and final >= fixed-coupler
    baseline on every one of 20 seeds at M=4, N=2, K=2, L=15."""
    lay = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(lay)
    P_max = 1.0
    sigma2 = P_max / (2 * 10.0)  # 10 dB
    gains = []
    for seed in range(20):
        spec = sample_channels(seeded(seed)[0], K=2, L=15, layout=lay)
        initial = uniform_placement(lay)
        baseline = fc_state(spec, initial, lay, model, P_max, sigma2).sum_rate
        res = optimize(initial, SCAConfig(), spec, lay, model, P_max, sigma2)
        rates = res.trace.rates
        assert all(rates[t + 1] >= rates[t] - 1e-12 for t in range(len(rates) - 1))
        assert rates[-1] >= baseline
        gains.append(rates[-1] - baseline)
    report(2, f"monotone on 20/20 seeds; mean improvement "
              f"{np.mean(gains):.3f} bits/s/Hz over the fixed-coupler baseline")


def test_criterion_03_toy_global_optimality():
    """M=1, K=1, N=1, L=15: final rate >= 98% of a 41x41 lattice optimum on
    each of 10 seeds (optimizer initialized by the coarse screen)."""
    lay = ArrayLayout(M=1, N=1)
    model = DipoleModel.for_layout(lay)
    P_max, sigma2 = 1.0, 0.05
    lo, hi = lay.region_bounds(0)
    q = lay.active_position(0)
    xs = np.linspace(lo[0], hi[0], 41)
    ys = np.linspace(lo[1], hi[1], 41)
    lattice = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    lattice = lattice[np.hypot(lattice[:, 0] - q[0], lattice[:, 1] - q[1]) >= lay.min_sep_m]
    ratios = []
    for seed in range(10):
        spec = sample_channels(seeded(seed)[0], K=1, L=15, layout=lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_max, sigma2)
        ev.set_placement(uniform_placement(lay))
        best = ev.rate_with_override(0, lattice[:, None, :]).max()  # one batch per seed
        init = screened_initial_placement(lay, spec, model, P_max, sigma2)
        res = optimize(init, SCAConfig(), spec, lay, model, P_max, sigma2)
        ratios.append(res.trace.rates[-1] / best)
        assert ratios[-1] >= 0.98
    report(3, f"lattice-optimality ratios in [{min(ratios):.4f}, "
              f"{max(ratios):.4f}] on 10/10 seeds")


def test_criterion_04_gradient_validity():
    """Richardson ratio of central differences in [3.5, 4.5] and directional
    derivative agreement to 1e-6 relative on 10 smooth instances."""
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    P_max, sigma2 = 1.0, 0.05
    h = 1e-4 * lay.lam
    ratios, dir_errs = [], []
    for seed in range(10):
        spec = sample_channels(seeded(seed)[0], K=2, L=15, layout=lay)
        pl = uniform_placement(lay)
        ev = ObjectiveEvaluator(spec, lay, model, P_max, sigma2)
        ev.set_placement(pl)
        m = seed % lay.M
        g1 = gradient(pl, m, ev, h)
        g2 = gradient(pl, m, ev, h / 2)
        g4 = gradient(pl, m, ev, h / 4)
        ratio = np.linalg.norm(g1 - g2) / np.linalg.norm(g2 - g4)
        assert 3.5 <= ratio <= 4.5
        ratios.append(ratio)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(g1.size)
        u /= np.linalg.norm(u)
        base = pl.antenna_vector(m)
        fd = (ev.rate_with_override(m, (base + h * u).reshape(-1, 2))
              - ev.rate_with_override(m, (base - h * u).reshape(-1, 2))) / (2 * h)
        err = abs(g1 @ u - fd) / abs(fd)
        assert err < 1e-6
        dir_errs.append(err)
    report(4, f"Richardson ratios in [{min(ratios):.3f}, {max(ratios):.3f}], "
              f"directional error <= {max(dir_errs):.2e}")


@pytest.mark.slow
def test_criterion_05_rate_ordering():
    """mean(fully-active) >= mean(fc-optimized) >= mean(fixed-coupler) >=
    mean(active-only) over 50 paired seeds at M=6, N=2, K=3, 30 dBm."""
    lay = ArrayLayout(M=6, N=2)
    model = DipoleModel.for_layout(lay)
    K = 3
    P_max = 1.0  # 30 dBm
    sigma2 = P_max / (K * 10.0)  # 10 dB
    rows = {name: [] for name in ("fully", "fcopt", "fixed", "active")}
    for seed in range(50):
        spec = sample_channels(seeded(seed)[0], K=K, L=15, layout=lay)
        initial = uniform_placement(lay)
        rows["fixed"].append(fc_state(spec, initial, lay, model, P_max,
                                      sigma2).sum_rate)
        rows["active"].append(active_only_state(spec, lay, model, P_max,
                                                sigma2).sum_rate)
        rows["fully"].append(fully_active_state(spec, lay, model, P_max,
                                                sigma2).sum_rate)
        res = optimize(initial, SCAConfig(), spec, lay, model, P_max, sigma2)
        rows["fcopt"].append(res.trace.rates[-1])
    means = {name: float(np.mean(vals)) for name, vals in rows.items()}
    assert means["fully"] >= means["fcopt"] >= means["fixed"] >= means["active"]
    report(5, "mean rates ordered: fully-active {fully:.3f} >= fc-optimized "
              "{fcopt:.3f} >= fixed-coupler {fixed:.3f} >= active-only "
              "{active:.3f}".format(**means))


@pytest.mark.slow
def test_criterion_06_region_size_trend():
    """Mean rate nondecreasing over A in {0.5, 1, 2} wavelengths for N=2 and
    N=3, with N=3 above N=2 at every A (50 seeds, M=4, K=3)."""
    K = 3
    P_max = 1.0
    sigma2 = P_max / (K * 10.0)
    means = {}
    for N in (2, 3):
        for A in (0.5, 1.0, 2.0):
            lay = ArrayLayout(M=4, N=N, region_side=A)
            model = DipoleModel.for_layout(lay)
            vals = []
            for seed in range(50):
                spec = sample_channels(seeded(seed)[0], K=K, L=15, layout=lay)
                res = optimize(uniform_placement(lay), SCAConfig(), spec, lay,
                               model, P_max, sigma2)
                vals.append(res.trace.rates[-1])
            means[(N, A)] = float(np.mean(vals))
    for N in (2, 3):
        assert means[(N, 0.5)] <= means[(N, 1.0)] <= means[(N, 2.0)]
    for A in (0.5, 1.0, 2.0):
        assert means[(3, A)] >= means[(2, A)]
    report(6, "mean rate vs A: N=2 {:.3f}/{:.3f}/{:.3f}, N=3 {:.3f}/{:.3f}/{:.3f}"
           .format(*(means[(2, a)] for a in (0.5, 1.0, 2.0)),
                   *(means[(3, a)] for a in (0.5, 1.0, 2.0))))


def test_criterion_07_noiseless_exact_recovery():
    """Exact support and gain NMSE < 1e-10 on 50/50 noiseless seeds with
    on-grid, >=3-bin-separated angles (M=8, V=4, tau=13, L=3).

    Free parameters sit in the scheme's identifiable regime: alias-free
    element spacing d_y = 0.45, G = 14 bins, draws inside |phi| <= 50 deg
    (away from the endfire blur of a linear array), N = 6 couplers trained
    in the strong-coupling annulus (spread 0.7 wavelengths)."""
    lay = ArrayLayout(M=8, N=6, d_y=0.45)
    model = DipoleModel.for_layout(lay)
    grid = AngularGrid(14)
    wins = 0
    worst_gain_err = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        spec = on_grid_spec(grid, rng, K=2, L=3, min_bin_sep=3, sector_deg=50.0)
        session = make_session(lay, K=2, tau=13, V=4, sigma2=0.0, seed=seed,
                               placement_spread=0.7)
        obs = run_pilot_phase(session, spec, lay, model)
        result = centralized_estimate(session, obs, 3, grid, lay, model)
        ok = True
        for k in range(2):
            true_bins = grid.nearest_index(spec.angles[k])
            if set(result.supports[k].tolist()) != set(true_bins.tolist()):
                ok = False
                continue
            err = 0.0
            for ell, j in enumerate(result.supports[k]):
                truth = spec.gains[k][true_bins == j][0]
                err += abs(result.gains[k, ell] - truth) ** 2
            rel = err / float(np.sum(np.abs(spec.gains[k]) ** 2))
            worst_gain_err = max(worst_gain_err, rel)
            ok = ok and rel < 1e-10
        wins += ok
    assert wins == 50
    report(7, f"exact support on 50/50 seeds, worst gain NMSE "
              f"{worst_gain_err:.2e}")


@pytest.mark.slow
def test_criterion_08_nmse_trends():
    """Over 200 paired trials (Fig. 7 parameters K=2, M=8, N=2, tau=13, L=3):
    (a) centralized NMSE strictly decreasing over SNR {-10, 0, 10, 20} dB;
    (b) mean NMSE(V=4) < mean NMSE(V=2) at 0 dB;
    (c) centralized <= distributed at every SNR;
    (d) distributed NMSE decreasing over tau {4, 13, 32} at 0 dB."""
    lay = ArrayLayout(M=8, N=2)
    model = DipoleModel.for_layout(lay)
    K, L = 2, 3
    grid = AngularGrid(256)
    trials = 200

    def one(scheme, seed, snr_db, V, tau):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        ch, sess, ev, _ = seeded(seed)
        spec = sample_channels(ch, K, L, lay)
        session = make_session(lay, K, tau, V, sigma2, sess)
        obs = run_pilot_phase(session, spec, lay, model)
        if scheme == "centralized":
            result = centralized_estimate(session, obs, L, grid, lay, model)
        else:
            result = distributed_estimate(session, obs, L, grid, lay, model)
        rng = np.random.default_rng(ev)
        placements = [random_feasible_placement(lay, rng) for _ in range(10)]
        return nmse(result, spec, placements, lay, model)

    snrs = [-10.0, 0.0, 10.0, 20.0]
    cen = {s: np.mean([one("centralized", t, s, 4, 13) for t in range(trials)])
           for s in snrs}
    dist = {s: np.mean([one("distributed", t, s, 4, 13) for t in range(trials)])
            for s in snrs}
    assert all(cen[snrs[i + 1]] < cen[snrs[i]] for i in range(3)), cen
    assert all(cen[s] <= dist[s] for s in snrs), (cen, dist)

    v2 = np.mean([one("centralized", t, 0.0, 2, 13) for t in range(trials)])
    assert cen[0.0] < v2, (cen[0.0], v2)

    taus = [4, 13, 32]
    dtau = {tau: np.mean([one("distributed", t, 0.0, 4, tau)
                          for t in range(trials)]) for tau in taus}
    assert dtau[13] < dtau[4] and dtau[32] < dtau[13], dtau

    report(8, "centralized NMSE over SNR: "
              + "/".join(f"{cen[s]:.3e}" for s in snrs)
              + f"; V=2 {v2:.3e} > V=4 {cen[0.0]:.3e}; "
              + "distributed over tau: "
              + "/".join(f"{dtau[t]:.3e}" for t in taus))


def test_criterion_09_distributed_equals_centralized_ls():
    """With equal supports and zero loading, distributed gains match the
    stacked centralized LS to 1e-10 on 100 random instances."""
    lay = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(lay)
    grid = AngularGrid(64)
    worst = 0.0
    for seed in range(100):
        ch, sess, _, _ = seeded(seed)
        spec = sample_channels(ch, 2, 3, lay)
        session = make_session(lay, 2, 13, 4, sigma2=0.05, seed=sess)
        obs = run_pilot_phase(session, spec, lay, model)
        result = distributed_estimate(session, obs, 3, grid, lay, model,
                                      eps_k=0.0)
        A = build_dictionary(session, grid, lay, model)
        corr = [pilot_correlate(Y, session.S, session.tau) for Y in obs]
        for k in range(2):
            ref, = ls_gains(stack_observations(corr, k)[None], A, result.supports[[k]])
            err = float(np.max(np.abs(result.gains[k] - ref)))
            worst = max(worst, err)
            assert err < 1e-10
    report(9, f"Gram additivity: worst gain deviation {worst:.2e} "
              f"over 100 instances")


def test_criterion_10_impedance_kernel():
    """Si/Ci vs quadrature (1e-10, 100 points); mutual impedance vs the
    induced-EMF integral (1e-6 relative at 0.2/0.5/1/2 wavelengths);
    bit-exact block symmetry."""
    lay = ArrayLayout(M=3, N=3)
    model = DipoleModel.for_layout(lay)
    xs = np.logspace(-3, 3, 100)
    si, ci = sine_cosine_integrals(xs)
    worst_sici = 0.0
    for x, s, c in zip(xs, si, ci):
        worst_sici = max(worst_sici, abs(s - si_oracle(x)), abs(c - ci_oracle(x)))
    assert worst_sici < 1e-10

    worst_emf = 0.0
    for d_wl in (0.2, 0.5, 1.0, 2.0):
        d = d_wl * lay.lam
        z = mutual_impedance(d, model)
        z_ref = emf_oracle(d, model)
        worst_emf = max(worst_emf, abs(z - z_ref) / abs(z_ref))
    assert worst_emf < 1e-6

    rng = np.random.default_rng(3)
    for _ in range(5):
        pl = random_feasible_placement(lay, rng)
        for m in range(lay.M):
            Z = fc.build_block(pl.positions[m], lay.active_position(m),
                               model).full_matrix()
            assert np.array_equal(Z, Z.T)
    report(10, f"Si/Ci worst abs err {worst_sici:.2e}; induced-EMF worst "
               f"rel err {worst_emf:.2e}; Z_m symmetric bit-exact")


def test_criterion_11_runtime_transparency_and_ledgers():
    """Message-routed runs bit-identical to direct pipelines across the seed
    matrix; ledger totals equal closed-form counts and message-log replay."""
    P_max, sigma2 = 1.0, 0.05
    for seed in (0, 1, 2):
        for (M, N) in ((2, 1), (3, 2)):
            lay = ArrayLayout(M=M, N=N)
            model = DipoleModel.for_layout(lay)
            spec = sample_channels(seeded(seed)[0], K=2, L=8, layout=lay)
            cfg = SCAConfig(T_max=4, eps_stop=0.0)
            initial = uniform_placement(lay)
            direct = optimize(initial, cfg, spec, lay, model, P_max, sigma2)
            routed, log, ledger = run_algorithm1(initial, cfg, spec, lay,
                                                 model, P_max, sigma2)
            assert np.array_equal(direct.placement.positions,
                                  routed.placement.positions)
            assert direct.trace.rates == routed.trace.rates
            rounds = routed.trace.rounds
            closed = communication_count(M, N, rounds)
            assert ledger.total("cpu_to_lpu", "gradient") == closed["gradient_scalars"]
            assert ledger.total("lpu_to_cpu", "positions") == closed["position_scalars"]
            assert CostLedger.from_messages(log).totals == ledger.totals

    lay = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(lay)
    grid = AngularGrid(64)
    L = 3
    for seed in (0, 1, 2):
        ch, sess, _, _ = seeded(seed)
        spec = sample_channels(ch, 2, L, lay)
        session = make_session(lay, 2, 13, 4, sigma2=0.05, seed=sess)
        obs = run_pilot_phase(session, spec, lay, model)
        direct = distributed_estimate(session, obs, L, grid, lay, model)
        routed, log, ledger = run_algorithm3(session, obs, L, grid, lay, model)
        assert np.array_equal(direct.gains, routed.gains)
        assert np.array_equal(direct.supports, routed.supports)
        # suff-stats closed form: M*K*(L^2+L) complex, 2x scalar units
        assert ledger.total("lpu_to_cpu", "suff_stats") == \
            2 * lay.M * 2 * (L * L + L)
        assert CostLedger.from_messages(log).totals == ledger.totals
    report(11, "bit-identical routed runs; ledgers equal closed form and replay")
