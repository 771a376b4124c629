"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Run with ``pytest tests/test_acceptance.py -v -s``.

Statistical criteria use fixed seed lists, so every check here is
deterministic; tolerances are stated inline next to each assertion.

Criteria 5, 6 and 8 take their values from the rows the CLI writes for
``fcarray sweep power`` (5), ``fcarray sweep region`` (6), and ``fcarray
sweep snr``, ``fcarray estimate`` and ``fcarray sweep pilot`` (8); the
``--set`` lists of these commands are the module constants below.
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
    sweeps,
    transmit_power,
    uniform_placement,
)
from fcarray.chanest import build_dictionary, centralized_estimate, ls_gains, pilot_correlate
from fcarray.geometry import random_feasible_placement
from fcarray.optimizer import ObjectiveEvaluator, gradient, screened_initial_placement
from fcarray.precoding import fc_state
from fcarray.scenario import Scenario
from fcarray.sweeps import _streams

from chanest_reference import stack_observations
from test_chanest import on_grid_spec
from test_impedance import ci_oracle, emf_oracle, si_oracle

# (subcommand, --set list) of each command criteria 5, 6 and 8 read; the CLI runs
# each at two seeds in test_cli.py::test_acceptance_command_lines_run_through_the_cli
RATE_ORDERING = (["sweep", "power"], ["layout.M=6", "channel.K=3", "seeds.count=50",
                                      "sweep.power_dbm=[30]"])
REGION_TREND = (["sweep", "region"], ["channel.K=3", "seeds.count=50"])
NMSE_OVER_SNR = (["sweep", "snr"], ["layout.M=8", "seeds.count=200"])
NMSE_AT_V2 = (["estimate"], ["layout.M=8", "seeds.count=200", "estimation.V=2",
                             'estimation.schemes=["centralized"]'])
NMSE_OVER_TAU = (["sweep", "pilot"], ["layout.M=8", "seeds.count=200",
                                      'estimation.schemes=["distributed"]'])


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS — {message}")


def command_rows(command, overrides, out_dir):
    """The rows ``fcarray <command> --set <override>...`` writes to out_dir,
    from the function the CLI calls for it."""
    scenario = Scenario({}, overrides=overrides)
    if command == ["estimate"]:
        return sweeps.run_estimate(scenario, out_dir)
    return sweeps.run_sweep(scenario, command[1], out_dir)


def means(rows, key, column):
    """Mean of ``column`` over each group of rows with equal ``key(row)``,
    in row (seed) order."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row[column])
    return {k: float(np.mean(v)) for k, v in groups.items()}


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
        spec = sample_channels(_streams(seed)[0], K=2, L=15, layout=lay)
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
        spec = sample_channels(_streams(seed)[0], K=1, L=15, layout=lay)
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
        spec = sample_channels(_streams(seed)[0], K=2, L=15, layout=lay)
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
def test_criterion_05_rate_ordering(tmp_path):
    """mean(fully-active) >= mean(fc-optimized) >= mean(fixed-coupler) >=
    mean(active-only) over 50 paired seeds at M=6, N=2, K=3, 30 dBm, from
    the rows of ``fcarray sweep power --set layout.M=6 --set channel.K=3
    --set seeds.count=50 --set 'sweep.power_dbm=[30]'``."""
    rates = means(command_rows(*RATE_ORDERING, tmp_path), lambda row: row["scheme"],
                  "metric_value")
    assert (rates["fully-active"] >= rates["fc-optimized"] >= rates["fixed-coupler"]
            >= rates["active-only"])
    report(5, "mean rates ordered: " + " >= ".join(
        f"{scheme} {rates[scheme]:.3f}"
        for scheme in ("fully-active", "fc-optimized", "fixed-coupler", "active-only")))


@pytest.mark.slow
def test_criterion_06_region_size_trend(tmp_path):
    """Mean rate nondecreasing over A in {0.5, 1, 2} wavelengths for N=2 and
    N=3, with N=3 above N=2 at every A (50 seeds, M=4, K=3), from the rows
    of ``fcarray sweep region --set channel.K=3 --set seeds.count=50``."""
    rates = means(command_rows(*REGION_TREND, tmp_path),
                  lambda row: (row["variant"], row["value"]), "metric_value")
    mean = {(N, A): rates[f"N={N}", A] for N in (2, 3) for A in (0.5, 1.0, 2.0)}
    for N in (2, 3):
        assert mean[(N, 0.5)] <= mean[(N, 1.0)] <= mean[(N, 2.0)]
    for A in (0.5, 1.0, 2.0):
        assert mean[(3, A)] >= mean[(2, A)]
    report(6, "mean rate vs A: N=2 {:.3f}/{:.3f}/{:.3f}, N=3 {:.3f}/{:.3f}/{:.3f}"
           .format(*(mean[(2, a)] for a in (0.5, 1.0, 2.0)),
                   *(mean[(3, a)] for a in (0.5, 1.0, 2.0))))


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
def test_criterion_08_nmse_trends(tmp_path):
    """Over 200 paired trials (Fig. 7 parameters K=2, M=8, N=2, tau=13, L=3):
    (a) centralized NMSE strictly decreasing over SNR {-10, 0, 10, 20} dB;
    (b) mean NMSE(V=4) < mean NMSE(V=2) at 0 dB;
    (c) centralized <= distributed at every SNR;
    (d) distributed NMSE decreasing over tau {4, 13, 32} at 0 dB.

    (a) and (c) read the rows of ``fcarray sweep snr``, (b) those of
    ``fcarray estimate --set estimation.V=2 --set
    'estimation.schemes=["centralized"]'`` and (d) those of ``fcarray sweep
    pilot --set 'estimation.schemes=["distributed"]'``, each command with
    ``--set layout.M=8 --set seeds.count=200``."""
    snrs = [-10.0, 0.0, 10.0, 20.0]
    by_snr = means(command_rows(*NMSE_OVER_SNR, tmp_path / "snr"),
                   lambda row: (row["scheme"], row["snr_db"]), "nmse")
    cen = {s: by_snr["centralized", s] for s in snrs}
    dist = {s: by_snr["distributed", s] for s in snrs}
    assert all(cen[snrs[i + 1]] < cen[snrs[i]] for i in range(3)), cen
    assert all(cen[s] <= dist[s] for s in snrs), (cen, dist)

    v2 = means(command_rows(*NMSE_AT_V2, tmp_path / "v2"), lambda row: row["V"], "nmse")[2]
    assert cen[0.0] < v2, (cen[0.0], v2)

    taus = [4, 13, 32]
    dtau = means(command_rows(*NMSE_OVER_TAU, tmp_path / "tau"), lambda row: row["tau"],
                 "nmse")
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
        ch, sess, _, _ = _streams(seed)
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
            spec = sample_channels(_streams(seed)[0], K=2, L=8, layout=lay)
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
        ch, sess, _, _ = _streams(seed)
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
