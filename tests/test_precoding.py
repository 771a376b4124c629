import numpy as np
import pytest

from fcarray import (
    ArrayLayout,
    DipoleModel,
    active_only_state,
    build_block,
    effective_channel,
    fc_state,
    fully_active_state,
    mech_weights,
    mmse_precoder,
    random_feasible_placement,
    sample_channels,
    transmit_power,
    uniform_placement,
)
from fcarray.channel import active_channel_matrix, coupler_channel_block
from fcarray.chanest import response_row
from fcarray.errors import ConfigError, NonPositivePower
from fcarray.impedance import ImpedanceBlock
from fcarray.precoding import _rate_of_coupling, gram_sum_rate, power_coefficient


def blocks_of(pl, layout, model):
    """Impedance blocks of all antennas of a placement, batched over M."""
    return build_block(pl.positions, layout.active_positions(), model)


def pivoted_solve(A, b):
    """Gaussian elimination with partial pivoting, written independently of
    numpy.linalg for use as an oracle."""
    A = A.astype(complex).copy()
    b = b.astype(complex).copy()
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


class TestMechWeights:
    def test_scalar_case(self, layout, model):
        lay1 = ArrayLayout(M=1, N=1)
        pl = uniform_placement(lay1)
        blk = build_block(pl.positions[0], lay1.active_position(0), model)
        w, _ = mech_weights(blk)
        expected = blk.z_bar[0] / (model.self_impedance + model.load_impedance)
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_coupling(self, model):
        blk = ImpedanceBlock(
            z_self=model.self_impedance,
            z_bar=np.zeros(2, dtype=complex),
            Z_hat=np.diag([model.self_impedance] * 2),
            X=np.diag([model.load_impedance] * 2),
        )
        w, _ = mech_weights(blk)
        assert np.allclose(w, 0.0)

    def test_against_pivoted_elimination(self, model, rng):
        lay = ArrayLayout(M=1, N=3)
        pl = random_feasible_placement(lay, rng)
        blk = build_block(pl.positions[0], lay.active_position(0), model)
        w, _ = mech_weights(blk)
        A = blk.Z_hat + blk.X
        assert np.linalg.norm(A @ w - blk.z_bar) < 1e-10 * np.linalg.norm(blk.z_bar)
        assert np.allclose(w, pivoted_solve(A, blk.z_bar), rtol=1e-9)


class TestEffectiveChannel:
    def test_no_couplers(self, model):
        lay = ArrayLayout(M=3, N=0)
        spec = sample_channels(4, K=2, L=5, layout=lay)
        pl = uniform_placement(lay)
        w, _ = mech_weights(blocks_of(pl, lay, model))
        G = effective_channel(spec, pl, w, lay)
        assert np.allclose(G, active_channel_matrix(spec, lay))

    def test_zero_weights_reduce_to_active(self, layout, model):
        spec = sample_channels(4, K=2, L=5, layout=layout)
        pl = uniform_placement(layout)
        w = np.zeros((layout.M, layout.N), dtype=complex)
        G = effective_channel(spec, pl, w, layout)
        assert np.allclose(G, active_channel_matrix(spec, layout))

    def test_full_stack_matrix_oracle(self, layout, model, rng):
        # h^T @ [I; -W] with the explicit (M + MN) stacking
        spec = sample_channels(21, K=3, L=8, layout=layout)
        pl = random_feasible_placement(layout, rng)
        w, _ = mech_weights(blocks_of(pl, layout, model))
        G = effective_channel(spec, pl, w, layout)
        M, N = layout.M, layout.N
        W = np.zeros((M * N, M), dtype=complex)
        for m in range(M):
            W[m * N:(m + 1) * N, m] = w[m]
        W_tilde = np.vstack([np.eye(M, dtype=complex), -W])
        h_c = coupler_channel_block(spec, pl.positions, layout.lam)  # (M, K, N)
        for k in range(3):
            h = np.concatenate([active_channel_matrix(spec, layout)[k],
                                h_c[:, k, :].ravel()])
            assert np.allclose(G[k], h @ W_tilde, atol=1e-10)

    def test_path_sum_formulation(self, layout, model, rng):
        # independent route: per-antenna angular response summed over paths
        spec = sample_channels(22, K=2, L=6, layout=layout)
        pl = random_feasible_placement(layout, rng)
        w, _ = mech_weights(blocks_of(pl, layout, layout_model(layout)))
        G = effective_channel(spec, pl, w, layout)
        for k in range(2):
            for m in range(layout.M):
                b = response_row(spec.angles[k], pl.positions[m], w[m], m, layout)
                val = np.sum(spec.gains[k] * b)
                assert abs(G[k, m] - val) < 1e-10


@pytest.mark.parametrize("N", [0, 1, 2])
def test_response_row_of_several_antennas_at_shared_positions(N):
    # one set of coupler positions seen from every antenna's active element
    lay = ArrayLayout(M=3, N=N)
    p_m = uniform_placement(lay).positions[1]
    w_m = np.linspace(0.1, 0.3, N) + 0.2j
    phi = np.array([-0.4, 0.0, 0.9])
    got = response_row(phi, p_m, w_m, np.arange(lay.M), lay)
    assert got.shape == (lay.M, phi.size)
    for m in range(lay.M):
        assert np.array_equal(got[m], response_row(phi, p_m, w_m, m, lay))


def layout_model(layout):
    return DipoleModel.for_layout(layout)


class TestPowerMatrix:
    def test_no_couplers(self, model):
        lay = ArrayLayout(M=2, N=0)
        pl = uniform_placement(lay)
        blocks = blocks_of(pl, lay, model)
        w, _ = mech_weights(blocks)
        B = power_coefficient(blocks, w)
        assert np.allclose(B, np.real(model.self_impedance))

    def test_forced_zero_weights(self, layout, model):
        pl = uniform_placement(layout)
        blocks = blocks_of(pl, layout, model)
        B = power_coefficient(blocks, np.zeros((layout.M, layout.N), dtype=complex))
        assert np.allclose(B, 73.13)

    def test_full_matrix_oracle(self, layout, model, rng):
        pl = random_feasible_placement(layout, rng)
        blocks = blocks_of(pl, layout, model)
        w, _ = mech_weights(blocks)
        B = power_coefficient(blocks, w)
        for m in range(layout.M):
            w_t = np.concatenate([[1.0 + 0j], -w[m]])
            ref = np.real(w_t.conj() @ np.real(blocks.full_matrix()[m]) @ w_t)
            assert B[m] == pytest.approx(ref, rel=1e-12)
            assert B[m] > 0

    def test_nonpositive_rejected(self, model):
        blk = ImpedanceBlock(
            z_self=-1.0 + 0j, z_bar=np.zeros(1, dtype=complex),
            Z_hat=np.array([[-1.0 + 0j]]), X=np.array([[0.0 + 0j]]))
        with pytest.raises(NonPositivePower):
            power_coefficient(blk, np.zeros(1, dtype=complex))


class TestMMSEPrecoder:
    def test_rank_one_full_power(self, rng):
        G = (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
        B = rng.uniform(50.0, 100.0, 4)
        st = mmse_precoder(G, B, P_max=2.0, sigma2=0.3)
        assert transmit_power(st.U, B) == pytest.approx(2.0, rel=1e-9)
        # direction collinear with the whitened conjugate channel
        g_bar = (G[0] / np.sqrt(B)).conj()
        u_w = st.F[:, 0]
        cos = abs(g_bar @ u_w.conj()) / (np.linalg.norm(g_bar) * np.linalg.norm(u_w))
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_rows_equal_power_split(self):
        G_bar = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
                         dtype=complex) * 3.0
        B = np.ones(4)
        st = mmse_precoder(G_bar, B, P_max=1.0, sigma2=0.1)
        per_user = np.sum(np.abs(st.F) ** 2, axis=0)
        assert per_user[0] == pytest.approx(per_user[1], rel=1e-9)

    def test_normal_equation_oracle(self, rng):
        K, M = 3, 8
        G = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        B = rng.uniform(20.0, 120.0, M)
        P_max, sigma2 = 1.7, 0.2
        st = mmse_precoder(G, B, P_max, sigma2)
        alpha = K * sigma2 / P_max
        G_bar = G / np.sqrt(B)[None, :]
        # solve the M x M normal equations of min ||G_bar F - I||^2 + a||F||^2
        F_ref = np.linalg.solve(
            G_bar.conj().T @ G_bar + alpha * np.eye(M), G_bar.conj().T)
        F_ref *= np.sqrt(P_max) / np.linalg.norm(F_ref)
        assert np.allclose(st.F, F_ref, rtol=1e-9, atol=1e-12)

    def test_power_equality_random(self, rng):
        for _ in range(100):
            K = int(rng.integers(1, 5))
            M = int(rng.integers(K, 9))
            G = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
            B = rng.uniform(10.0, 200.0, M)
            P_max = float(rng.uniform(0.1, 10.0))
            st = mmse_precoder(G, B, P_max, sigma2=float(rng.uniform(0.01, 1.0)))
            assert abs(transmit_power(st.U, B) - P_max) < 1e-9 * P_max

    def test_scale_covariance(self, rng):
        G = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        B = rng.uniform(20.0, 120.0, 6)
        st1 = mmse_precoder(G, B, P_max=1.0, sigma2=0.1)
        st2 = mmse_precoder(G, B, P_max=10.0, sigma2=1.0)
        assert np.allclose(st1.sinr, st2.sinr, rtol=1e-9)

    @pytest.mark.parametrize("P_max", [0.0, -1.0])
    def test_nonpositive_budget_is_config_error(self, P_max):
        with pytest.raises(ConfigError) as err:
            mmse_precoder(np.ones((1, 2), complex), np.ones(2), P_max, 0.1)
        assert err.value.field == "P_max"

    def test_nan_budget_is_config_error(self):
        # not the SingularGram that the regularized inverse would report
        with pytest.raises(ConfigError) as err:
            mmse_precoder(np.ones((1, 2), complex), np.ones(2), np.nan, 0.1)
        assert err.value.field == "P_max"

    @pytest.mark.parametrize("P_max", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("entry", ["mmse_precoder", "fully_active_state", "gram_sum_rate"])
    def test_every_gram_forward_entry_rejects_the_budget(self, entry, P_max):
        # the check sits in the one Gram forward pass, so no entry point
        # divides by zero, returns a NaN rate or reports a singular Gram
        lay = ArrayLayout(M=2, N=2)
        spec = sample_channels(3, K=2, L=4, layout=lay)
        call = {
            "mmse_precoder": lambda: mmse_precoder(np.ones((1, 2), complex), np.ones(2),
                                                   P_max, 0.1),
            "fully_active_state": lambda: fully_active_state(
                spec, lay, DipoleModel.for_layout(lay), P_max, 0.1),
            "gram_sum_rate": lambda: gram_sum_rate(np.eye(2), P_max, 0.1),
        }[entry]
        with pytest.raises(ConfigError) as err:
            call()
        assert err.value.field == "P_max"


class TestSinrAndRate:
    def test_single_user(self, rng):
        G = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        U = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        gamma, rate = _rate_of_coupling(G @ U, 0.5)
        expected = abs(G[0] @ U[:, 0]) ** 2 / 0.5
        assert gamma[0] == pytest.approx(expected, rel=1e-12)
        assert rate == pytest.approx(np.log2(1 + expected), rel=1e-12)

    def test_zero_precoder(self):
        gamma, rate = _rate_of_coupling(np.ones((2, 3), dtype=complex)
                                        @ np.zeros((3, 2), dtype=complex), 1.0)
        assert np.allclose(gamma, 0.0)
        assert rate == 0.0

    def test_zero_forcing_orthogonal(self):
        # crafted orthogonal effective rows; ZF precoder = scaled conjugates
        G = np.array([[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0j]],
                     dtype=complex)
        U = G.conj().T / 2.0
        cross = G @ U
        assert abs(cross[0, 1]) ** 2 < 1e-20 and abs(cross[1, 0]) ** 2 < 1e-20
        gamma, rate = _rate_of_coupling(G @ U, 0.25)
        assert np.allclose(gamma, 4.0, rtol=1e-12)  # |1|^2 / 0.25
        assert rate == pytest.approx(2 * np.log2(5.0), rel=1e-12)


class TestFullyActive:
    def test_reduces_to_active_only(self, model):
        lay = ArrayLayout(M=3, N=0)
        spec = sample_channels(8, K=2, L=5, layout=lay)
        st_full = fully_active_state(spec, lay, model, P_max=1.0, sigma2=0.1)
        st_ao = active_only_state(spec, lay, model, P_max=1.0, sigma2=0.1)
        assert st_full.sum_rate == pytest.approx(st_ao.sum_rate, rel=1e-10)

    def test_rank_one_closed_form(self, layout, model):
        spec = sample_channels(9, K=1, L=6, layout=layout)
        P_max, sigma2 = 1.3, 0.05
        st = fully_active_state(spec, layout, model, P_max, sigma2)
        # K=1: gamma = P ||whitened h||^2 / sigma^2 and full power
        assert np.linalg.norm(st.F) ** 2 == pytest.approx(P_max, rel=1e-9)
        # whitened norm from the G_bar implied by F direction
        h = st.G[0]
        gamma_ref = P_max * abs(h @ st.U[:, 0]) ** 2 / (
            np.linalg.norm(st.F) ** 2 * sigma2)
        assert st.sinr[0] == pytest.approx(gamma_ref, rel=1e-9)

    @pytest.mark.slow
    def test_beats_passive_on_average(self, layout, model):
        P_max, sigma2 = 1.0, 0.05
        diffs = []
        for seed in range(50):
            spec = sample_channels(seed, K=2, L=15, layout=layout)
            pl = uniform_placement(layout)
            r_full = fully_active_state(spec, layout, model, P_max, sigma2).sum_rate
            r_fc = fc_state(spec, pl, layout, model, P_max, sigma2).sum_rate
            diffs.append(r_full - r_fc)
        assert np.mean(diffs) > 0


class TestConsistency:
    def test_b_reduces_to_self_resistance(self, layout, model):
        pl = uniform_placement(layout)
        blocks = blocks_of(pl, layout, model)
        zero_w = np.zeros((layout.M, layout.N), dtype=complex)
        B = power_coefficient(blocks, zero_w)
        assert np.allclose(B, np.real(model.self_impedance))

    def test_fc_state_pipeline(self, layout, model):
        spec = sample_channels(2, K=2, L=15, layout=layout)
        pl = uniform_placement(layout)
        st = fc_state(spec, pl, layout, model, P_max=1.0, sigma2=0.1)
        assert st.sum_rate > 0
        assert transmit_power(st.U, st.B) == pytest.approx(1.0, rel=1e-9)
        assert np.all(st.B > 0)
        assert st.sum_rate == pytest.approx(
            float(np.sum(np.log2(1 + st.sinr))), rel=1e-12)
