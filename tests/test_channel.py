import numpy as np
import pytest

from fcarray import (
    ArrayLayout,
    CouplerPlacement,
    MultipathSpec,
    sample_channels,
    steering_active,
    steering_coupler_block,
    uniform_placement,
)
from fcarray.channel import active_channel_matrix, coupler_channel_block
from fcarray.errors import ConfigError


def stacked_channel(spec, k, placement, layout):
    """Stacked channel [h_A; h_C] of user k, the coupler block grouped
    antenna-major, coupler-minor."""
    h_c = coupler_channel_block(spec, placement.positions, layout.lam)  # (M, K, N)
    return np.concatenate([active_channel_matrix(spec, layout)[k], h_c[:, k, :].ravel()])


class TestSteeringActive:
    def test_broadside(self):
        lay = ArrayLayout(M=3, N=0)
        a = steering_active(0.0, lay)
        assert np.allclose(a, np.ones(3))

    def test_endfire_half_wave_spacing(self):
        lay = ArrayLayout(M=2, N=0, d_y=0.5)
        a = steering_active(np.pi / 2, lay)
        assert np.allclose(a, [1.0, -1.0], atol=1e-12)

    def test_forced_phase(self):
        # sin(pi/6) = 1/2 with d_y = 2.2 gives phase -2pi*1.1 = -0.2pi mod 2pi
        lay = ArrayLayout(M=2, N=0, d_y=2.2)
        a = steering_active(np.pi / 6, lay)
        assert a[1] == pytest.approx(np.exp(-1j * 0.2 * np.pi), abs=1e-12)

    def test_unit_modulus(self, layout, rng):
        phi = rng.uniform(-np.pi / 2, np.pi / 2, 100)
        a = steering_active(phi, layout)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12

    def test_first_entry_always_one(self, layout, rng):
        phi = rng.uniform(-np.pi / 2, np.pi / 2, 50)
        a = steering_active(phi, layout)
        assert np.allclose(a[:, 0], 1.0)


class TestSteeringCoupler:
    def test_all_at_origin(self):
        lay = ArrayLayout(M=2, N=2)
        pl = CouplerPlacement(np.zeros((2, 2, 2)))  # synthetic, bypasses feasibility
        a = steering_coupler_block(0.7, pl.positions.reshape(-1, 2), lay.lam)
        assert np.allclose(a, np.ones(4))

    def test_broadside_depends_on_x_only(self, layout, rng):
        from fcarray import random_feasible_placement
        pl = random_feasible_placement(layout, rng)
        a = steering_coupler_block(0.0, pl.positions.reshape(-1, 2), layout.lam)
        k0 = 2 * np.pi / layout.lam
        expected = np.exp(-1j * k0 * pl.positions.reshape(-1, 2)[:, 0])
        assert np.allclose(a, expected, atol=1e-12)

    def test_scalar_reevaluation_oracle(self, layout, rng):
        from fcarray import random_feasible_placement
        pl = random_feasible_placement(layout, rng)
        phi = np.pi / 4
        a = steering_coupler_block(phi, pl.positions.reshape(-1, 2), layout.lam)
        k0 = 2 * np.pi / layout.lam
        i = 0
        for m in range(layout.M):
            for n in range(layout.N):
                x, y = pl.positions[m, n]
                expected = np.exp(-1j * k0 * (x + y) / np.sqrt(2.0))
                assert a[i] == pytest.approx(expected, abs=1e-12)
                i += 1

    def test_unit_modulus(self, layout, rng):
        from fcarray import random_feasible_placement
        pl = random_feasible_placement(layout, rng)
        a = steering_coupler_block(rng.uniform(-np.pi / 2, np.pi / 2, 20),
                                   pl.positions.reshape(-1, 2), layout.lam)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12


class TestUserChannel:
    def test_single_unit_path(self, layout):
        pl = uniform_placement(layout)
        spec = MultipathSpec(angles=[[0.3]], gains=[[1.0 + 0.0j]])
        h = stacked_channel(spec, 0, pl, layout)
        stacked = np.concatenate([
            steering_active(0.3, layout),
            steering_coupler_block(0.3, pl.positions.reshape(-1, 2), layout.lam)])
        assert np.allclose(h, stacked)
        assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-12

    def test_zero_gains(self, layout):
        pl = uniform_placement(layout)
        spec = MultipathSpec(angles=np.zeros((1, 3)), gains=np.zeros((1, 3)))
        h = stacked_channel(spec, 0, pl, layout)
        assert np.allclose(h, 0.0)

    def test_naive_summation_oracle(self, layout, rng):
        pl = uniform_placement(layout)
        spec = sample_channels(99, K=2, L=15, layout=layout)
        for k in range(2):
            h = stacked_channel(spec, k, pl, layout)
            ref = np.zeros(layout.M * (layout.N + 1), dtype=complex)
            for ell in range(15):
                phi = spec.angles[k, ell]
                a = np.concatenate([
                    steering_active(phi, layout),
                    steering_coupler_block(phi, pl.positions.reshape(-1, 2), layout.lam)])
                ref += spec.gains[k, ell] * a
            assert np.allclose(h, ref, atol=1e-12)

    def test_linearity_in_gains(self, layout):
        pl = uniform_placement(layout)
        spec = sample_channels(5, K=1, L=4, layout=layout)
        doubled = MultipathSpec(spec.angles, 2.0 * spec.gains)
        h1 = stacked_channel(spec, 0, pl, layout)
        h2 = stacked_channel(doubled, 0, pl, layout)
        assert np.array_equal(h2, 2.0 * h1)

    def test_regeneration_bit_exact(self, layout):
        pl = uniform_placement(layout)
        spec = sample_channels(31, K=2, L=6, layout=layout)
        a = stacked_channel(spec, 1, pl, layout)
        b = stacked_channel(spec, 1, pl, layout)
        assert np.array_equal(a, b)

    def test_ordering_contract(self, layout):
        pl = uniform_placement(layout)
        spec = sample_channels(7, K=1, L=3, layout=layout)
        h = stacked_channel(spec, 0, pl, layout)
        h_a_ref = spec.gains[0] @ steering_active(spec.angles[0], layout)
        assert np.allclose(h[: layout.M], h_a_ref)
        # coupler block grouped antenna-major
        M, N = layout.M, layout.N
        for m in range(layout.M):
            blk = h[M + m * N : M + (m + 1) * N]
            k0 = 2 * np.pi / layout.lam
            for n in range(layout.N):
                val = 0.0j
                for ell in range(3):
                    kap = np.array([np.cos(spec.angles[0, ell]),
                                    np.sin(spec.angles[0, ell])])
                    val += spec.gains[0, ell] * np.exp(
                        -1j * k0 * kap @ pl.positions[m, n])
                assert blk[n] == pytest.approx(val, abs=1e-12)


class TestSampleChannels:
    def test_deterministic(self, layout):
        a = sample_channels(3, K=2, L=5, layout=layout)
        b = sample_channels(3, K=2, L=5, layout=layout)
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.gains, b.gains)

    def test_angle_bounds(self, layout):
        spec = sample_channels(11, K=1, L=1, layout=layout)
        assert abs(spec.angles[0, 0]) <= np.pi / 2

    def test_average_power_normalization(self, layout):
        # E[sum |alpha|^2] should equal g0 = 1 (law of large numbers, 3%)
        total = 0.0
        draws = 0
        for seed in range(200):
            spec = sample_channels(seed, K=5, L=10, layout=layout)
            total += float(np.sum(np.abs(spec.gains) ** 2, axis=1).sum())
            draws += 5
        assert total / draws == pytest.approx(1.0, rel=0.03)

    def test_validation(self):
        with pytest.raises(ConfigError, match="angles"):
            MultipathSpec(angles=[[2.0]], gains=[[1.0]])  # angle out of range
        with pytest.raises(ConfigError, match="angles"):
            MultipathSpec(angles=[[np.nan]], gains=[[1.0]])
        with pytest.raises(ConfigError, match="gains"):
            MultipathSpec(angles=[[0.1, 0.2]], gains=[[1.0]])
        with pytest.raises(ConfigError, match="L"):
            sample_channels(0, K=1, L=0, layout=ArrayLayout(M=2, N=1))
