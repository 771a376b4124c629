import numpy as np
import pytest
from scipy.integrate import quad

from fcarray import (
    DipoleModel,
    build_block,
    mutual_impedance,
    sine_cosine_integrals,
    uniform_placement,
)
from fcarray.errors import DomainError, TooClose
from fcarray.impedance import ETA_FREE_SPACE


# --- quadrature oracles -----------------------------------------------------

def si_oracle(x: float) -> float:
    """Si(x) from the defining integral, via QUADPACK Fourier machinery for
    large arguments."""
    if x <= 50.0:
        val, _ = quad(lambda t: np.sinc(t / np.pi), 0.0, x, limit=500,
                      epsabs=1e-13, epsrel=1e-13)
        return val
    tail, _ = quad(lambda t: 1.0 / t, x, np.inf, weight="sin", wvar=1.0,
                   epsabs=1e-13, limlst=200)
    return np.pi / 2.0 - tail


def ci_oracle(x: float) -> float:
    """Ci(x) from its defining integrals: the gamma + log form for small x,
    the Fourier tail -integral_x^inf cos(t)/t dt otherwise."""
    if x <= 1.0:
        head, _ = quad(lambda t: (np.cos(t) - 1.0) / t, 0.0, x, limit=200,
                       epsabs=1e-13, epsrel=1e-13)
        return np.euler_gamma + np.log(x) + head
    tail, _ = quad(lambda t: 1.0 / t, x, np.inf, weight="cos", wvar=1.0,
                   epsabs=1e-13, limlst=200)
    return -tail


def emf_oracle(d: float, model: DipoleModel) -> complex:
    """Mutual impedance by direct quadrature of the induced-EMF integral for
    parallel side-by-side dipoles with sinusoidal currents."""
    k = model.wavenumber
    l = model.length
    half = l / 2.0
    cos_kl2 = np.cos(k * half)
    sin_kl2 = np.sin(k * half)

    def integrand(z):
        r1 = np.sqrt(d**2 + (z - half) ** 2)
        r2 = np.sqrt(d**2 + (z + half) ** 2)
        r0 = np.sqrt(d**2 + z**2)
        field = (np.exp(-1j * k * r1) / r1 + np.exp(-1j * k * r2) / r2
                 - 2.0 * cos_kl2 * np.exp(-1j * k * r0) / r0)
        return field * np.sin(k * (half - abs(z)))

    re, _ = quad(lambda z: integrand(z).real, -half, half, limit=400)
    im, _ = quad(lambda z: integrand(z).imag, -half, half, limit=400)
    return 1j * ETA_FREE_SPACE / (4.0 * np.pi * sin_kl2**2) * (re + 1j * im)


# --- tests -------------------------------------------------------------------

class TestSiCi:
    def test_si_zero(self):
        with pytest.raises(DomainError):
            sine_cosine_integrals(0.0)  # Ci(0) diverges
        # Si alone is 0 at 0: check via a tiny argument
        si, _ = sine_cosine_integrals(1e-12)
        assert abs(si) < 1e-11

    def test_si_limit(self):
        si, _ = sine_cosine_integrals(1e4)
        assert abs(si - np.pi / 2) < 1e-4  # oscillatory tail ~ cos(x)/x
        si, _ = sine_cosine_integrals(1e8)
        assert abs(si - np.pi / 2) < 1e-7

    def test_unit_argument_vs_quadrature(self):
        si, ci = sine_cosine_integrals(1.0)
        assert abs(si - si_oracle(1.0)) < 1e-10
        assert abs(ci - ci_oracle(1.0)) < 1e-10

    def test_against_quadrature_log_grid(self):
        xs = np.logspace(-3, 3, 100)
        si, ci = sine_cosine_integrals(xs)
        for x, s, c in zip(xs, si, ci):
            assert abs(s - si_oracle(x)) < 1e-10, f"Si({x})"
            assert abs(c - ci_oracle(x)) < 1e-10, f"Ci({x})"

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sine_cosine_integrals(-1.0)


class TestMutualImpedance:
    def test_half_wave_reference_value(self, model):
        # classic side-by-side half-wave value at d = 0.5 lam
        z = mutual_impedance(0.5 * model.wavelength, model)
        assert z.real == pytest.approx(-12.53, abs=0.05)
        assert z.imag == pytest.approx(-29.93, abs=0.05)

    @pytest.mark.parametrize("d_wl", [0.2, 0.5, 1.0, 2.0])
    def test_against_emf_quadrature(self, model, d_wl):
        d = d_wl * model.wavelength
        z = mutual_impedance(d, model)
        z_ref = emf_oracle(d, model)
        assert abs(z - z_ref) / abs(z_ref) < 1e-6

    def test_vanishes_far_away(self, model):
        z = mutual_impedance(1e6 * model.wavelength, model)
        assert abs(z) < 1e-3

    def test_symmetric_in_swap(self, model):
        # reciprocity: the function depends only on |d|, evaluated once per pair
        d = 0.37 * model.wavelength
        assert mutual_impedance(d, model) == mutual_impedance(d, model)

    def test_decay_envelope(self, model):
        lam = model.wavelength
        d = np.logspace(np.log10(0.2), np.log10(100.0), 64) * lam
        z = np.abs(mutual_impedance(d, model))
        assert z[-1] < 0.01 * z[0]

    def test_guard(self, model):
        with pytest.raises(TooClose):
            mutual_impedance(0.5 * model.min_separation, model)

    def test_vectorized(self, model):
        d = np.array([0.3, 0.5, 0.8]) * model.wavelength
        z = mutual_impedance(d, model)
        assert z.shape == (3,)
        for i, di in enumerate(d):
            assert z[i] == mutual_impedance(float(di), model)


class TestBuildBlock:
    def test_zero_couplers(self, model):
        blk = build_block(np.zeros((0, 2)), np.zeros(2), model)
        assert blk.N == 0
        assert blk.full_matrix().shape == (1, 1)
        assert blk.full_matrix()[0, 0] == model.self_impedance

    def test_equidistant_symmetry(self, layout, model):
        q = layout.active_position(0)
        d = 0.3 * layout.lam
        p = q[None, :] + np.array([[d, 0.0], [-d, 0.0]])
        blk = build_block(p, q, model)
        assert blk.z_bar[0] == blk.z_bar[1]

    def test_reciprocity_bit_exact(self, layout, model, rng):
        from fcarray import random_feasible_placement
        pl = random_feasible_placement(layout, rng)
        for m in range(layout.M):
            blk = build_block(pl.positions[m], layout.active_position(m), model)
            Z = blk.full_matrix()
            assert np.array_equal(Z, Z.T)
            assert np.all(np.diag(blk.Z_hat) == model.self_impedance)

    def test_entries_match_pairwise_calls(self, layout, model, rng):
        from fcarray import random_feasible_placement
        pl = random_feasible_placement(layout, rng)
        m = 1
        q = layout.active_position(m)
        blk = build_block(pl.positions[m], q, model)
        for n in range(layout.N):
            d = np.hypot(*(pl.positions[m, n] - q))
            assert blk.z_bar[n] == mutual_impedance(d, model)
            for n2 in range(n + 1, layout.N):
                d = np.hypot(*(pl.positions[m, n] - pl.positions[m, n2]))
                assert blk.Z_hat[n, n2] == mutual_impedance(d, model)

    def test_load_matrix(self, layout, model):
        pl = uniform_placement(layout)
        blk = build_block(pl.positions[0], layout.active_position(0), model)
        assert np.array_equal(blk.X, np.diag([model.load_impedance] * layout.N))
