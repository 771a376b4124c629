"""The adjoint gradient ``ObjectiveEvaluator.gradient_of`` against the
central-difference oracle ``gradient``, and its degenerate cases."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fcarray import ArrayLayout, DipoleModel, MultipathSpec, SCAConfig, optimize, sample_channels
from fcarray.errors import InfeasibleLayout, NumericalError, SingularGram
from fcarray.geometry import constraint_margins, random_feasible_placement, uniform_placement
from fcarray.impedance import mutual_impedance, mutual_impedance_derivative
from fcarray.optimizer import ObjectiveEvaluator, gradient
from fcarray.precoding import _gram_forward, fc_state, gram_rate_adjoint, gram_sum_rate

from test_acceptance import seeded


def relative_error(g, ref):
    return np.linalg.norm(g - ref) / np.linalg.norm(ref)


def test_matches_fd_on_acceptance_4_instances():
    """The ten acceptance-4 instances (M=2, N=2, K=2, uniform placement),
    every antenna: agreement to 1e-6 relative with the central differences
    at h = 1e-4 lambda, Richardson-extrapolated from h and h/2.  The plain
    h-step differences carry an O(h^2) truncation error of up to 1.04e-6
    relative here (seed 9), which the extrapolation removes."""
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    h = 1e-4 * lay.lam
    pl = uniform_placement(lay)
    for seed in range(10):
        spec = sample_channels(seeded(seed)[0], K=2, L=15, layout=lay)
        ev = ObjectiveEvaluator(spec, lay, model, 1.0, 0.05)
        ev.set_placement(pl)
        g = ev.gradient_of(pl)
        assert g.shape == (lay.M, 2 * lay.N)
        for m in range(lay.M):
            ref = (4.0 * gradient(pl, m, ev, h / 2) - gradient(pl, m, ev, h)) / 3.0
            assert relative_error(g[m], ref) <= 1e-6
            assert relative_error(g[m], gradient(pl, m, ev, h)) <= 2e-6


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(M=st.integers(1, 8), N=st.integers(1, 4), extra_users=st.integers(0, 9),
       A=st.sampled_from([0.5, 1.0, 2.0]), snr_db=st.sampled_from([0.0, 10.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_fd_across_shapes(M, N, extra_users, A, snr_db, seed):
    """Random feasible placements over M 1-8, N 1-4, K 1 to M+2 (K > M
    included), A in {0.5, 1, 2} wavelengths and SNR 0/10/30 dB: agreement
    to 1e-5 relative with the all-antenna central differences."""
    K = 1 + extra_users % (M + 2)
    lay = ArrayLayout(M=M, N=N, region_side=A)
    model = DipoleModel.for_layout(lay)
    rng = np.random.default_rng(seed)
    try:
        pl = random_feasible_placement(lay, rng, max_tries=2000)
    except InfeasibleLayout:
        assume(False)
    h = 1e-4 * lay.lam
    box, dist = constraint_margins(pl.positions, lay)
    # keep every probe of the oracle inside the feasible set
    assume(box.min() >= h and dist.min() >= lay.min_sep_m + h)
    spec = sample_channels(rng, K=K, L=15, layout=lay)
    ev = ObjectiveEvaluator(spec, lay, model, 1.0, 1.0 / (K * 10.0 ** (snr_db / 10.0)))
    ev.set_placement(pl)
    ref = gradient(pl, np.arange(M), ev, h)
    assert relative_error(ev.gradient_of(pl), ref) <= 1e-5


def test_zero_channel_gradient_is_exactly_zero():
    """All path gains zero: the rate is 0 everywhere, the gradient is exactly
    zero, and neither the gradient nor the SCA run warns."""
    lay = ArrayLayout(M=3, N=2)
    model = DipoleModel.for_layout(lay)
    spec = MultipathSpec(angles=np.zeros((2, 3)), gains=np.zeros((2, 3), dtype=complex))
    pl = uniform_placement(lay)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = ObjectiveEvaluator(spec, lay, model, 1.0, 0.05)
        g = ev.gradient_of(pl)
        res = optimize(pl, SCAConfig(), spec, lay, model, 1.0, 0.05)
    assert np.array_equal(g, np.zeros((lay.M, 2 * lay.N)))
    assert res.trace.rates == [0.0, 0.0]


def test_non_finite_gradient_raises(monkeypatch):
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(3, K=2, L=15, layout=lay)
    pl = uniform_placement(lay)
    ev = ObjectiveEvaluator(spec, lay, model, 1.0, 0.05)
    assert np.all(np.isfinite(ev.gradient_of(pl)))
    monkeypatch.setattr("fcarray.optimizer.mutual_impedance_derivative",
                        lambda d, model: np.full(np.shape(d), np.nan + 0j))
    with pytest.raises(NumericalError, match="non-finite"):
        ev.gradient_of(pl)
    with pytest.raises(NumericalError, match="non-finite"):
        optimize(pl, SCAConfig(), spec, lay, model, 1.0, 0.05)


def test_gradient_reads_the_cached_forward():
    """One full evaluation serves the rate and the gradient; moving the
    placement rebuilds it, and a fresh evaluator agrees bit for bit."""
    lay = ArrayLayout(M=4, N=3)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(8, K=3, L=15, layout=lay)
    ev = ObjectiveEvaluator(spec, lay, model, 1.0, 0.05)
    pl = uniform_placement(lay)
    state = ev.state_of(pl)
    g = ev.gradient_of(pl.copy())
    assert ev.state_of(pl) is state
    moved = random_feasible_placement(lay, np.random.default_rng(1))
    g_moved = ev.gradient_of(moved)
    fresh = ObjectiveEvaluator(spec, lay, model, 1.0, 0.05)
    assert np.array_equal(g_moved, fresh.gradient_of(moved))
    assert np.array_equal(g, fresh.gradient_of(pl))
    # the forward the gradient reads is fc_state's, bit for bit
    ref = fc_state(spec, moved, lay, model, 1.0, 0.05)
    st = ev.state_of(moved)
    assert st.sum_rate == ref.sum_rate and np.array_equal(st.U, ref.U)


def test_mutual_impedance_derivative_matches_central_differences():
    lay = ArrayLayout(M=1, N=1)
    model = DipoleModel.for_layout(lay)
    d = np.linspace(lay.min_sep_m + 1e-3 * lay.lam, 3.0 * lay.lam, 200)
    h = 1e-5 * lay.lam
    fd = (mutual_impedance(d + h, model) - mutual_impedance(d - h, model)) / (2.0 * h)
    dz = mutual_impedance_derivative(d, model)
    assert np.max(np.abs(dz - fd) / np.abs(dz)) < 1e-6


def test_gram_rate_adjoint_rejects_an_ill_conditioned_gram():
    # a silent user and alpha = 2e-16: cond(W + alpha I) ~ 5e15 exceeds the
    # Gram limit, so the adjoint raises where the forward does
    W = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SingularGram):
        gram_sum_rate(W, 1.0, 1e-16)
    with pytest.raises(SingularGram):
        gram_rate_adjoint(_gram_forward(W, 1.0, 1e-16), 1.0, 1e-16)


@pytest.mark.parametrize("K, sigma2", [(1, 0.1), (3, 0.01), (4, 1.0)])
def test_gram_rate_adjoint_matches_directional_differences(K, sigma2):
    rng = np.random.default_rng(K)
    G = rng.standard_normal((K, 5)) + 1j * rng.standard_normal((K, 5))
    W = G @ G.conj().T
    Psi = gram_rate_adjoint(_gram_forward(W, 1.0, sigma2), 1.0, sigma2)
    assert np.array_equal(Psi, Psi.conj().T)
    for _ in range(5):
        X = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        D = X + X.conj().T  # Hermitian direction
        h = 1e-6
        fd = (gram_sum_rate(W + h * D, 1.0, sigma2)
              - gram_sum_rate(W - h * D, 1.0, sigma2)) / (2.0 * h)
        assert np.trace(Psi @ D).real == pytest.approx(fd, rel=1e-6, abs=1e-9)
