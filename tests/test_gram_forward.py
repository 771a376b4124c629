"""The one regularized-Gram solve (``precoding._gram_forward``): the
precoders agree with the frozen regularized-inverse path of
``precoder_reference``, and a full evaluation with its gradient solves the
Gram once."""

import numpy as np
import pytest

from fcarray import ArrayLayout, DipoleModel, MultipathSpec, sample_channels
from fcarray import precoding
from fcarray.errors import SingularGram
from fcarray.geometry import random_feasible_placement, uniform_placement
from fcarray.optimizer import ObjectiveEvaluator
from fcarray.precoding import fully_active_state, mmse_precoder

import precoder_reference as ref

FIELDS = ("F", "U", "sinr", "sum_rate", "beta", "gram_cond")


def assert_matches_reference(state, expected):
    for name in FIELDS:
        got, want = np.asarray(getattr(state, name)), np.asarray(expected[name])
        assert got.shape == want.shape, name
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def random_channel(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# (batch shape, K, M, channel scale, noise scale)
MMSE_CASES = [
    ((), 1, 4, 1.0, 1.0),
    ((), 3, 8, 1.0, 1.0),
    ((), 4, 4, 1.0, 1.0),  # K = M
    ((), 6, 6, 1.0, 0.01),  # K = M, high SNR
    ((5,), 3, 6, 1.0, 1.0),
    ((2, 3), 2, 5, 1.0, 0.1),
    ((4,), 4, 4, 1.0, 1.0),  # batched K = M
    ((), 3, 6, 1e-7, 1.0),  # weak channel at the unscaled noise
    ((3,), 2, 5, 1e-7, 1e-14),  # weak channel, noise scaled with it
    ((), 2, 5, 0.0, 1.0),  # zero channel
    ((3,), 3, 4, 0.0, 1.0),  # batched zero channels
]


@pytest.mark.parametrize("batch, K, M, scale, noise", MMSE_CASES)
def test_mmse_precoder_matches_the_regularized_inverse(batch, K, M, scale, noise):
    rng = np.random.default_rng(K * 100 + M)
    G = scale * random_channel(rng, batch + (K, M))
    B = rng.uniform(20.0, 120.0, batch + (M,))
    for P_max in (0.5, 2.0):
        sigma2 = noise * float(rng.uniform(0.01, 0.3))
        assert_matches_reference(mmse_precoder(G, B, P_max, sigma2),
                                 ref.mmse_precoder(G, B, P_max, sigma2))


@pytest.mark.parametrize("M, N, K, seed", [(3, 2, 1, 0), (2, 1, 4, 1), (4, 2, 3, 2),
                                           (2, 1, 6, 3)])  # K = M(N+1) ports
def test_fully_active_state_matches_the_regularized_inverse(M, N, K, seed):
    lay = ArrayLayout(M=M, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(seed, K=K, L=6, layout=lay)
    weak = MultipathSpec(angles=spec.angles, gains=1e-7 * spec.gains)
    for sp, P_max, sigma2 in ((spec, 1.0, 0.05), (spec, 3.0, 0.5), (weak, 1.0, 1e-15)):
        assert_matches_reference(fully_active_state(sp, lay, model, P_max, sigma2),
                                 ref.fully_active_state(sp, lay, model, P_max, sigma2))


def test_fully_active_zero_channel_is_the_silent_precoder():
    lay = ArrayLayout(M=3, N=2)
    model = DipoleModel.for_layout(lay)
    spec = MultipathSpec(angles=np.zeros((2, 4)), gains=np.zeros((2, 4), dtype=complex))
    st = fully_active_state(spec, lay, model, 1.0, 0.05)
    assert st.beta == 0.0 and st.sum_rate == 0.0
    assert not np.any(st.U) and not np.any(st.F) and not np.any(st.sinr)
    assert np.linalg.norm(st.F) ** 2 == 0.0 < st.P_max  # power tr(U^H Re Z U)
    assert_matches_reference(st, ref.fully_active_state(spec, lay, model, 1.0, 0.05))


def test_adjoint_of_a_zero_gram_is_zero():
    for K in (1, 3):
        fwd = precoding._gram_forward(np.zeros((K, K), dtype=complex), 1.0, 0.1)
        assert fwd.beta == 0.0
        Psi = precoding.gram_rate_adjoint(fwd, 1.0, 0.1)
        assert Psi.shape == (K, K) and not np.any(Psi)


def test_one_gram_solve_per_full_evaluation(monkeypatch):
    """``rate_of`` solves the regularized Gram once; ``gradient_of`` reads that
    solve back and makes none of its own."""
    solve = precoding._certified_solve
    calls = []

    def counted(A, rhs, limit, error, what):
        calls.append(error is SingularGram)
        return solve(A, rhs, limit, error, what)

    monkeypatch.setattr(precoding, "_certified_solve", counted)
    lay = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(5, K=3, L=15, layout=lay)
    ev = ObjectiveEvaluator(spec, lay, model, 1.0, 0.05)
    for pl in (uniform_placement(lay), random_feasible_placement(lay, np.random.default_rng(2))):
        calls.clear()
        ev.rate_of(pl)
        assert sum(calls) == 1
        calls.clear()
        ev.gradient_of(pl)
        assert sum(calls) == 0


@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (2, 5, 4, 4), (0, 0), (3, 0, 0)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_frobenius_is_numpys_norm(shape, dtype):
    """The certified solve's condition bound reads the Frobenius norms of A
    and its inverse bit for bit as ``np.linalg.norm`` forms them."""
    rng = np.random.default_rng(len(shape))
    for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
        x = scale * rng.standard_normal(shape)
        if dtype is complex:
            x = x + 1j * scale * rng.standard_normal(shape)
        assert np.array_equal(precoding._frobenius(x), np.linalg.norm(x, axis=(-2, -1)))
