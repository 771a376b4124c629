"""The exhaustive measurement baseline: bit-identical to the frozen
per-(antenna, coupler) version in ``exhaustive_reference``, and each lattice
point and parked coupler steered once, in two impedance assemblies."""

import itertools

import numpy as np
import pytest

from fcarray import ArrayLayout, DipoleModel, chanest, channel, sample_channels
from fcarray.chanest import exhaustive_baseline, make_session

import exhaustive_reference as ref

SHAPES = [(4, 2), (2, 3), (3, 1), (2, 0), (1, 1), (3, 4)]


def case(M, N, K, tau, sigma2):
    lay = ArrayLayout(M=M, N=N)
    spec = sample_channels(M * 10 + N, K=K, L=6, layout=lay)
    session = make_session(lay, K=K, tau=tau, V=1, sigma2=sigma2, seed=M + N)
    return lay, DipoleModel.for_layout(lay), spec, session


def assert_matches_reference(lay, model, spec, session, D):
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    want = ref.exhaustive_baseline(session, spec, lay, model, D=D)
    for name in ("candidates", "feasible", "table", "base"):
        got = getattr(res, name)
        assert got.shape == want[name].shape, name
        assert np.array_equal(got, want[name]), name
    assert res.ledger == want["ledger"]
    return res


@pytest.mark.parametrize("shape, D, sigma2",
                         list(itertools.product(SHAPES, [1, 25, 400], [0.0, 0.3])))
def test_matches_the_per_pair_reference(shape, D, sigma2):
    res = assert_matches_reference(*case(*shape, K=2, tau=5, sigma2=sigma2), D)
    if shape[1] and D == 400:
        assert res.feasible.any() and not res.feasible.all()


@pytest.mark.parametrize("shape", [(4, 2), (3, 4)])
def test_matches_the_reference_at_tau_equal_to_K(shape):
    assert_matches_reference(*case(*shape, K=3, tau=3, sigma2=0.3), 25)


@pytest.mark.parametrize("shape", [(4, 2), (2, 3)])
def test_steers_each_lattice_point_once(shape, monkeypatch):
    steered, blocks = [], []
    kernel, assemble = channel.steering_coupler_block, chanest.build_block

    def count_steering(phi, p_m, lam):
        steered.append(int(np.prod(np.shape(p_m)[:-1])))
        return kernel(phi, p_m, lam)

    def count_blocks(*args, **kw):
        blocks.append(args[0])
        return assemble(*args, **kw)

    for mod in (channel, chanest):
        monkeypatch.setattr(mod, "steering_coupler_block", count_steering)
    monkeypatch.setattr(chanest, "build_block", count_blocks)
    lay, model, spec, session = case(*shape, K=2, tau=5, sigma2=0.3)
    D = 400
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    M, N = shape
    assert sum(steered) <= M * D + M * N
    # one assembly for the parked couplers, one for all feasible candidates
    assert len(blocks) == 2
    assert len(blocks[1]) == res.feasible.sum()
