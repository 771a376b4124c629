"""The exhaustive measurement baseline: bit-identical to the frozen
per-(antenna, coupler) version in ``exhaustive_reference``, and each lattice
point and parked coupler steered once, in two impedance assemblies.  Its
predictions equal the frozen full-search predictor's, ties and infeasible
nearest points included."""

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


def full_search(res, P):
    """Nearest feasible candidate of each coupler from the full distance cube."""
    d2 = np.sum((res.candidates[:, None] - P[..., None, :]) ** 2, axis=-1)
    return np.argmin(np.where(res.feasible, d2, np.inf), axis=-1)


def assert_predicts_as_reference(res, lay, model, P):
    assert np.array_equal(res._nearest_feasible(P), full_search(res, P))
    assert np.array_equal(res.predict(P, lay, model), ref.predict(res, P))


@pytest.mark.parametrize("shape", [(4, 2), (2, 3), (3, 1), (2, 0), (1, 1)])
@pytest.mark.parametrize("D", [1, 4, 9, 25, 400])
def test_predicts_random_queries_as_the_full_search(shape, D):
    lay, model, spec, session = case(*shape, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    rng = np.random.default_rng(D + 10 * shape[0] + shape[1])
    lo = np.stack([lay.region_bounds(m)[0] for m in range(lay.M)])[:, None]
    hi = np.stack([lay.region_bounds(m)[1] for m in range(lay.M)])[:, None]
    pad = 0.3 * (hi - lo)  # some queries fall outside their region
    P = rng.uniform(lo - pad, hi + pad, size=(200,) + res.feasible.shape[:2] + (2,))
    assert_predicts_as_reference(res, lay, model, P)
    assert_predicts_as_reference(res, lay, model, P[0])


@pytest.mark.parametrize("D", [16, 400])
def test_cell_boundary_queries_go_to_the_lowest_index(D):
    lay, model, spec, session = case(4, 2, K=2, tau=5, sigma2=0.0)
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    side = res.ledger["lattice_side"]
    xs, ys = res.candidates[:, :side, 0], res.candidates[:, ::side, 1]  # columns, rows
    # midpoints between neighbouring columns and rows, the candidates
    # themselves, and every cross of them: edges, points and corners
    mx = np.concatenate([xs, 0.5 * (xs[:, 1:] + xs[:, :-1])], axis=1)
    my = np.concatenate([ys, 0.5 * (ys[:, 1:] + ys[:, :-1])], axis=1)
    grid = np.stack(np.broadcast_arrays(mx[:, :, None], my[:, None, :]), axis=-1)
    P = np.repeat(grid.reshape(lay.M, -1, 1, 2), lay.N, axis=2).swapaxes(0, 1)
    d2 = np.sum((res.candidates[:, None] - P[..., None, :]) ** 2, axis=-1)
    ties = np.sum(d2 == d2.min(axis=-1, keepdims=True), axis=-1)
    assert (ties > 1).any()  # exact floating ties are among the queries
    assert_predicts_as_reference(res, lay, model, P)


def test_queries_with_an_infeasible_nearest_point_search_the_feasible_ones():
    lay, model, spec, session = case(4, 2, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=400)
    # each infeasible candidate of each coupler, as a query for that coupler
    m, n, d = np.nonzero(~res.feasible)
    P = np.repeat(res.parked.positions[None], len(m), axis=0)
    P[np.arange(len(m)), m, n] = res.candidates[m, d]
    assert len(m) > 0
    got = res._nearest_feasible(P)[np.arange(len(m)), m, n]
    assert res.feasible[m, n, got].all()
    assert_predicts_as_reference(res, lay, model, P)
    P[0, 0, 0] = np.nan  # a non-finite query takes the full search too
    assert_predicts_as_reference(res, lay, model, P)


def test_far_queries_whose_sums_round_to_ties_take_the_full_search():
    """Far from the lattice one axis's square swamps the other's in the sum,
    so whole rows or columns tie; the full search then picks index 0 of the
    row, not the per-axis nearest column, and the block's bound sends those
    queries there."""
    lay, model, spec, session = case(4, 2, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=400)
    rng = np.random.default_rng(5)
    P = np.repeat(res.parked.positions[None], 40, axis=0)
    P[:20, :, :, 1] += rng.choice([-1e8, 1e8], size=(20, lay.M, lay.N))
    P[20:, :, :, 0] += rng.choice([-1e8, 1e8], size=(20, lay.M, lay.N))
    assert_predicts_as_reference(res, lay, model, P)


def test_a_coupler_without_feasible_candidates_keeps_index_zero():
    lay, model, spec, session = case(1, 1, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=1)
    assert not res.feasible.any()
    P = np.random.default_rng(0).uniform(-0.05, 0.05, size=(7, 1, 1, 2))
    assert np.array_equal(res._nearest_feasible(P), np.zeros((7, 1, 1), dtype=int))
    assert_predicts_as_reference(res, lay, model, P)
