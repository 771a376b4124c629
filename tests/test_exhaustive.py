"""The exhaustive measurement baseline: bit-identical to the frozen
per-(antenna, coupler) version in ``exhaustive_reference``, each lattice
point and parked coupler steered once, and each trial's impedances only
those of the distances to the parked couplers and the parked pairs: the
lattice half is kept per (layout, model, D), rebuilt as a fresh process
builds it and not kept when its build raises.  Weyl's bound certifies the
coupling systems without assembly and the baseline raises SingularSystem
exactly where certifying every candidate does.  Its predictions equal the
frozen full-search predictor's, ties and infeasible nearest points
included, whether the rows they read were measured on the read or with the
whole table; the checks that can raise run before any row is read.  The
noise drawn after the pilot correlation has the moments of the correlated
time-domain noise it stands for."""

import itertools

import numpy as np
import pytest

from fcarray import ArrayLayout, DipoleModel, chanest, channel, sample_channels
from fcarray.chanest import exhaustive_baseline, make_session, nmse, pilot_correlate
from fcarray.errors import ConfigError, SingularSystem, TooClose
from fcarray.geometry import anchor_distances, random_feasible_placement
from fcarray.impedance import build_block
from fcarray.precoding import mech_weights

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
    """Each lattice point and parked coupler is steered once.  A second call
    on the same (layout, model, D) reads the kept lattice half and sends
    ``mutual_impedance`` only the distances to the parked couplers and the
    parked pairs; on the default model Weyl's bound certifies every
    candidate, so only the M parked systems are assembled before a row is
    read, from those impedances: no call builds a block."""
    steered, distances, assembled, built = [], [], [], []
    kernel, impedance, assemble = (channel.steering_coupler_block, chanest.mutual_impedance,
                                   chanest.assemble_block)

    def count_steering(phi, p_m, lam):
        steered.append(int(np.prod(np.shape(p_m)[:-1])))
        return kernel(phi, p_m, lam)

    def count_distances(d, model):
        distances.append(np.asarray(d))
        return impedance(d, model)

    def count_assembly(z, model):
        assembled.append(len(z))
        return assemble(z, model)

    for mod in (channel, chanest):
        monkeypatch.setattr(mod, "steering_coupler_block", count_steering)
    monkeypatch.setattr(chanest, "mutual_impedance", count_distances)
    monkeypatch.setattr(chanest, "assemble_block", count_assembly)
    monkeypatch.setattr(chanest, "build_block", lambda *args: built.append(args))
    monkeypatch.delitem(chanest._slots, "lattice", raising=False)  # as in a fresh process
    lay, model, spec, session = case(*shape, K=2, tau=5, sigma2=0.3)
    D = 400
    M, N = shape
    pairs = N * (N + 1) // 2  # spacing pairs of [q_m, p_1..p_N]
    first = exhaustive_baseline(session, spec, lay, model, D=D)
    assert sum(steered) <= M * D + M * N
    assert assembled == [M]
    # the kept half: the lattice-to-active distances, at most M D
    assert len(distances) == 2 and distances[0].size <= M * D
    steered.clear(), distances.clear(), assembled.clear()
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    assert sum(steered) <= M * D + M * N
    assert assembled == [M]
    assembled.clear()
    (d,) = distances
    to_parked = anchor_distances(res.candidates, res.parked.positions)
    assert d.size == np.count_nonzero(to_parked >= lay.min_sep_m) + M * pairs
    assert d.size <= M * N * D + M * pairs
    assert d.min() >= lay.min_sep_m
    # reading a whole table assembles its feasible candidates in one call
    assert np.array_equal(res.table, first.table)
    assert assembled == [res.feasible.sum()] * 2
    assert built == []


def kept_lattice():
    """The lattice slot's key and arrays."""
    return chanest._slots["lattice"]


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_a_changed_lattice_key_rebuilds_the_slot_as_a_fresh_process(monkeypatch):
    """A changed D, model or layout rebuilds the kept lattice half; the slot
    and the result equal those of a process that never built a slot."""
    lay, model, spec, session = case(2, 2, K=2, tau=5, sigma2=0.3)
    wide = ArrayLayout(M=2, N=2, region_side=1.5, d_min=0.2)
    steps = [(lay, model, spec, session, 25), (lay, model, spec, session, 16),
             (lay, DipoleModel.for_layout(lay, load_impedance=1.0 + 30.0j), spec, session, 16),
             (wide, DipoleModel.for_layout(wide), spec,
              make_session(wide, K=2, tau=5, V=1, sigma2=0.3, seed=3), 16),
             (lay, model, spec, session, 25)]
    for lay, model, spec, session, D in steps:
        res = exhaustive_baseline(session, spec, lay, model, D=D)
        key, arrays = kept_lattice()
        assert key == (lay, model, D)
        monkeypatch.delitem(chanest._slots, "lattice")  # as in a fresh process
        fresh = exhaustive_baseline(session, spec, lay, model, D=D)
        assert kept_lattice()[1] is not arrays
        for got, want in zip(arrays, kept_lattice()[1]):
            assert_bit_equal(got, want)
        for name in ("candidates", "feasible", "table", "base"):
            assert_bit_equal(getattr(res, name), getattr(fresh, name))


def test_a_lattice_build_that_raises_is_not_kept():
    """A model whose guard exceeds a lattice-to-active distance fails the
    lattice build with TooClose; the slot keeps the last good build, and the
    next call raises again."""
    lay, model, spec, session = case(2, 2, K=2, tau=5, sigma2=0.3)
    exhaustive_baseline(session, spec, lay, model, D=25)
    good = kept_lattice()
    to_active = good[1][1]
    nearest = to_active[to_active >= lay.min_sep_m].min()  # the lattice's closest clear point
    strict = DipoleModel.for_layout(lay, min_separation=1.01 * nearest)
    for _ in range(2):
        with pytest.raises(TooClose):
            exhaustive_baseline(session, spec, lay, strict, D=25)
        assert kept_lattice() is good
    exhaustive_baseline(session, spec, lay, model, D=25)
    assert kept_lattice() is good


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
    P[0, 0, 0] = np.nan  # a non-finite query goes to the first feasible candidate
    assert_predicts_as_reference(res, lay, model, P)


def test_far_queries_whose_sums_round_to_ties_go_to_the_lowest_index():
    """Far from the lattice one axis's square swamps the other's in the sum,
    so whole rows or columns tie; the search then picks the lowest index
    among them, not the per-axis nearest column."""
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


def random_queries(res, lay, count, seed):
    """``count`` query positions (count, M, N, 2), some outside their region."""
    rng = np.random.default_rng(seed)
    lo = np.stack([lay.region_bounds(m)[0] for m in range(lay.M)])[:, None]
    hi = np.stack([lay.region_bounds(m)[1] for m in range(lay.M)])[:, None]
    pad = 0.3 * (hi - lo)
    return rng.uniform(lo - pad, hi + pad, size=(count,) + res.feasible.shape[:2] + (2,))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("D", [1, 4, 25, 400])
def test_rows_measured_on_read_equal_the_whole_table(shape, D):
    """``predict`` before any ``table`` read measures only the rows it picks;
    those rows, its predictions and the predictions after a ``table`` read
    equal the reference's on a table measured all at once, bit for bit."""
    lay, model, spec, session = case(*shape, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=D)
    whole = exhaustive_baseline(session, spec, lay, model, D=D)
    P = random_queries(res, lay, 20, D + 10 * shape[0] + shape[1])
    before = res.predict(P, lay, model)
    assert res._measured.sum() <= min(len(res._measured), max(P[..., 0].size, 2))
    want = ref.predict(whole, P)
    assert np.array_equal(before, want)
    assert np.array_equal(res.predict(P[0], lay, model), ref.predict(whole, P[0]))
    assert np.array_equal(res.table, whole.table)
    assert res._measured.all()
    assert np.array_equal(res.predict(P, lay, model), want)


@pytest.mark.parametrize("shape", [(4, 2), (2, 3)])
def test_nmse_leaves_the_table_unmeasured(shape):
    lay, model, spec, session = case(*shape, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=400)
    rng = np.random.default_rng(1)
    tests = [random_feasible_placement(lay, rng) for _ in range(10)]
    value = nmse(res, spec, tests, lay, model)
    # at most one row per (test placement, coupler)
    assert 0 < res._measured.sum() <= 10 * lay.M * lay.N < len(res._measured)
    assert value == nmse(exhaustive_baseline(session, spec, lay, model, D=400), spec, tests,
                         lay, model)


def test_a_lone_row_read_rounds_as_in_the_whole_table():
    """A one-row matrix product rounds differently from the rows of a larger
    one: single-placement queries that each pick one row of a fresh result
    must still predict what the whole table does."""
    lay, model, spec, session = case(1, 1, K=2, tau=13, sigma2=0.3)
    whole = exhaustive_baseline(session, spec, lay, model, D=400)
    (d,) = np.nonzero(whole.feasible[0, 0])
    assert len(d) >= 2
    for i in d[::len(d) // 60]:
        res = exhaustive_baseline(session, spec, lay, model, D=400)
        P = whole.candidates[:, i][:, None]  # (M, N, 2) at candidate i
        assert np.array_equal(res.predict(P, lay, model), ref.predict(whole, P))
        assert np.array_equal(res._nearest_feasible(P), [[i]])


@pytest.mark.parametrize("N", [2, 3])
def test_an_unread_singular_candidate_raises_in_the_baseline(N):
    """The load impedance that makes one candidate's coupling system
    singular: ``exhaustive_baseline`` raises before any row is read, though
    no query would pick that candidate's row and the parked system is
    well-conditioned."""
    lay, model, spec, session = case(2, N, K=2, tau=5, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=25)
    m, n, d = (i[-1] for i in np.nonzero(res.feasible))
    moved = res.parked.positions[m].copy()
    moved[n] = res.candidates[m, d]
    q = lay.active_positions()[m]
    Z_hat = build_block(moved, q, model).Z_hat
    # the load that cancels an eigenvalue of the couplers' mutual impedances
    lam = np.linalg.eigvals(Z_hat - model.self_impedance * np.eye(N))[0]
    bad = DipoleModel.for_layout(lay, load_impedance=-lam - model.self_impedance)
    with pytest.raises(SingularSystem):
        mech_weights(build_block(moved, q, bad))
    mech_weights(build_block(res.parked.positions, lay.active_positions(), bad))
    with pytest.raises(SingularSystem):
        exhaustive_baseline(session, spec, lay, bad, D=25)


def singular_load(lay, model, res, i, shift=0.0):
    """The load impedance that cancels an eigenvalue of the couplers' mutual
    impedances of feasible candidate i of ``res``, moved off by ``shift``
    (relative to that eigenvalue)."""
    m, n, d = (idx[i] for idx in np.nonzero(res.feasible))
    moved = res.parked.positions[m].copy()
    moved[n] = res.candidates[m, d]
    Z_hat = build_block(moved, lay.active_positions()[m], model).Z_hat
    lam = np.linalg.eigvals(Z_hat - model.self_impedance * np.eye(lay.N))[0]
    return -lam - model.self_impedance + shift * abs(lam)


def farthest(res):
    """Index of the feasible candidate farthest from the other parked couplers
    of its antenna, whose coupling system the parked pairs dominate."""
    m, n, d = np.nonzero(res.feasible)
    dist = anchor_distances(res.candidates, res.parked.positions)[m, :, d]  # (F, N)
    return np.argmax(np.where(np.arange(dist.shape[1]) != n[:, None], dist, np.inf).min(-1))


def certificate_cases():
    """Seeded random layouts (M 1-4, N 1-3, A 0.5-2.5, d_min up to A/4) with
    the default load, a load that makes one candidate's coupling system
    singular (some candidates farthest from the other couplers), and loads
    near it whose condition numbers straddle ``COND_LIMIT``; then the two
    resonant cases of ``test_an_unread_singular_candidate_raises_in_the_baseline``."""
    rng = np.random.default_rng(29)
    for i in range(48):
        M, N = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        A = float(rng.uniform(0.5, 2.5))
        lay = ArrayLayout(M=M, N=N, region_side=A, d_min=float(rng.uniform(0.05, A / 4)))
        model = DipoleModel.for_layout(lay)
        session = make_session(lay, K=2, tau=5, V=1, sigma2=0.3, seed=i)
        spec = sample_channels(i, K=2, L=4, layout=lay)
        D = int(rng.choice([25, 100]))
        if i % 3:
            res = exhaustive_baseline(session, spec, lay, model, D=D)
            shift = 0.0 if i % 3 == 1 else float(10.0 ** -rng.uniform(6.0, 15.0))
            pick = farthest(res) if i % 6 == 1 else rng.integers(res.feasible.sum())
            load = singular_load(lay, model, res, pick, shift)
            model = DipoleModel.for_layout(lay, load_impedance=load)
        yield lay, model, spec, session, D
    for N in (2, 3):
        lay, model, spec, session = case(2, N, K=2, tau=5, sigma2=0.3)
        res = exhaustive_baseline(session, spec, lay, model, D=25)
        bad = DipoleModel.for_layout(lay, load_impedance=singular_load(lay, model, res, -1))
        yield lay, bad, spec, session, 25


def test_the_certificate_raises_where_every_candidate_certified_raises(monkeypatch):
    """Weyl's bound screens the candidates and only those it leaves open are
    assembled and certified: ``exhaustive_baseline`` raises SingularSystem
    exactly where ``mech_weights`` on every feasible candidate does."""
    assembled = []
    assemble = chanest.assemble_block
    monkeypatch.setattr(chanest, "assemble_block",
                        lambda z, model: assembled.append(len(z)) or assemble(z, model))
    outcomes = []
    for lay, model, spec, session, D in certificate_cases():
        assembled.clear()
        try:
            ref.certify(session, lay, model, D=D)
            want = False
        except SingularSystem:
            want = True
        try:
            exhaustive_baseline(session, spec, lay, model, D=D)
            got = False
        except SingularSystem:
            got = True
        assert got == want, (lay, model, D)
        outcomes.append((got, sum(assembled)))
    # both verdicts, and candidates left open by the bound but certified
    assert {got for got, _ in outcomes} == {False, True}
    assert any(not got and opened for got, opened in outcomes)
    assert all(got for got, _ in outcomes[-2:])


def test_the_bound_leaves_candidates_open_that_then_pass(monkeypatch):
    """Some certificate cases that do not raise leave candidates open to
    Weyl's bound: more systems are assembled than the M parked ones, which
    the parked measurement assembles after the certificate."""
    assembled = []
    assemble = chanest.assemble_block
    monkeypatch.setattr(chanest, "assemble_block",
                        lambda z, model: assembled.append(len(z)) or assemble(z, model))
    opened = []
    for lay, model, spec, session, D in certificate_cases():
        assembled.clear()
        try:
            exhaustive_baseline(session, spec, lay, model, D=D)
        except SingularSystem:
            continue
        assert assembled[-1] == lay.M
        opened.append(sum(assembled[:-1]))
    assert any(opened)


@pytest.mark.parametrize("D", [0, 2, 3, 24, 500, 1000])
def test_a_lattice_size_that_is_not_a_square_is_rejected(D):
    lay, model, spec, session = case(2, 1, K=2, tau=5, sigma2=0.3)
    with pytest.raises(ConfigError, match="^D: must be a positive perfect square"):
        exhaustive_baseline(session, spec, lay, model, D=D)


Z = 6.0  # standard errors a sample moment may stray, fixed before any draw


def assert_white(n, v):
    """Sample moments of R draws n (R, K) against CN(0, v I_K), each within
    Z standard errors of R independent draws."""
    R, K = n.shape
    mean = n.mean(axis=0)
    assert np.all(np.abs([mean.real, mean.imag]) <= Z * np.sqrt(v / 2 / R))
    # |n_k|^2 is exponential with mean v and standard deviation v
    assert np.all(np.abs(np.mean(np.abs(n) ** 2, axis=0) - v) <= Z * v / np.sqrt(R))
    # each part of n_j conj(n_k), j != k, has standard deviation v / sqrt(2)
    cross = (n.T @ n.conj() / R)[~np.eye(K, dtype=bool)]
    assert np.all(np.abs([cross.real, cross.imag]) <= Z * v / np.sqrt(2 * R))
    # Re n_k Im n_k has standard deviation v / 2
    assert np.all(np.abs(np.mean(n.real * n.imag, axis=0)) <= Z * v / 2 / np.sqrt(R))


def test_the_noise_is_the_correlated_white_noise():
    """table(sigma2) - table(0) is each measurement's noise: white across the
    K users with variance sigma_eff2 = sigma2 / tau, within the same bounds
    as the correlation n S^H / tau of white time-domain noise n that it
    stands for."""
    sigma2 = 0.3
    lay, model, spec, noisy = case(4, 2, K=3, tau=13, sigma2=sigma2)
    clean = case(4, 2, K=3, tau=13, sigma2=0.0)[3]
    res, res0 = (exhaustive_baseline(s, spec, lay, model, D=400) for s in (noisy, clean))
    noise = np.concatenate([res.base - res0.base, (res.table - res0.table)[res.feasible]])
    assert len(noise) > 3000
    assert_white(noise, noisy.sigma_eff2)
    rng = np.random.default_rng(7)
    n = np.sqrt(sigma2 / 2.0) * (rng.standard_normal((len(noise), noisy.tau))
                                 + 1j * rng.standard_normal((len(noise), noisy.tau)))
    assert_white(pilot_correlate(n, noisy.S, noisy.tau), noisy.sigma_eff2)


@pytest.mark.parametrize("tau", [13, 64])
def test_the_kept_noise_does_not_grow_with_tau(tau):
    lay, model, spec, session = case(4, 2, K=2, tau=tau, sigma2=0.3)
    res = exhaustive_baseline(session, spec, lay, model, D=400)
    assert res.pending.noise.shape == (res.feasible.sum(), 2, 2)
