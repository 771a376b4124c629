from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from fcarray import (
    ArrayLayout,
    CouplerPlacement,
    DipoleModel,
    is_feasible,
    linearize_spacing,
    load_placement,
    project_onto_set,
    random_feasible_placement,
    save_placement,
    sample_channels,
    uniform_placement,
)
from fcarray.errors import (
    AnchorInfeasible,
    ConfigError,
    DimensionMismatch,
    InfeasibleLayout,
)
from fcarray.geometry import (
    LinearizedFeasibleSet,
    Violation,
    constraint_margins,
    single_coupler_moves,
    spacing_pairs,
)
from fcarray.optimizer import CLEARANCE_WL, ObjectiveEvaluator, relaxed_update


def contains(fs, x, atol=1e-12):
    """Whether x lies in one antenna's linearized set, to ``atol``."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= fs.box_lo - atol) and np.all(x <= fs.box_hi + atol)
                and np.all(fs.normals @ x <= fs.offsets + atol))


def slacks(fs, x):
    """Half-space slacks offsets - normals @ x of one antenna's set (>= 0 inside)."""
    return fs.offsets - fs.normals @ np.asarray(x, dtype=float)


def pair_list(N):
    """The ``spacing_pairs`` order as a list of (a, b) tuples."""
    a, b = spacing_pairs(N)
    return list(zip(a.tolist(), b.tolist()))


class TestLayout:
    def test_wavelength(self):
        lay = ArrayLayout(M=1, N=1, f_c=7e9)
        assert abs(lay.lam - 299792458.0 / 7e9) / lay.lam < 1e-12

    def test_active_positions(self):
        lay = ArrayLayout(M=3, N=0)
        q = lay.active_positions()
        assert np.allclose(q[:, 0], 0.0)
        assert np.allclose(np.diff(q[:, 1]), 2.2 * lay.lam)

    @pytest.mark.parametrize("kw", [
        {"M": 0, "N": 1}, {"M": 1, "N": -1}, {"M": 1, "N": 1, "d_y": 0.0},
        {"M": 1, "N": 1, "d_min": 0.0}, {"M": 1, "N": 1, "d_min": 3.0},
        {"M": 2, "N": 1, "f_c": -1.0}, {"M": 1, "N": 1, "region_side": float("nan")},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            ArrayLayout(**kw)


class TestUniformPlacement:
    def test_single_coupler_offset(self):
        lay = ArrayLayout(M=1, N=1)
        pl = uniform_placement(lay)
        # one point just outside the spacing guard, on boresight
        off = pl.positions[0, 0] - lay.active_position(0)
        assert off[1] == 0.0
        assert off[0] >= lay.min_sep_m
        assert is_feasible(pl, lay).ok

    def test_two_couplers_symmetric(self):
        lay = ArrayLayout(M=3, N=2)
        pl = uniform_placement(lay)
        for m in range(3):
            a, b = pl.positions[m] - lay.active_position(m)
            # mirror pair about the boresight axis through q_m
            assert a[0] == pytest.approx(b[0])
            assert a[1] == pytest.approx(-b[1])
            assert np.hypot(*(a - b)) >= lay.min_sep_m
        assert is_feasible(pl, lay).ok

    def test_same_for_all_antennas(self):
        lay = ArrayLayout(M=4, N=3)
        pl = uniform_placement(lay)
        offs = pl.positions - lay.active_positions()[:, None, :]
        for m in range(1, 4):
            assert np.allclose(offs[m], offs[0], atol=1e-12 * lay.lam)

    def test_packing_bound(self):
        lay = ArrayLayout(M=1, N=100, region_side=1.0, d_min=0.5)
        with pytest.raises(InfeasibleLayout):
            uniform_placement(lay)

    def test_deterministic(self):
        lay = ArrayLayout(M=2, N=3)
        assert np.array_equal(uniform_placement(lay).positions,
                              uniform_placement(lay).positions)

    def test_small_region_configs(self):
        # the region-size sweep exercises these
        for A in (0.5, 1.0, 2.0):
            for N in (2, 3):
                lay = ArrayLayout(M=2, N=N, region_side=A)
                assert is_feasible(uniform_placement(lay), lay).ok


class TestIsFeasible:
    def test_uniform_ok(self, layout):
        assert is_feasible(uniform_placement(layout), layout).ok

    def test_coincident_couplers(self, layout):
        pl = uniform_placement(layout)
        pl.positions[0, 1] = pl.positions[0, 0]
        report = is_feasible(pl, layout)
        assert not report.ok
        spacing = [v for v in report.violations if v.kind == "spacing"]
        assert spacing
        assert spacing[0].margin == pytest.approx(-layout.min_sep_m)

    def test_coupler_on_active_element(self, layout):
        pl = uniform_placement(layout)
        pl.positions[2, 0] = layout.active_position(2)
        report = is_feasible(pl, layout)
        assert not report.ok
        pairs = [v.pair for v in report.violations if v.antenna == 2]
        assert any(p[0] == 0 for p in pairs)

    def test_outside_region(self, layout):
        pl = uniform_placement(layout)
        pl.positions[1, 0] = layout.active_position(1) + np.array(
            [layout.region_side_m, 0.0])
        report = is_feasible(pl, layout)
        assert any(v.kind == "region" for v in report.violations)

    def test_dimension_mismatch(self, layout):
        pl = uniform_placement(ArrayLayout(M=2, N=2))
        with pytest.raises(DimensionMismatch):
            is_feasible(pl, layout)


class TestLinearize:
    def test_anchor_slack(self, layout):
        anchor = uniform_placement(layout)
        for m in range(layout.M):
            fs = linearize_spacing(anchor, m, layout)
            slack = slacks(fs, anchor.antenna_vector(m))
            assert np.all(slack >= 0.0)
            # slack of each pair equals d(anchor) - d_min^2 exactly
            pts = np.vstack([layout.active_position(m)[None, :],
                             anchor.positions[m]])
            for idx, (a, b) in enumerate(pair_list(layout.N)):
                d_val = np.sum((pts[a] - pts[b]) ** 2)
                assert slack[idx] == pytest.approx(d_val - layout.min_sep_m**2)

    def test_single_coupler_normal(self):
        lay = ArrayLayout(M=1, N=1)
        anchor = uniform_placement(lay)
        fs = linearize_spacing(anchor, 0, lay)
        assert fs.normals.shape == (1, 2)
        expected = 2.0 * (lay.active_position(0) - anchor.positions[0, 0])
        assert np.allclose(fs.normals[0], expected)

    def test_members_satisfy_true_constraints(self, layout, rng):
        # rejection-sample the polytope; every member must be feasible in the
        # original nonconvex set (inner approximation)
        anchor = uniform_placement(layout)
        m = 1
        fs = linearize_spacing(anchor, m, layout)
        found = 0
        for _ in range(20000):
            x = rng.uniform(fs.box_lo, fs.box_hi)
            if contains(fs, x):
                found += 1
                pl = anchor.with_antenna_vector(m, x)
                assert is_feasible(pl, layout).ok
            if found >= 1000:
                break
        assert found >= 200  # sanity: the set is not degenerate

    def test_infeasible_anchor_rejected(self, layout):
        bad = uniform_placement(layout)
        bad.positions[0, 1] = bad.positions[0, 0]
        with pytest.raises(AnchorInfeasible):
            linearize_spacing(bad, 0, layout)

    def test_given_margins_build_the_same_sets(self, layout):
        anchor = uniform_placement(layout)
        idx, margin = np.arange(layout.M), 1e-4 * layout.lam
        own = linearize_spacing(anchor, idx, layout, margin=margin)
        given = linearize_spacing(anchor, idx, layout, margin=margin,
                                  margins=constraint_margins(anchor.positions, layout))
        for name in ("box_lo", "box_hi", "normals", "offsets"):
            assert np.array_equal(getattr(own, name), getattr(given, name))

    def test_anchor_check_reads_the_given_margins(self, layout):
        anchor = uniform_placement(layout)
        box, dist = constraint_margins(anchor.positions, layout)
        dist = dist.copy()
        dist[2, 0] = 0.5 * layout.min_sep_m  # a violation only the given margins show
        with pytest.raises(AnchorInfeasible, match="antenna 2"):
            linearize_spacing(anchor, np.arange(layout.M), layout, margins=(box, dist))

    def test_margin_shrinks_set(self, layout):
        anchor = uniform_placement(layout)
        fs0 = linearize_spacing(anchor, 0, layout)
        fs1 = linearize_spacing(anchor, 0, layout, margin=1e-4 * layout.lam)
        assert np.all(fs1.box_lo >= fs0.box_lo)
        assert np.all(fs1.offsets <= fs0.offsets)


class TestProjection:
    def test_member_unchanged(self, layout):
        anchor = uniform_placement(layout)
        fs = linearize_spacing(anchor, 0, layout)
        x = anchor.antenna_vector(0)
        assert np.allclose(project_onto_set(x, fs), x)

    def test_box_only_clamp(self, layout):
        anchor = uniform_placement(layout)
        fs = linearize_spacing(anchor, 0, layout)
        x = anchor.antenna_vector(0)
        y = x.copy()
        y[0] = fs.box_hi[0] + 0.01  # push one coordinate out of the box
        proj = project_onto_set(y, fs)
        expected = np.clip(y, fs.box_lo, fs.box_hi)
        if contains(fs, expected):
            assert np.allclose(proj, expected, atol=1e-10)

    def test_single_halfspace_closed_form(self):
        lay = ArrayLayout(M=1, N=1)
        anchor = uniform_placement(lay)
        fs = linearize_spacing(anchor, 0, lay)
        # a point violating only the half-space, well inside the box
        a = fs.normals[0]
        b = fs.offsets[0]
        x = anchor.antenna_vector(0) + 0.4 * lay.min_sep_m * a / np.linalg.norm(a)
        assert fs.normals @ x > fs.offsets  # actually violating
        proj = project_onto_set(x, fs)
        viol = a @ x - b
        expected = x - viol * a / (a @ a)
        assert np.allclose(proj, expected, atol=1e-9 * lay.lam)

    def test_idempotent_and_nonexpansive(self, layout, rng):
        anchor = uniform_placement(layout)
        fs = linearize_spacing(anchor, 2, layout)
        scale = layout.region_side_m
        center = anchor.antenna_vector(2)
        for _ in range(50):
            x = center + rng.uniform(-scale, scale, size=center.size)
            y = center + rng.uniform(-scale, scale, size=center.size)
            px = project_onto_set(x, fs)
            py = project_onto_set(y, fs)
            assert np.linalg.norm(project_onto_set(px, fs) - px) \
                <= 1e-8 * layout.lam
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-8)

    def test_projected_points_feasible(self, layout, rng):
        # inner-approximation guarantee across many random exterior points
        anchor = uniform_placement(layout)
        for m in range(layout.M):
            fs = linearize_spacing(anchor, m, layout)
            center = anchor.antenna_vector(m)
            for _ in range(250):
                x = center + rng.uniform(-2, 2, size=center.size) * layout.region_side_m
                proj = project_onto_set(x, fs)
                assert contains(fs, proj, atol=1e-7 * layout.lam)
                pl = anchor.with_antenna_vector(m, proj)
                assert is_feasible(pl, layout).ok


class TestSerialization:
    def test_round_trip(self, tmp_path, layout):
        pl = uniform_placement(layout)
        path = tmp_path / "placement.json"
        save_placement(path, pl, layout)
        loaded, lay2 = load_placement(path)
        assert lay2 == layout
        assert np.allclose(loaded.positions, pl.positions)


class TestRandomFeasible:
    def test_always_feasible(self, layout, rng):
        for _ in range(20):
            pl = random_feasible_placement(layout, rng)
            assert is_feasible(pl, layout).ok

    def test_seeded_determinism(self, layout):
        a = random_feasible_placement(layout, np.random.default_rng(7))
        b = random_feasible_placement(layout, np.random.default_rng(7))
        assert np.array_equal(a.positions, b.positions)


# ---------------------------------------------------------------------------
# batched geometry: frozen per-antenna copies of the unbatched code as oracles;
# results must agree to the last bit, signed zeros included


def same_bits(got, ref) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def margin_ok_reference(p_vec, q, lo, hi, min_sep, margin, N, slack=1e-15):
    pts = p_vec.reshape(N, 2)
    if np.any(pts < lo + margin - slack) or np.any(pts > hi - margin + slack):
        return False
    full = np.vstack([q[None, :], pts])
    for a in range(N + 1):
        for b in range(a + 1, N + 1):
            if np.hypot(*(full[a] - full[b])) < min_sep - slack:
                return False
    return True


def linearize_reference(anchor, m, layout, margin=0.0):
    """(box_lo, box_hi, normals, offsets, pairs) of one antenna, per pair."""
    N = layout.N
    q = layout.active_position(m)
    lo, hi = layout.region_bounds(m)
    p_anchor = anchor.antenna_vector(m)
    min_sep = layout.min_sep_m + margin
    if not margin_ok_reference(p_anchor, q, lo, hi, min_sep, margin, N,
                               slack=1e-8 * layout.lam):
        raise AnchorInfeasible(
            f"anchor at antenna {m} violates constraints (margin {margin})"
        )
    pts = p_anchor.reshape(N, 2)
    normals, offsets, pairs = [], [], []
    for n in range(N):
        diff = pts[n] - q
        g = np.zeros(2 * N)
        g[2 * n: 2 * n + 2] = 2.0 * diff
        normals.append(-g)
        offsets.append(float(diff @ diff) - g @ p_anchor - min_sep**2)
        pairs.append((0, n + 1))
    for a in range(N):
        for b in range(a + 1, N):
            diff = pts[a] - pts[b]
            g = np.zeros(2 * N)
            g[2 * a: 2 * a + 2] = 2.0 * diff
            g[2 * b: 2 * b + 2] = -2.0 * diff
            normals.append(-g)
            offsets.append(float(diff @ diff) - g @ p_anchor - min_sep**2)
            pairs.append((a + 1, b + 1))
    return (np.tile(lo + margin, N), np.tile(hi - margin, N),
            np.array(normals).reshape(len(pairs), 2 * N), np.array(offsets), pairs)


def project_reference(point, box_lo, box_hi, normals, offsets, tol, max_sweeps=20000):
    """Dykstra projection of one point, the oracle of the exact projection;
    returns (x, sweeps)."""
    x = np.asarray(point, dtype=float).copy()
    P = normals.shape[0]
    norms2 = np.einsum("ij,ij->i", normals, normals) if P else np.zeros(0)
    increments = np.zeros((P + 1, x.size))
    for sweep in range(1, max_sweeps + 1):
        x_start = x.copy()
        y = x + increments[0]
        x = np.clip(y, box_lo, box_hi)
        increments[0] = y - x
        for i in range(P):
            y = x + increments[i + 1]
            viol = normals[i] @ y - offsets[i]
            x = y - (viol / norms2[i]) * normals[i] if viol > 0.0 else y
            increments[i + 1] = y - x
        if np.linalg.norm(x - x_start) <= tol:
            infeas = max(float(np.max(box_lo - x, initial=0.0)),
                         float(np.max(x - box_hi, initial=0.0)))
            if P:
                infeas = max(infeas, float(np.max(normals @ x - offsets)))
            if infeas <= 10.0 * tol:
                return x, sweep
    raise AssertionError(f"Dykstra projection did not converge in {max_sweeps} sweeps")


def is_feasible_reference(placement, layout, atol):
    violations = []
    for m in range(layout.M):
        lo, hi = layout.region_bounds(m)
        pts = placement.positions[m]
        for n in range(layout.N):
            margin = min(pts[n, 0] - lo[0], hi[0] - pts[n, 0],
                         pts[n, 1] - lo[1], hi[1] - pts[n, 1])
            if margin < -atol:
                violations.append(Violation("region", m, None, n, margin))
        full = np.vstack([layout.active_position(m)[None, :], pts])
        for a in range(layout.N + 1):
            for b in range(a + 1, layout.N + 1):
                margin = np.hypot(*(full[a] - full[b])) - layout.min_sep_m
                if margin < -atol:
                    violations.append(Violation("spacing", m, (a, b), None, margin))
    return violations


def random_feasible_reference(layout, rng, max_tries=10000):
    pos = np.zeros((layout.M, layout.N, 2))
    for m in range(layout.M):
        lo, hi = layout.region_bounds(m)
        q = layout.active_position(m)
        for _ in range(max_tries):
            pts = rng.uniform(lo, hi, size=(layout.N, 2))
            full = np.vstack([q[None, :], pts])
            dists = np.linalg.norm(full[:, None, :] - full[None, :, :], axis=-1)
            iu = np.triu_indices(layout.N + 1, k=1)
            if layout.N == 0 or np.all(dists[iu] >= layout.min_sep_m):
                pos[m] = pts
                break
        else:
            raise InfeasibleLayout("no placement")
    return pos


def single_coupler_moves_reference(p_m, n, q_m, points, min_dist):
    anchors = np.vstack([q_m[None, :], np.delete(p_m, n, axis=0)])
    d = np.hypot(anchors[:, 0] - points[:, 0, None], anchors[:, 1] - points[:, 1, None])
    ok = np.min(d, axis=1) >= min_dist
    moved = np.repeat(p_m[None], int(ok.sum()), axis=0)
    moved[:, n] = points[ok]
    return ok, moved


def sca_like_points(anchor, layout, rng, scale):
    """Anchor coordinates plus steps of the given size (wavelengths)."""
    vec = anchor.positions.reshape(layout.M, -1)
    return vec + rng.normal(size=vec.shape) * scale * layout.lam


class LinearizedFeasibleSetRow:
    """Row m of a batched set, for comparison with a per-antenna one."""

    def __init__(self, batch, m):
        self.box_lo, self.box_hi = batch.box_lo[m], batch.box_hi[m]
        self.normals, self.offsets = batch.normals[m], batch.offsets[m]


@pytest.mark.parametrize("margin_steps", [0.0, 1.0])
@pytest.mark.parametrize("M", [1, 4, 32])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_batched_sets_and_projections_match_per_antenna_reference(N, M, margin_steps):
    lay = ArrayLayout(M=M, N=N)
    margin = margin_steps * 1e-4 * lay.lam
    rng = np.random.default_rng(100 * N + M)
    anchor = uniform_placement(lay) if N and M == 4 else random_feasible_placement(lay, rng)
    batch = linearize_spacing(anchor, np.arange(M), lay, margin=margin)
    refs = [linearize_reference(anchor, m, lay, margin) for m in range(M)]
    for m, (lo, hi, normals, offsets, pairs) in enumerate(refs):
        one = linearize_spacing(anchor, m, lay, margin=margin)
        assert pairs == pair_list(N)
        for got in (one, LinearizedFeasibleSetRow(batch, m)):
            assert same_bits(got.box_lo, lo) and same_bits(got.box_hi, hi)
            assert same_bits(got.normals, normals) and same_bits(got.offsets, offsets)
    for scale in (1e-3, 0.05, 1.0):
        points = sca_like_points(anchor, lay, rng, scale)
        got, steps = project_onto_set(points, batch, return_steps=True)
        for m, (lo, hi, normals, offsets, _) in enumerate(refs):
            ref, _ = project_reference(points[m], lo, hi, normals, offsets, 1e-14 * lay.lam)
            assert np.max(np.abs(got[m] - ref), initial=0.0) <= 1e-12 * lay.lam
            one, one_steps = project_onto_set(points[m], linearize_spacing(
                anchor, m, lay, margin=margin), return_steps=True)
            assert same_bits(one, got[m]) and one_steps == steps[m]
        relaxed, relaxed_steps = relaxed_update(
            anchor.positions.reshape(M, -1), points - anchor.positions.reshape(M, -1),
            0.5, batch, return_steps=True)
        assert np.array_equal(relaxed_steps, steps)
        for m in range(M):
            one, one_steps = relaxed_update(
                anchor.antenna_vector(m), points[m] - anchor.antenna_vector(m), 0.5,
                linearize_spacing(anchor, m, lay, margin=margin), return_steps=True)
            assert same_bits(relaxed[m], one) and one_steps == steps[m]


def assert_kkt_point(y, x, feas_set, lam):
    """x is the projection of y onto the (unstacked) set: feasible, and y - x
    is a nonnegative combination of the unit normals of the constraints that
    hold with equality (stationarity, complementary slackness), to rounding
    of the coordinates and of the step length."""
    n = len(y)
    norms = np.linalg.norm(feas_set.normals, axis=-1)
    C = np.concatenate([np.eye(n), -np.eye(n), feas_set.normals / norms[:, None]])
    d = np.concatenate([feas_set.box_hi, -feas_set.box_lo, feas_set.offsets / norms])
    atol = 1e-13 * lam + 1e-14 * np.linalg.norm(y - x)
    slack = d - C @ x
    assert np.all(np.isfinite(x)) and slack.min(initial=0.0) >= -atol  # feasible
    active = slack <= atol
    mult, resid = nnls(C[active].T, y - x) if active.any() else ([], np.linalg.norm(y - x))
    assert np.all(np.asarray(mult) >= 0.0)
    assert resid <= atol  # stationarity with multipliers only on active constraints
    assert np.dot(mult, np.abs(slack[active])) <= atol * max(1.0, np.sum(mult))


def test_projection_of_a_414_wavelength_step_is_a_kkt_point():
    # a step of 414 wavelengths in a 1-wavelength region: the sweep-limited
    # projection gave up here; the active-set one ends in a few steps
    lay = ArrayLayout(M=4, N=3, region_side=1.0)
    p = uniform_placement(lay)
    ev = ObjectiveEvaluator(sample_channels(1, K=2, L=6, layout=lay), lay,
                            DipoleModel.for_layout(lay), 1.0, 0.05)
    steps = ev.gradient_of(p) * lay.lam / 0.05
    assert np.linalg.norm(steps[0]) / lay.lam == pytest.approx(414.2, abs=0.1)
    margin = CLEARANCE_WL * lay.lam
    points = p.positions.reshape(4, -1) + steps
    got, counts = project_onto_set(points, linearize_spacing(p, np.arange(4), lay, margin),
                                   return_steps=True)
    for m in range(4):
        fs = linearize_spacing(p, m, lay, margin=margin)
        one, one_steps = project_onto_set(points[m], fs, return_steps=True)
        assert same_bits(one, got[m]) and one_steps == counts[m]
        assert 0 < one_steps < 4 * lay.N + len(fs.offsets)
        assert_kkt_point(points[m], one, fs, lay.lam)
        assert is_feasible(p.with_antenna_vector(m, one), lay).ok


def kkt_case_anchor(lay, kind, margin, rng):
    """A feasible anchor: random, the uniform arc (its middle coupler's
    normals are axis-aligned), or random with couplers pushed onto the faces
    of the box shrunk by ``margin``."""
    if kind == "uniform":
        return uniform_placement(lay)
    pl = random_feasible_placement(lay, rng)
    if kind == "face" and lay.N:
        for m in range(lay.M):
            lo, hi = lay.region_bounds(m)
            for n in range(lay.N):
                axis = rng.integers(2)
                moved = pl.positions[m].copy()
                moved[n, axis] = (lo + margin, hi - margin)[rng.integers(2)][axis]
                if constraint_margins(moved, lay, m)[1].min() >= lay.min_sep_m + margin:
                    pl.positions[m] = moved
    return pl


@settings(max_examples=120, deadline=None, derandomize=True)
@given(M=st.integers(1, 8), N=st.integers(0, 4),
       kind=st.sampled_from(["random", "uniform", "face"]),
       scale=st.sampled_from([1e-3, 0.05, 1.0, 30.0, 400.0]),
       margin_steps=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**16))
def test_projection_satisfies_kkt_on_random_linearized_sets(M, N, kind, scale,
                                                            margin_steps, seed):
    lay = ArrayLayout(M=M, N=N, region_side=2.0 if N < 4 else 3.0)
    rng = np.random.default_rng(seed)
    margin = margin_steps * CLEARANCE_WL * lay.lam
    anchor = kkt_case_anchor(lay, kind, margin, rng)
    batch = linearize_spacing(anchor, np.arange(M), lay, margin=margin)
    vec = anchor.positions.reshape(M, -1)
    points = vec + rng.normal(size=vec.shape) * scale * lay.lam
    if kind != "random" and N:  # push some coordinates straight along an axis
        axis_only = rng.random(vec.shape) < 0.5
        points = np.where(axis_only, vec, points)
    conds = []

    def solve(a, b):  # every working-set system, far from singular
        conds.extend(np.linalg.cond(a).ravel())
        return np_solve(a, b)

    np_solve = np.linalg.solve
    with mock.patch.object(np.linalg, "solve", solve):
        got, steps = project_onto_set(points, batch, return_steps=True)
    assert max(conds, default=1.0) < 1e8
    for m in range(M):
        fs = linearize_spacing(anchor, m, lay, margin=margin)
        one, one_steps = project_onto_set(points[m], fs, return_steps=True)
        assert same_bits(one, got[m]) and one_steps == steps[m]
        assert_kkt_point(points[m], one, fs, lay.lam)


def test_finished_rows_keep_their_bits_while_others_move():
    # row 0 is a member with a -0.0 coordinate and finishes at once; row 1
    # takes several steps, which must not touch row 0 (not even its sign bit)
    lay = ArrayLayout(M=2, N=1)
    anchor = uniform_placement(lay)
    batch = linearize_spacing(anchor, np.arange(2), lay)
    for push in ([1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
        points = anchor.positions.reshape(2, -1).copy()
        points[0, 1] = -0.0
        points[1] += 3.0 * lay.region_side_m * np.array(push)
        got, steps = project_onto_set(points, batch, return_steps=True)
        assert steps[0] == 0 and steps[1] > 1
        assert same_bits(got[0], points[0])
        assert same_bits(got[1], project_onto_set(points[1], linearize_spacing(anchor, 1, lay)))


@pytest.mark.parametrize("delta", [1e-9, 5e-9, 3e-8])
@pytest.mark.parametrize("far", [1e6, 1e8])
@pytest.mark.parametrize("floor", [-1e-5, -1.0])
def test_projection_onto_nearly_parallel_half_spaces(delta, far, floor):
    # x <= 0 and (x + delta y) <= -1e-12 |(1, delta)| meet at a vertex that
    # the box face y >= floor may cut off; the point is far along +x.  The
    # two normals are within delta of each other, so their Gram matrix is
    # singular to rounding: every step must still be exact.
    fs = LinearizedFeasibleSet(np.array([-1.0, floor]), np.array([1.0, 1.0]),
                               np.array([[1.0, 0.0], [1.0, delta]]),
                               np.array([0.0, -1e-12 * np.hypot(1.0, delta)]))
    point = np.array([far, 0.0])
    x, steps = project_onto_set(point, fs, return_steps=True)
    assert steps <= 6
    assert_kkt_point(point, x, fs, 1.0)


def test_projection_with_a_box_face_parallel_to_an_active_half_space():
    # N=1 on boresight at the box's +x face: the active-element half-space
    # has normal -e_x, parallel to both x faces of the box; it is the active
    # constraint for every point pushed toward -x, the +x face for the others
    lay = ArrayLayout(M=1, N=1, region_side=1.0)
    lo, hi = lay.region_bounds(0)
    anchor = CouplerPlacement(np.array([[[hi[0], 0.0]]]))
    fs = linearize_spacing(anchor, 0, lay)
    assert fs.normals[0, 1] == 0.0  # axis-aligned half-space normal
    side = lay.region_side_m
    for point in ([3 * side, 0.0], [-3 * side, 0.0], [3 * side, 2 * side],
                  [-3 * side, -2 * side], [0.0, 2 * side], [hi[0], 5 * side]):
        point = np.array(point)
        x, steps = project_onto_set(point, fs, return_steps=True)
        assert steps <= 3
        assert_kkt_point(point, x, fs, lay.lam)



def broken_placement(lay, seed):
    """A random placement with region and spacing violations on some antennas."""
    rng = np.random.default_rng(seed)
    pl = random_feasible_placement(lay, rng)
    for m in rng.choice(lay.M, size=lay.M // 2, replace=False):
        kind = rng.integers(3)
        if kind == 0:  # one coupler pushed out of the region
            pl.positions[m, 0, rng.integers(2)] += rng.choice([-1, 1]) * lay.region_side_m
        elif kind == 1 and lay.N > 1:  # two couplers nearly coincide
            pl.positions[m, 1] = pl.positions[m, 0] + 0.1 * lay.min_sep_m
        else:  # a coupler on top of the active element
            pl.positions[m, -1] = lay.active_position(m) + [0.5 * lay.min_sep_m, 0.0]
    return pl


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("M, N", [(4, 1), (4, 3), (6, 4)])
def test_violations_match_per_pair_reference(M, N, seed):
    lay = ArrayLayout(M=M, N=N)
    pl = broken_placement(lay, seed)
    atol = 1e-8 * lay.lam
    ref = is_feasible_reference(pl, lay, atol)
    report = is_feasible(pl, lay)
    assert report.violations == ref and report.ok == (not ref)
    assert ref  # the placement really is broken
    for v in report.violations:
        assert type(v.antenna) is int and v.margin < -atol


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("M, N", [(4, 1), (4, 3), (6, 4)])
def test_infeasible_anchor_and_margin_errors_name_the_same_antenna(M, N, seed):
    lay = ArrayLayout(M=M, N=N)
    pl = broken_placement(lay, seed)
    h = 1e-4 * lay.lam
    for margin in (0.0, h):
        expected = None
        for m in range(M):
            try:
                linearize_reference(pl, m, lay, margin)
            except AnchorInfeasible as exc:
                expected = expected or str(exc)
                with pytest.raises(AnchorInfeasible) as one:
                    linearize_spacing(pl, m, lay, margin=margin)
                assert str(one.value) == str(exc)
        with pytest.raises(AnchorInfeasible) as batch:
            linearize_spacing(pl, np.arange(M), lay, margin=margin)
        assert str(batch.value) == expected


@pytest.mark.parametrize("M, N, A", [(8, 2, 2.0), (4, 2, 2.0), (3, 3, 2.0), (6, 2, 2.0),
                                     (4, 3, 0.5), (2, 0, 2.0)])
def test_random_feasible_placement_matches_reference(M, N, A):
    lay = ArrayLayout(M=M, N=N, region_side=A)
    for seed in range(20):
        got = random_feasible_placement(lay, np.random.default_rng(seed))
        ref = random_feasible_reference(lay, np.random.default_rng(seed))
        assert same_bits(got.positions, ref)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_single_coupler_moves_match_reference(N):
    lay = ArrayLayout(M=3, N=N)
    pl = random_feasible_placement(lay, np.random.default_rng(N))
    margin = 2e-4 * lay.lam
    for m in range(lay.M):
        lo, hi = lay.region_bounds(m)
        xs, ys = np.linspace(lo[0], hi[0], 21), np.linspace(lo[1], hi[1], 21)
        points = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        for pad in (0.0, margin):
            all_ok, all_moved = single_coupler_moves(pl.positions[m], m, np.arange(N), points,
                                                     lay, pad)
            assert all_ok.shape == (N, len(points)) and all_moved.shape == (N, len(points), N, 2)
            for n in range(N):
                ok, moved = single_coupler_moves(pl.positions[m], m, n, points, lay, pad)
                ref_ok, ref_moved = single_coupler_moves_reference(
                    pl.positions[m], n, lay.active_position(m), points, lay.min_sep_m + pad)
                assert np.array_equal(ok, ref_ok) and ok.any() and not ok.all()
                assert same_bits(moved[ok], ref_moved)
                assert np.array_equal(all_ok[n], ok) and same_bits(all_moved[n], moved)


def test_constraint_margins_broadcast_over_leading_axes():
    lay = ArrayLayout(M=3, N=3)
    rng = np.random.default_rng(4)
    stacked = np.stack([random_feasible_placement(lay, rng).positions for _ in range(5)])
    box, dist = constraint_margins(stacked, lay)
    a, b = spacing_pairs(lay.N)
    assert box.shape == (5, 3, 3) and dist.shape == (5, 3, len(a))
    for i in range(5):
        one_box, one_dist = constraint_margins(stacked[i], lay)
        assert same_bits(box[i], one_box) and same_bits(dist[i], one_dist)
        for m in range(lay.M):
            lo, hi = lay.region_bounds(m)
            pts = stacked[i, m]
            assert same_bits(box[i, m], np.minimum(pts - lo, hi - pts).min(axis=1))
            full = np.vstack([lay.active_position(m)[None, :], pts])
            assert same_bits(dist[i, m], np.hypot(*(full[a] - full[b]).T))
            m_box, m_dist = constraint_margins(pts, lay, m)
            assert same_bits(m_box, box[i, m]) and same_bits(m_dist, dist[i, m])
