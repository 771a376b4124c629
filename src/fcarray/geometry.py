"""Array layout, coupler placements, feasibility, and the convex inner
approximations of the per-antenna movement sets used by the position optimizer.

Conventions: positions are stored in meters.  Layout spacings (``d_y``, ``A``,
``d_min``) are given in wavelengths and converted once through properties.
Per antenna ``m`` the movement region ``C_m`` is the axis-aligned square of
side ``A*lam`` centered on the active element at ``q_m = [0, (m-1)*d_y*lam]``.
The active element itself participates in the spacing constraints as the
implicit pair index ``n = 0``.

Every spacing-pair offset over [q_m, p_1..p_N] and its distance come from
``pair_geometry``, and every box and spacing test reads those distances and
``box_margins``, one call for all antennas or a batch of candidate positions.
The linearized sets and their exact active-set projection take stacks of
antennas only, one antenna being a batch of one: row a is built from, and
projected onto, antenna a's set alone and freezes at the step where nothing
is violated, so a batch repeats its rows' batch-of-one results to the last
bit.  Dot products use ``np.vecdot``, the BLAS dot of 1-D ``a @ b``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    AnchorInfeasible,
    ConfigError,
    DimensionMismatch,
    InfeasibleLayout,
    NumericalError,
)

SPEED_OF_LIGHT = 299792458.0
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ArrayLayout:
    """Geometry of the transmit array.

    M: number of antennas (one active element each), N: movable couplers per
    antenna.  ``d_y``, ``region_side`` (square side ``A``) and ``d_min`` are
    in wavelengths; ``f_c`` in Hz.
    """

    M: int
    N: int
    d_y: float = 2.2
    region_side: float = 2.0
    d_min: float = 0.15
    f_c: float = 7.0e9
    _active: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError("must be >= 1", field="M")
        if self.N < 0:
            raise ConfigError("must be >= 0", field="N")
        for name in ("d_y", "region_side", "f_c"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigError("must be positive", field=name)
        if not (0 < self.d_min < self.region_side):
            raise ConfigError("must satisfy 0 < d_min < region_side", field="d_min")
        q = np.zeros((self.M, 2))
        q[:, 1] = np.arange(self.M) * self.spacing_m
        q.flags.writeable = False  # one copy serves every caller
        object.__setattr__(self, "_active", q)

    @property
    def lam(self) -> float:
        """Carrier wavelength in meters (c / f_c)."""
        return SPEED_OF_LIGHT / self.f_c

    @property
    def spacing_m(self) -> float:
        return self.d_y * self.lam

    @property
    def region_side_m(self) -> float:
        return self.region_side * self.lam

    @property
    def min_sep_m(self) -> float:
        return self.d_min * self.lam

    def active_position(self, m: int) -> np.ndarray:
        """Position q_m of the m-th active element (0-based m), a copy of
        row m of ``active_positions()``."""
        return self._active[m].copy()

    def active_positions(self) -> np.ndarray:
        """(M, 2) array of all active-element positions, built once per layout
        and read-only."""
        return self._active

    def region_bounds(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of the square region C_m, each shape (2,)."""
        q = self.active_position(m)
        half = 0.5 * self.region_side_m
        return q - half, q + half


@dataclass
class CouplerPlacement:
    """Coupler positions for the whole array: ``positions[m, n] = (x, y)`` in
    meters.  The flattened per-antenna vector interleaves coordinates as
    ``[x_1, y_1, ..., x_N, y_N]``."""

    positions: np.ndarray  # (M, N, 2) float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 3 or self.positions.shape[2] != 2:
            raise DimensionMismatch(
                f"positions must have shape (M, N, 2), got {self.positions.shape}"
            )

    @property
    def M(self) -> int:
        return self.positions.shape[0]

    @property
    def N(self) -> int:
        return self.positions.shape[1]

    def antenna_vector(self, m: int) -> np.ndarray:
        """Flattened position vector of antenna m, shape (2N,)."""
        return self.positions[m].reshape(-1).copy()

    def with_antenna_vector(self, m: int, vec: np.ndarray) -> "CouplerPlacement":
        """Copy of the placement with antenna m replaced by the given (2N,) vector."""
        pos = self.positions.copy()
        pos[m] = np.asarray(vec, dtype=float).reshape(self.N, 2)
        return CouplerPlacement(pos)

    def copy(self) -> "CouplerPlacement":
        return CouplerPlacement(self.positions.copy())


@dataclass
class Violation:
    kind: str  # "region" or "spacing"
    antenna: int
    pair: tuple[int, int] | None  # spacing: (n, n') with 0 = active element
    coupler: int | None  # region: coupler index
    margin: float  # negative when violated


@dataclass
class FeasibilityReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


ARC_SPAN = np.pi / 4  # half-angle of the reference arc around boresight


def uniform_placement(layout: ArrayLayout) -> CouplerPlacement:
    """Deterministic reference placement: N couplers per antenna evenly
    spread on an arc facing the user half-space (+x), at the smallest radius
    that clears the minimum spacing from the active element and between
    neighbors (1% headroom keeps it strictly feasible).

    Mutual coupling decays fast with distance, so the useful fixed
    configuration keeps couplers in the strong-coupling zone just outside
    d_min rather than scattered over the region; points are mirror-symmetric
    about the boresight axis through q_m and identical for every antenna up
    to translation.  InfeasibleLayout is raised when the required radius does
    not fit the movement region.
    """
    if layout.N == 0:
        return CouplerPlacement(np.zeros((layout.M, 0, 2)))
    offsets = _arc_offsets(layout.N, layout)
    placement = CouplerPlacement(layout.active_positions()[:, None, :] + offsets)
    report = is_feasible(placement, layout)
    if not report.ok:
        raise InfeasibleLayout(
            f"cannot place N={layout.N} couplers at spacing {layout.d_min} "
            f"wavelengths inside a side-{layout.region_side} wavelength square: "
            f"{len(report.violations)} violations"
        )
    return placement


def _arc_offsets(N: int, layout: ArrayLayout) -> np.ndarray:
    """Offsets (N, 2) of the reference arc relative to the active element."""
    min_sep = layout.min_sep_m
    if N == 1:
        angles = np.array([0.0])
        radius = 1.01 * min_sep
    else:
        angles = np.linspace(-ARC_SPAN, ARC_SPAN, N)
        step = 2.0 * ARC_SPAN / (N - 1)
        radius = 1.01 * max(min_sep, min_sep / (2.0 * np.sin(step / 2.0)))
    if radius > 0.5 * layout.region_side_m:
        raise InfeasibleLayout(
            f"reference arc for N={N} needs radius {radius / layout.lam:.3f} "
            f"wavelengths, beyond the region half-side {layout.region_side / 2}"
        )
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


class PairTables(NamedTuple):
    """Per-N tables of the spacing pairs over the points [q_m, p_1..p_N]:
    the index arrays (a, b), a < b, of the active pairs (0, n) and then the
    coupler pairs in lexicographic order; the coupler pairs as 0-based coupler
    indices (``np.triu_indices(N, 1)``); the pair rows; and the (P, N+1)
    incidence matrix of the offsets point a - point b."""

    a: np.ndarray
    b: np.ndarray
    coupler_a: np.ndarray
    coupler_b: np.ndarray
    rows: np.ndarray
    incidence: np.ndarray


@functools.lru_cache(maxsize=None)
def pair_tables(N: int) -> PairTables:
    """The read-only ``PairTables`` of N couplers, built once per N."""
    a, b = np.triu_indices(N + 1, k=1)
    rows = np.arange(len(a))
    incidence = np.zeros((len(a), N + 1))
    incidence[rows, a] = 1.0
    incidence[rows, b] = -1.0
    tables = PairTables(a, b, a[N:] - 1, b[N:] - 1, rows, incidence)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def as_complex(points: np.ndarray) -> np.ndarray:
    """Points (..., 2) as complex x + iy (..., 1), a view of contiguous floats."""
    return np.ascontiguousarray(points, dtype=float).view(complex)


def pair_offsets(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Offsets point a - point b (..., P) of the spacing pairs over
    [q, p_1..p_N], in ``pair_tables`` order, from the coupler points z (..., N)
    and active points q (..., 1) ``as_complex``: each subtraction is the two
    coordinate subtractions."""
    pairs = pair_tables(z.shape[-1])
    return np.concatenate([q - z, z[..., pairs.coupler_a] - z[..., pairs.coupler_b]], axis=-1)


def pair_geometry(z: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``pair_offsets`` d of z and q and the pair distances |d| (..., P)."""
    d = pair_offsets(z, q)
    return d, np.hypot(d.real, d.imag)


def box_margins(z: np.ndarray, q: np.ndarray, layout: ArrayLayout) -> np.ndarray:
    """Each coupler's distance (..., N) to the nearest side of its region
    (negative outside), from the coupler points z (..., N) and the active
    points q (..., 1) ``as_complex``."""
    half = complex(0.5 * layout.region_side_m, 0.5 * layout.region_side_m)
    lo, hi = z - (q - half), (q + half) - z
    return np.minimum(np.minimum(lo.real, lo.imag), np.minimum(hi.real, hi.imag))


@functools.lru_cache(maxsize=64)
def _box_bounds(layout: ArrayLayout, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (M, 2N) lower and upper box bounds of every antenna's
    flattened coordinates, each region shrunk by ``margin`` meters."""
    q = layout.active_positions()[:, None, :]
    half = 0.5 * layout.region_side_m
    lo, hi = (np.broadcast_to(c, (layout.M, layout.N, 2)).reshape(layout.M, -1)
              for c in (q - half + margin, q + half - margin))
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


@functools.lru_cache(maxsize=None)
def _box_normals(n: int) -> np.ndarray:
    """Read-only (n, 2n) [I, -I]: the normals of x <= hi and -x <= -lo."""
    out = np.concatenate([np.eye(n), -np.eye(n)], axis=1)
    out.flags.writeable = False
    return out


def constraint_geometry(positions: np.ndarray, layout: ArrayLayout, m=None):
    """Box margins (..., M, N), pair distances (..., M, P) and pair offsets
    (..., M, P) of positions (..., M, N, 2), the antennas of whose antenna
    axis the index array ``m`` names (all by default)."""
    # as complex x + iy each subtraction is one contiguous pass over both axes
    z = as_complex(positions)[..., 0]
    q = layout.active_positions().view(complex)[slice(None) if m is None else m]
    d, dist = pair_geometry(z, q)
    return box_margins(z, q, layout), dist, d


def constraint_margins(positions: np.ndarray, layout: ArrayLayout, m=None):
    """The box margins and pair distances of ``constraint_geometry``."""
    return constraint_geometry(positions, layout, m)[:2]


def is_feasible(placement: CouplerPlacement, layout: ArrayLayout) -> FeasibilityReport:
    """Check region membership and pairwise spacing (couplers and the n=0
    active element) for every antenna, to a tolerance of 1e-8 wavelengths
    that absorbs projection round-off."""
    if placement.M != layout.M or placement.N != layout.N:
        raise DimensionMismatch(
            f"placement is ({placement.M}, {placement.N}), layout expects "
            f"({layout.M}, {layout.N})"
        )
    atol = 1e-8 * layout.lam
    box, dist = constraint_margins(placement.positions, layout)
    spacing = dist - layout.min_sep_m
    a, b = pair_tables(layout.N).a, pair_tables(layout.N).b
    violations: list[Violation] = []
    for m in range(layout.M):  # per antenna: region violations, then spacing
        violations += [Violation("region", m, None, int(n), box[m, n])
                       for n in np.flatnonzero(box[m] < -atol)]
        violations += [Violation("spacing", m, (int(a[i]), int(b[i])), None, spacing[m, i])
                       for i in np.flatnonzero(spacing[m] < -atol)]
    return FeasibilityReport(ok=not violations, violations=violations)


@dataclass
class LinearizedFeasibleSet:
    """Convex inner approximations of A antennas' movement sets, stacked,
    built by linearizing each squared-distance spacing constraint at an anchor.

    Half-spaces are stored as rows of ``normals`` with offsets ``offsets``:
    membership of antenna a's x means ``normals[a] @ x <= offsets[a]`` plus the
    box bounds.  Any member satisfies the true (nonconvex) spacing constraints
    because the linearization is a global affine upper bound of the concave
    ``-d``.  Row p belongs to pair p of ``pair_tables(N)``.
    """

    box_lo: np.ndarray  # (A, 2N)
    box_hi: np.ndarray  # (A, 2N)
    normals: np.ndarray  # (A, P, 2N)
    offsets: np.ndarray  # (A, P)


def linearize_spacing(
    anchor: CouplerPlacement,
    m,
    layout: ArrayLayout,
    margin: float = 0.0,
    margins: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> LinearizedFeasibleSet:
    """Linearize the spacing constraints of the antennas of the index array
    ``m`` around a feasible anchor: their sets, stacked, each row read only
    from its own antenna's anchor.

    For each unordered pair the constraint ||p_a - p_b||^2 >= d_min^2 is
    replaced by its first-order bound at the anchor, giving one half-space per
    pair, in the ``pair_tables`` order.  ``margin`` (meters) shrinks the box
    and inflates d_min.  The optimizer passes its clearance
    (``optimizer.CLEARANCE_WL`` wavelengths), which keeps the projected
    iterates off the exact d_min guard of ``mutual_impedance`` despite the
    projection's rounding.  ``margins``, the ``constraint_geometry`` of the
    anchor's rows ``m`` when the caller already holds it, is what the anchor
    check and the normals read instead of recomputing it.
    """
    pts = anchor.positions[m]  # (A, N, 2)
    (A, N, _), pairs = pts.shape, pair_tables(layout.N)
    min_sep = layout.min_sep_m + margin
    atol = 1e-8 * layout.lam
    box, dist, d = constraint_geometry(pts, layout, m) if margins is None else margins
    bad = (box < margin - atol).any(axis=1) | (dist < min_sep - atol).any(axis=1)
    if bad.any():
        raise AnchorInfeasible(
            f"anchor at antenna {m[np.argmax(bad)]} violates constraints (margin {margin})"
        )
    box_lo, box_hi = (c[m] for c in _box_bounds(layout, margin))

    # gradient g of d = ||p_a - p_b||^2 over the points [q, p_1..p_N]
    diff = d[..., None].view(float)  # (A, P, 2)
    g = np.zeros((A, len(pairs.rows), N + 1, 2))
    g[:, pairs.rows, pairs.a] = 2.0 * diff
    g[:, pairs.rows, pairs.b] = -2.0 * diff
    g = g[:, :, 1:].reshape(A, len(pairs.rows), 2 * N)
    p_anchor = pts.reshape(A, 2 * N)
    # -d_t - g.(p - p_t) <= -min_sep^2  <=>  (-g).p <= d_t - g.p_t - min_sep^2
    offsets = np.vecdot(diff, diff) - np.vecdot(g, p_anchor[:, None, :]) - min_sep**2
    return LinearizedFeasibleSet(box_lo, box_hi, -g, offsets)


def project_onto_set(point: np.ndarray, feas_set: LinearizedFeasibleSet):
    """Euclidean projection onto the linearized set, exact in finitely many
    steps: Goldfarb and Idnani's (1983) dual active-set method for
    min 1/2 ||x - y||^2 over the box and the half-spaces (unit normals c,
    c.x <= d).  A step takes the most violated constraint j and z, c_j less
    its projection onto the working normals (by QR, never their Gram matrix,
    so nearly parallel normals stay exact): a full step along z reaches j's
    plane and adds j, a partial one drops the first working constraint whose
    multiplier reaches zero, and a dependent j (z = 0) takes only partial
    steps.  Points (A, 2N) are projected row by row onto a stack of A sets; a
    row freezes once nothing is violated beyond rounding of its coordinates,
    matching its batch-of-one call to the last bit.  Returns (x, steps): the
    projections (A, 2N) and the active-set steps each row took."""
    y, lo, hi, normals, offsets = (np.asarray(v, dtype=float) for v in (
        point, feas_set.box_lo, feas_set.box_hi, feas_set.normals, feas_set.offsets))
    (B, n), unit = y.shape, 1.0 / np.sqrt(np.vecdot(normals, normals))
    Ct = np.empty((B, n, 2 * n + normals.shape[1]))  # columns x <= hi, -x <= -lo, half-spaces
    Ct[:, :, :2 * n] = _box_normals(n)
    np.multiply(normals.mT, unit[:, None], out=Ct[:, :, 2 * n:])
    d = np.concatenate([hi, -lo, offsets * unit], axis=1)
    tol = (64.0 * EPS) * d[:, :2 * n].max(axis=-1, initial=0.0)  # rounding of coordinates
    x, R, steps, j = y.copy(), np.arange(B), np.zeros(B, dtype=int), np.full(B, -1)
    act, mult = np.zeros(d.shape, dtype=bool), np.zeros(d.shape)  # working sets
    while True:
        viol = (x[:, None] @ Ct)[:, 0] - d
        score = np.where(act, -np.inf, viol)
        live = (j >= 0) | (score.max(axis=-1, initial=-np.inf) > tol)  # j >= 0: pending
        if not live.any():
            break
        j = np.where(j < 0, score.argmax(axis=-1), j)
        z, r = Ct[R, :, j], np.zeros(mult.shape)
        z[~live] = 0.0  # a finished row keeps its x
        size = np.where(live, act.sum(axis=-1), 0)
        for k in (sizes := set(size.tolist()) - {0}):  # one size unless a row dropped one
            g = np.flatnonzero(size == k)
            w = np.nonzero(act[g])[1].reshape(-1, k)
            Cw = Ct[g[:, None], :, w].mT  # working normals = Q U; one unit normal is its own Q
            Q, U = np.linalg.qr(Cw) if k > 1 else (Cw, None)
            a = Q.mT @ z[g, :, None]
            z[g] -= (Q @ a)[..., 0]
            r[g[:, None], w] = (np.linalg.solve(U, a) if k > 1 else a)[..., 0]
        zz = np.vecdot(z, z)  # a full step along z reaches j's plane, unless j is dependent
        full = np.divide(viol[R, j], zz, out=np.full_like(zz, np.inf), where=zz > 0.0)
        t = np.where(live, full, 0.0)
        if sizes:  # a partial step ends where a working multiplier reaches zero
            ratio = np.divide(mult, r, out=np.full_like(mult, np.inf), where=r > 0.0)
            drop = ratio.argmin(axis=-1)
            t = np.minimum(t, ratio[R, drop])
            if np.isinf(t).any():
                raise NumericalError("linearized feasible set is empty")
        r[R, j] = -1.0
        x -= t[:, None] * z
        mult -= t[:, None] * r
        act[R, j] = add = live & (full <= t)
        if (part := np.flatnonzero(live & ~add)).size:
            act[part, drop[part]], mult[part, drop[part]] = False, 0.0
        j = np.where(add | ~live, -1, j)
        steps += live
    return x, steps


# placement-file layout header key -> ArrayLayout field, in file order
_HEADER = {"M": "M", "N": "N", "d_y": "d_y", "A": "region_side", "d_min": "d_min", "f_c": "f_c"}


def save_placement(path, placement: CouplerPlacement, layout: ArrayLayout) -> None:
    """Serialize a placement with its layout header to JSON (meters)."""
    doc = {"layout": {key: getattr(layout, name) for key, name in _HEADER.items()},
           "placements": placement.positions.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_placement(path) -> tuple[CouplerPlacement, ArrayLayout]:
    with open(path) as fh:
        doc = json.load(fh)
    layout = ArrayLayout(**{name: doc["layout"][key] for key, name in _HEADER.items()})
    return CouplerPlacement(np.array(doc["placements"])), layout


def anchor_distances(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Distances (..., A, D) from each of ``anchors`` (..., A, 2) to each of
    ``points`` (..., D, 2): the moduli of ``pair_offsets`` for a pair with one
    end at a point."""
    return np.hypot(points[..., None, :, 0] - anchors[..., :, None, 0],
                    points[..., None, :, 1] - anchors[..., :, None, 1])


def clear_moves(dist: np.ndarray, n, min_dist: float) -> np.ndarray:
    """Mask (..., K, D) of the single-coupler moves that keep ``min_dist``:
    coupler n[k] of the index array n at point d must clear every anchor of
    [q_m, p_1..p_N] but its own, from the ``anchor_distances`` (..., N+1, D)
    of the points."""
    others = np.arange(dist.shape[-2]) != np.asarray(n)[:, None] + 1  # (K, N+1)
    return np.all((dist[..., None, :, :] >= min_dist) | ~others[:, :, None], axis=-2)


def single_coupler_moves(p_m: np.ndarray, m: int, n, points: np.ndarray,
                         layout: ArrayLayout, margin: float = 0.0):
    """Antenna m's positions ``p_m`` (N, 2) with coupler n[k] of the index
    array n (K,) moved to each of ``points`` (D, 2): the (K, D) mask of the
    moves that keep ``d_min + margin`` from the active element and the other
    couplers (``clear_moves``), and the moved positions (K, D, N, 2)."""
    anchors = np.concatenate([layout.active_positions()[m][None], p_m])
    ok = clear_moves(anchor_distances(points, anchors), n, layout.min_sep_m + margin)
    moved = np.tile(p_m, (len(n), len(points), 1, 1))
    moved[np.arange(len(n)), :, n] = points
    return ok, moved


def random_feasible_placement(
    layout: ArrayLayout, rng: np.random.Generator, max_tries: int = 10000
) -> CouplerPlacement:
    """Rejection-sample a feasible placement: antenna m holds the first draw
    of N couplers uniform in its region that keeps every box margin >= 0 and
    every spacing >= d_min.  Antennas draw in index order, each at most
    ``max_tries`` times."""
    pos, min_sep = np.zeros((layout.M, layout.N, 2)), layout.min_sep_m
    for m in range(layout.M):
        lo, hi = layout.region_bounds(m)
        for _ in range(max_tries):
            pts = rng.uniform(lo, hi, size=(layout.N, 2))
            box, dist = constraint_margins(pts[None], layout, [m])
            if (dist >= min_sep).all() and (box >= 0.0).all():
                pos[m] = pts
                break
        else:
            raise InfeasibleLayout(
                f"could not draw a feasible placement for antenna {m} in {max_tries} tries")
    return CouplerPlacement(pos)
