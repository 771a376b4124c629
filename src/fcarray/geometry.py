"""Array layout, coupler placements, feasibility, and the convex inner
approximations of the per-antenna movement sets used by the position optimizer.

Conventions: positions are stored in meters.  Layout spacings (``d_y``, ``A``,
``d_min``) are given in wavelengths and converted once through properties.
Per antenna ``m`` the movement region ``C_m`` is the axis-aligned square of
side ``A*lam`` centered on the active element at ``q_m = [0, (m-1)*d_y*lam]``.
The active element itself participates in the spacing constraints as the
implicit pair index ``n = 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnchorInfeasible,
    DimensionMismatch,
    InfeasibleLayout,
    NoConvergence,
)

SPEED_OF_LIGHT = 299792458.0


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

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.d_y <= 0 or self.region_side <= 0:
            raise ValueError("d_y and region_side must be positive")
        if not (0 < self.d_min < self.region_side):
            raise ValueError("d_min must satisfy 0 < d_min < region_side")
        if self.f_c <= 0:
            raise ValueError("f_c must be positive")

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
        """Position q_m of the m-th active element (0-based m)."""
        return np.array([0.0, m * self.spacing_m])

    def active_positions(self) -> np.ndarray:
        """(M, 2) array of all active-element positions."""
        q = np.zeros((self.M, 2))
        q[:, 1] = np.arange(self.M) * self.spacing_m
        return q

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
    pos = np.zeros((layout.M, layout.N, 2))
    for m in range(layout.M):
        pos[m] = layout.active_position(m)[None, :] + offsets
    placement = CouplerPlacement(pos)
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


def is_feasible(
    placement: CouplerPlacement,
    layout: ArrayLayout,
    atol: float | None = None,
) -> FeasibilityReport:
    """Check region membership and pairwise spacing (couplers and the n=0
    active element) for every antenna.  ``atol`` absorbs projection round-off;
    defaults to 1e-8 wavelengths."""
    if placement.M != layout.M or placement.N != layout.N:
        raise DimensionMismatch(
            f"placement is ({placement.M}, {placement.N}), layout expects "
            f"({layout.M}, {layout.N})"
        )
    if atol is None:
        atol = 1e-8 * layout.lam
    min_sep = layout.min_sep_m
    violations: list[Violation] = []
    for m in range(layout.M):
        lo, hi = layout.region_bounds(m)
        pts = placement.positions[m]
        for n in range(layout.N):
            margin = min(
                pts[n, 0] - lo[0], hi[0] - pts[n, 0],
                pts[n, 1] - lo[1], hi[1] - pts[n, 1],
            )
            if margin < -atol:
                violations.append(Violation("region", m, None, n, margin))
        # pair (0, n) couples each coupler to the active element
        full = np.vstack([layout.active_position(m)[None, :], pts])
        for a in range(layout.N + 1):
            for b in range(a + 1, layout.N + 1):
                margin = np.hypot(*(full[a] - full[b])) - min_sep
                if margin < -atol:
                    violations.append(Violation("spacing", m, (a, b), None, margin))
    return FeasibilityReport(ok=not violations, violations=violations)


@dataclass
class LinearizedFeasibleSet:
    """Convex inner approximation of one antenna's movement set, built by
    linearizing each squared-distance spacing constraint at an anchor.

    Half-spaces are stored as rows of ``normals`` with offsets ``offsets``:
    membership means ``normals @ x <= offsets`` plus the box bounds.  Any
    member satisfies the true (nonconvex) spacing constraints because the
    linearization is a global affine upper bound of the concave ``-d``.
    """

    antenna: int
    anchor: np.ndarray  # (2N,)
    box_lo: np.ndarray  # (2N,)
    box_hi: np.ndarray  # (2N,)
    normals: np.ndarray  # (P, 2N)
    offsets: np.ndarray  # (P,)
    pairs: list[tuple[int, int]]

    def contains(self, x: np.ndarray, atol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < self.box_lo - atol) or np.any(x > self.box_hi + atol):
            return False
        if self.normals.size and np.any(self.normals @ x > self.offsets + atol):
            return False
        return True

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """Half-space slacks offsets - normals @ x (>= 0 inside)."""
        if not self.normals.size:
            return np.zeros(0)
        return self.offsets - self.normals @ np.asarray(x, dtype=float)


def linearize_spacing(
    anchor: CouplerPlacement,
    m: int,
    layout: ArrayLayout,
    margin: float = 0.0,
) -> LinearizedFeasibleSet:
    """Linearize the spacing constraints of antenna m around a feasible anchor.

    For each unordered pair the constraint ||p_a - p_b||^2 >= d_min^2 is
    replaced by its first-order bound at the anchor, giving one half-space per
    pair.  ``margin`` (meters) shrinks the box and inflates d_min; used by the
    optimizer to keep finite-difference probes of interior iterates feasible.
    """
    N = layout.N
    q = layout.active_position(m)
    lo, hi = layout.region_bounds(m)
    p_anchor = anchor.antenna_vector(m)
    min_sep = layout.min_sep_m + margin

    # the precondition is local to antenna m; no other antenna state is read
    atol = 1e-8 * layout.lam
    if not _margin_ok(p_anchor, q, lo, hi, min_sep, margin, N, slack=atol):
        raise AnchorInfeasible(
            f"anchor at antenna {m} violates constraints (margin {margin})"
        )

    box_lo = np.tile(lo + margin, N)
    box_hi = np.tile(hi - margin, N)

    pts = p_anchor.reshape(N, 2)
    normals = []
    offsets = []
    pairs = []
    dim = 2 * N
    for n in range(N):
        # pair with the active element: d = ||p_n - q||^2, grad = 2(p_n - q)
        diff = pts[n] - q
        g = np.zeros(dim)
        g[2 * n : 2 * n + 2] = 2.0 * diff
        d_val = float(diff @ diff)
        # -d_t - g.(p - p_t) <= -min_sep^2  <=>  (-g).p <= d_t - g.p_t - min_sep^2
        normals.append(-g)
        offsets.append(d_val - g @ p_anchor - min_sep**2)
        pairs.append((0, n + 1))
    for a in range(N):
        for b in range(a + 1, N):
            diff = pts[a] - pts[b]
            g = np.zeros(dim)
            g[2 * a : 2 * a + 2] = 2.0 * diff
            g[2 * b : 2 * b + 2] = -2.0 * diff
            d_val = float(diff @ diff)
            normals.append(-g)
            offsets.append(d_val - g @ p_anchor - min_sep**2)
            pairs.append((a + 1, b + 1))

    return LinearizedFeasibleSet(
        antenna=m,
        anchor=p_anchor,
        box_lo=box_lo,
        box_hi=box_hi,
        normals=np.array(normals).reshape(len(pairs), dim),
        offsets=np.array(offsets),
        pairs=pairs,
    )


def _margin_ok(p_vec, q, lo, hi, min_sep, margin, N, slack=1e-15) -> bool:
    pts = p_vec.reshape(N, 2)
    if np.any(pts < lo + margin - slack) or np.any(pts > hi - margin + slack):
        return False
    full = np.vstack([q[None, :], pts])
    for a in range(N + 1):
        for b in range(a + 1, N + 1):
            if np.hypot(*(full[a] - full[b])) < min_sep - slack:
                return False
    return True


def project_onto_set(
    point: np.ndarray,
    feas_set: LinearizedFeasibleSet,
    tol: float | None = None,
    max_sweeps: int = 2000,
    lam: float | None = None,
    return_sweeps: bool = False,
):
    """Euclidean projection onto the linearized set via Dykstra's alternating
    projections over the box and the half-spaces.

    Exact for this polytope intersection in the limit; iteration stops when a
    full sweep moves the point by less than ``tol`` (default 1e-9 wavelengths,
    estimated from the box size when ``lam`` is not given).
    """
    x = np.asarray(point, dtype=float).copy()
    if tol is None:
        scale = lam if lam is not None else max(np.max(feas_set.box_hi - feas_set.box_lo), 1.0)
        tol = 1e-9 * scale
    P = feas_set.normals.shape[0]
    norms2 = np.einsum("ij,ij->i", feas_set.normals, feas_set.normals) if P else np.zeros(0)
    increments = np.zeros((P + 1, x.size))
    for sweep in range(1, max_sweeps + 1):
        x_start = x.copy()
        y = x + increments[0]
        x = np.clip(y, feas_set.box_lo, feas_set.box_hi)
        increments[0] = y - x
        for i in range(P):
            y = x + increments[i + 1]
            viol = feas_set.normals[i] @ y - feas_set.offsets[i]
            if viol > 0.0:
                x = y - (viol / norms2[i]) * feas_set.normals[i]
            else:
                x = y
            increments[i + 1] = y - x
        # Dykstra can plateau with the iterate still infeasible while the
        # increments keep evolving, so gate the stop on feasibility too.
        if np.linalg.norm(x - x_start) <= tol:
            infeas = max(
                float(np.max(feas_set.box_lo - x, initial=0.0)),
                float(np.max(x - feas_set.box_hi, initial=0.0)),
            )
            if P:
                infeas = max(infeas, float(np.max(feas_set.normals @ x - feas_set.offsets)))
            if infeas <= 10.0 * tol:
                return (x, sweep) if return_sweeps else x
    raise NoConvergence(
        f"Dykstra projection did not converge in {max_sweeps} sweeps (tol={tol})"
    )


def save_placement(path, placement: CouplerPlacement, layout: ArrayLayout) -> None:
    """Serialize a placement with its layout header to JSON (meters)."""
    doc = {
        "layout": {
            "M": layout.M,
            "N": layout.N,
            "d_y": layout.d_y,
            "A": layout.region_side,
            "d_min": layout.d_min,
            "f_c": layout.f_c,
        },
        "placements": placement.positions.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_placement(path) -> tuple[CouplerPlacement, ArrayLayout]:
    with open(path) as fh:
        doc = json.load(fh)
    hdr = doc["layout"]
    layout = ArrayLayout(
        M=hdr["M"], N=hdr["N"], d_y=hdr["d_y"], region_side=hdr["A"],
        d_min=hdr["d_min"], f_c=hdr["f_c"],
    )
    return CouplerPlacement(np.array(doc["placements"])), layout


def single_coupler_moves(p_m: np.ndarray, n: int, q_m: np.ndarray, points: np.ndarray,
                         min_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Antenna positions ``p_m`` (N, 2) with coupler n moved to each of
    ``points`` (D, 2) that stays ``min_dist`` from the active element ``q_m``
    and the other couplers; returns the (D,) mask of such points and the
    moved positions (mask.sum(), N, 2)."""
    anchors = np.vstack([q_m[None, :], np.delete(p_m, n, axis=0)])
    d = np.hypot(anchors[:, 0] - points[:, 0, None], anchors[:, 1] - points[:, 1, None])
    ok = np.min(d, axis=1) >= min_dist
    moved = np.repeat(p_m[None], int(ok.sum()), axis=0)
    moved[:, n] = points[ok]
    return ok, moved


def random_feasible_placement(
    layout: ArrayLayout, rng: np.random.Generator, max_tries: int = 10000
) -> CouplerPlacement:
    """Rejection-sample a feasible placement: couplers uniform in each region,
    redrawn per antenna until spacing holds."""
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
            raise InfeasibleLayout(
                f"could not sample a feasible placement for antenna {m} "
                f"in {max_tries} tries"
            )
    return CouplerPlacement(pos)
