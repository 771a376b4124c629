"""Structured pilot protocol and channel estimation for the coupler array.

The training window is split into V blocks of tau slots; coupler positions
are frozen within a block and re-randomized across blocks, which diversifies
the position-dependent effective channels and makes the angular sparse model
identifiable.  Estimation recovers, per user, the grid support of the
departure angles and the complex path gains, from which the effective channel
can be reconstructed at any coupler placement.

Two schemes are implemented: a centralized one (stack all pilot-correlated
observations at the central unit, OMP with exactly L selections, LS gains)
and a distributed one (per-antenna matched-filter proxies with
noise-calibrated thresholding, central score fusion for the support, then
per-antenna Gram/correlation sufficient statistics whose sums reproduce the
global LS normal equations); its one round driver records every exchange,
and runtime.run_algorithm3 returns the records as a message log.  An
exhaustive per-candidate measurement baseline is included for comparison.

Stacking order everywhere is block-major, antenna-minor: entry (v*M + m) of a
stacked vector belongs to block v, antenna m.

The per-antenna chain runs batched: one weights solve (``_weights``) feeds
the angular responses and the effective columns, both formed by the column
step of precoding's ``antenna_chain`` (``_column``).  The pilot phase and
the dictionary cube, built once per position set for all estimators, are one
chain call each over the (V, M) block/antenna pairs, and ``predict``,
``true_effective`` and ``nmse`` one call over all (test placement, antenna)
pairs.  Each batch entry reads only its own antenna's schedule, so local
estimator m's slice of the cube depends on no other antenna's positions.
``_weights`` keeps its last solve, so a trial solves once per position set:
the pilot phase's weights serve the dictionary, and the first ``predict``'s
serve ``true_effective`` and every later query at the same test positions;
the dictionary cube, the grid's active steering, ``nmse``'s ground truth
(``_truth``) and the exhaustive baseline's lattice half (``_lattice``) are
kept the same way, each in its own ``_kept`` slot.  The exhaustive baseline
takes every candidate's feasibility and impedances from one (M, N+1, D)
table of lattice-to-anchor distances: the lattice and its distances and
impedances to the active elements depend only on the layout, model and D
and are kept, so a trial computes the distances to the parked couplers and
their impedances (one ``mutual_impedance`` call).  It certifies every
feasible candidate's coupling system a I + E by Weyl's bound from ||E||_F
(``shift_certified``) and solves only the ones the bound leaves open with
``mech_weights``, then draws all the candidates' noise at once; those are
the steps that can raise or that set the noise stream.  The noise is
drawn where a measurement sees it, after the pilot correlation:
for pilots with S S^H = tau I (``make_pilots``) the correlated noise
n S^H / tau of white n ~ CN(0, sigma^2 I_tau) is exactly CN(0, sigma^2/tau
I_K), so each measurement takes K complex normals instead of tau.  One
routine (``_measure``) takes a measurement from its channels and its
impedance pairs: the parked one from the trial's parked pairs, and a
candidate's when its row of the result is first read, with its impedance
pairs and lattice-point steering formed then, so ``nmse`` (one row per test
placement and coupler) measures a few rows and only a read of the whole
``table`` measures them all.

Every user of a session runs in one pass: the centralized scheme makes one
``omp`` call on the (K, V M) stack of observations, whose last round's
least squares gives the gains, and Algorithm 3 runs its M local units as
one bank (``LocalEstimator`` over all antennas) and its K users as one
batch, so one proxy call, one statistics product and one stacked solve
cover every unit and user, and one fallback top-L call every starved user;
only the fusion runs per user.  Each row, unit and user carries the bits of its own single
call, and one row, unit or user is a batch of one.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (
    MultipathSpec,
    active_channel_matrix,
    coupler_channel_block,
    steering_active,
    steering_coupler_block,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    InformationLeak,
    RankDeficientSupport,
    SingularAggregate,
    TauTooShort,
    ZeroChannel,
)
from .geometry import (
    ArrayLayout,
    CouplerPlacement,
    anchor_distances,
    clear_moves,
    constraint_margins,
    pair_tables,
    random_feasible_placement,
)
from .impedance import DipoleModel, assemble_block, build_block, mutual_impedance
from .precoding import (
    _certified_solve,
    _column,
    effective_column,
    mech_weights,
    shift_certified,
)

DEFAULT_GRID_SIZE = 256
DEFAULT_THRESHOLD = 4.0  # ~6 dB above the effective noise floor
EPS_NORM = 1e-12  # keeps a proxy finite on a zero dictionary column
AGGREGATE_COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# pilots and the training session


def make_pilots(K: int, tau: int, seed) -> np.ndarray:
    """K x tau pilot matrix with S S^H = tau I, built from K distinct rows of
    the tau-point harmonic family with random row phases."""
    if tau < K:
        raise TauTooShort(f"tau={tau} must be at least K={K}")
    rng = np.random.default_rng(seed)
    rows = rng.choice(tau, size=K, replace=False)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=K)
    t = np.arange(tau)
    S = np.exp(1j * (2.0 * np.pi * np.outer(rows, t) / tau + phases[:, None]))
    return S


@dataclass
class PilotSession:
    """One training window: pilots, block count, per-block placements, and
    the per-antenna noise level."""

    S: np.ndarray  # (K, tau)
    tau: int
    V: int
    placements: list[CouplerPlacement]
    sigma2: float
    seed: int

    @property
    def K(self) -> int:
        return self.S.shape[0]

    @property
    def sigma_eff2(self) -> float:
        """Post-correlation noise variance sigma^2 / tau."""
        return self.sigma2 / self.tau

    @property
    def positions(self) -> np.ndarray:
        """Coupler positions of all blocks, shape (V, M, N, 2)."""
        return np.stack([pl.positions for pl in self.placements])


def make_session(
    layout: ArrayLayout,
    K: int,
    tau: int,
    V: int,
    sigma2: float,
    seed: int,
) -> PilotSession:
    """Draw pilots and V random feasible placements (rejection sampling)."""
    S = make_pilots(K, tau, seed)
    rng = np.random.default_rng([seed, 1])
    placements = [random_feasible_placement(layout, rng) for _ in range(V)]
    return PilotSession(S=S, tau=tau, V=V, placements=placements,
                        sigma2=sigma2, seed=seed)


def simulate_rx(
    session: PilotSession,
    spec: MultipathSpec,
    v,
    layout: ArrayLayout,
    model: DipoleModel,
) -> np.ndarray:
    """Received pilot block v at all antennas, shape (M, tau): row m is the
    post-coupling scalar channel times the pilots plus white noise.  An
    index array ``v`` gives the blocks (..., M, tau) from one chain call;
    block v always draws its noise from its own stream."""
    G = true_effective(spec, session.positions[v], layout, model)  # (..., M, K)
    sigma = np.sqrt(session.sigma2 / 2.0)
    noise = [sigma * (rng.standard_normal((layout.M, session.tau))
                      + 1j * rng.standard_normal((layout.M, session.tau)))
             for rng in (np.random.default_rng([session.seed, 2, i])
                         for i in np.ravel(v).tolist())]
    return G @ session.S + np.reshape(noise, G.shape[:-1] + (session.tau,))


def run_pilot_phase(
    session: PilotSession, spec: MultipathSpec, layout: ArrayLayout, model: DipoleModel
) -> list[np.ndarray]:
    """All V received blocks."""
    return list(simulate_rx(session, spec, np.arange(session.V), layout, model))


def pilot_correlate(y_m, S: np.ndarray, tau: int) -> np.ndarray:
    """Per-antenna pilot correlation: (1/tau) y S^H.  ``y_m`` is one length-tau
    row (returns (K,)) or stacked rows (..., tau) (returns (..., K)).  A
    stacked block is one matrix product, whose bits may differ from row-by-row
    products; rows (..., 1, tau) keep each row's own bits."""
    return np.asarray(y_m) @ S.conj().T / tau


# ---------------------------------------------------------------------------
# angular grid and dictionaries


@dataclass(frozen=True)
class AngularGrid:
    """Uniform azimuth grid on [-pi/2, pi/2]."""

    G: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.G < 2:
            raise ConfigError(f"grid needs at least 2 points, got G={self.G}")

    @cached_property
    def angles(self) -> np.ndarray:
        """The G grid angles, formed once per grid and read-only."""
        angles = np.linspace(-np.pi / 2, np.pi / 2, self.G)
        angles.flags.writeable = False
        return angles

    def nearest_index(self, phi) -> np.ndarray:
        step = np.pi / (self.G - 1)
        idx = np.rint((np.asarray(phi) + np.pi / 2) / step).astype(int)
        return np.clip(idx, 0, self.G - 1)


def response_row(
    phi, p_m: np.ndarray, w_m: np.ndarray, m, layout: ArrayLayout
) -> np.ndarray:
    """Effective per-antenna angular response b_m(phi; p_m) for angle(s) phi:
    the active steering entry minus the coupler re-radiation seen through the
    mechanical weights.  Positions (..., N, 2), weights (..., N) and ``m`` (an
    index, or an index array matching the batch axes) give (batch..., phi...).
    An AngularGrid ``phi`` means its angles, whose active steering is kept
    (``_kept``) per grid and layout."""
    if isinstance(phi, AngularGrid):
        grid = phi
        phi = grid.angles
        a = _kept("steering", (grid, layout), lambda: steering_active(grid.angles, layout))
    else:
        phi = np.asarray(phi, dtype=float)
        a = steering_active(phi.reshape(-1), layout)
    flat = phi.reshape(-1)
    a_y = np.moveaxis(a, -1, 0)[m]  # (batch..., P)
    b = _column(a_y, steering_coupler_block(flat, p_m, layout.lam), w_m)
    return b.reshape(b.shape[:-1] + phi.shape)


def _positions(placement) -> np.ndarray:
    """Coupler positions (..., M, N, 2) of a placement or a positions array."""
    return np.asarray(getattr(placement, "positions", placement), dtype=float)


_slots: dict[str, tuple] = {}


def _kept(name: str, key: tuple, build):
    """``build()``, an array or a tuple of arrays, read-only, kept in the one
    slot ``name`` and reused while ``key`` repeats; a build that raises is not
    kept."""
    slot = _slots.get(name)
    if slot is None or slot[0] != key:
        value = build()
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
        slot = _slots[name] = (key, value)
    return slot[1]


def _weights(P: np.ndarray, layout: ArrayLayout, model: DipoleModel) -> np.ndarray:
    """Mechanical weights (..., M, N) of all antennas at positions (..., M, N, 2),
    read-only.  The last solve is kept (``_kept``), keyed on the layout, model,
    shape and position bytes, so the pilot phase's weights serve the session's
    dictionary and one ``predict``'s serve ``true_effective`` and the next
    ``predict`` at the same test positions."""
    return _kept("weights", (layout, model, P.shape, P.tobytes()),
                 lambda: mech_weights(build_block(P, layout.active_positions(), model))[0])


def local_dictionary(
    session: PilotSession,
    m,
    grid: AngularGrid,
    layout: ArrayLayout,
    model: DipoleModel,
) -> np.ndarray:
    """Local dictionary of antenna m, shape (V, G): row v is the angular
    response at block-v coupler positions (mechanical weights solved from
    the antenna's own schedule).  An index array ``m`` gives (V, len(m), G)
    and ``slice(None)`` the whole (V, M, G) cube.  All are read-only slices
    of one cube, built by one chain call over the (V, M) block/antenna pairs
    and kept (``_kept``) while the grid, layout, model and the positions'
    shape and bytes repeat, so a moved coupler or a new grid or model means
    a rebuild."""
    P = session.positions
    cube = _kept("dictionary", (grid, layout, model, P.shape, P.tobytes()),
                 lambda: response_row(grid, P, _weights(P, layout, model),
                                      np.arange(layout.M), layout))
    out = cube[:, m]
    out.flags.writeable = False
    return out


def build_dictionary(
    session: PilotSession,
    grid: AngularGrid,
    layout: ArrayLayout,
    model: DipoleModel,
) -> np.ndarray:
    """Full (V M, G) dictionary over all blocks and antennas: the block-major
    reshape of the session's read-only cube, so row v*M + m is a view of
    antenna m's local row v."""
    return local_dictionary(session, slice(None), grid, layout, model).reshape(-1, grid.G)


# ---------------------------------------------------------------------------
# sparse recovery primitives


def _ls_on_columns(y: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR least squares of rows y (K, n) on their selected columns (K, n, r),
    one stacked QR and solve (LAPACK per row, so each row has the bits of its
    own call): coefficients (K, r) and residuals (K, n).  Raises when any
    row's columns outnumber its samples or its triangular factor signals
    numerically dependent columns."""
    if cols.shape[-1] > cols.shape[-2]:
        raise RankDeficientSupport(
            f"{cols.shape[-1]} columns on {cols.shape[-2]} samples are dependent")
    Q, R = np.linalg.qr(cols)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    low = diag.min(axis=-1)
    bad = low < 1e-10 * np.maximum(diag.max(axis=-1), 1e-300)
    if bad.any():
        raise RankDeficientSupport(
            f"selected columns are numerically dependent (min |R_ii| = {low[bad].min():.3e})"
        )
    x = np.linalg.solve(R, np.swapaxes(Q.conj(), -1, -2) @ y[..., None])[..., 0]
    return x, y - (cols @ x[..., None])[..., 0]


def _columns(A: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Columns (K, n, r) of A at supports (K, r), each row's (n, r) block
    laid out as ``A[:, support[k]]`` lays it out (column-major)."""
    return np.swapaxes(A.T[support], -1, -2)


def omp(Y: np.ndarray, A: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal matching pursuit with exactly L selections and per-round LS
    refit, for rows Y (K, n) sharing the dictionary A.  Ties in the
    correlation maximum break toward the lowest index.  Returns the (K, L)
    int supports in selection order and the (K, L) complex gains, the
    coefficients of the last round's refit (Tropp & Gilbert, IEEE Trans.
    Inf. Theory 53(12), 2007).  Each round is one correlation, one argmax per
    row and one stacked QR solve, row k with the bits of its own call; one
    row is a batch of one.  A dependent support in any row raises
    RankDeficientSupport."""
    if L > A.shape[1]:
        raise DimensionMismatch(f"L={L} exceeds the dictionary size {A.shape[1]}")
    Y = np.asarray(Y, dtype=complex, order="C")
    A_h = A.conj().T
    rows = np.arange(len(Y))[:, None]
    support = np.zeros((len(Y), L), dtype=int)
    gains, residual = np.zeros((len(Y), 0), dtype=complex), Y
    for r in range(L):
        corr = np.abs((A_h @ residual[..., None])[..., 0])  # one product per row
        corr[rows, support[:, :r]] = -1.0  # already selected
        support[:, r] = np.argmax(corr, axis=-1)
        gains, residual = _ls_on_columns(Y, _columns(A, support[:, :r + 1]))
    return support, gains


# ---------------------------------------------------------------------------
# results and reconstruction


@dataclass
class EstimationResult:
    """Sparse estimate for all users: grid supports, mapped angles, gains,
    plus the communication ledger of the producing scheme."""

    supports: np.ndarray  # (K, L) int
    angles: np.ndarray  # (K, L) float
    gains: np.ndarray  # (K, L) complex
    ledger: dict = field(default_factory=dict)

    def predict(self, placement, layout: ArrayLayout, model: DipoleModel) -> np.ndarray:
        """Reconstructed effective channels (M, K) at an arbitrary placement,
        using freshly solved mechanical weights at the query positions.
        Positions (..., M, N, 2) give (..., M, K) from one chain call."""
        P = _positions(placement)
        b = response_row(self.angles, P, _weights(P, layout, model), np.arange(layout.M),
                         layout)  # (..., M, K, L)
        return np.sum(self.gains * b, axis=-1)


def true_effective(spec: MultipathSpec, placement, layout: ArrayLayout,
                   model: DipoleModel) -> np.ndarray:
    """Ground-truth effective channels (M, K) at a placement, or (..., M, K)
    at positions (..., M, N, 2), from one chain call."""
    P = _positions(placement)
    return effective_column(spec, P, _weights(P, layout, model), np.arange(layout.M),
                            active_channel_matrix(spec, layout), layout.lam)


def _truth(spec: MultipathSpec, P: np.ndarray, layout: ArrayLayout,
           model: DipoleModel) -> np.ndarray:
    """``true_effective`` at positions P (..., M, N, 2), read-only.  The last
    one is kept (``_kept``), keyed on the spec's angle and gain bytes, the
    layout, model, shape and position bytes, so the ``nmse`` calls that score
    several estimates of one channel at the same test positions build it once."""
    key = (spec.angles.shape, spec.angles.tobytes(), spec.gains.tobytes(), layout, model,
           P.shape, P.tobytes())
    return _kept("truth", key, lambda: true_effective(spec, P, layout, model))


def nmse(
    result,
    spec: MultipathSpec,
    test_placements: list[CouplerPlacement],
    layout: ArrayLayout,
    model: DipoleModel,
) -> float:
    """Mean over users and query placements of ||g_hat - g||^2 / ||g||^2,
    norms taken across antennas; the ground truth g is kept (``_truth``)."""
    if not test_placements:
        raise DimensionMismatch("need at least one test placement")
    P = np.stack([_positions(pl) for pl in test_placements])  # (T, M, N, 2)
    g_hat = result.predict(P, layout, model)
    g = _truth(spec, P, layout, model)
    denom = np.sum(np.abs(g) ** 2, axis=-2)  # (T, K)
    if np.any(denom < 1e-300):
        raise ZeroChannel("true effective channel vanished at a test placement")
    err = np.sum(np.abs(g_hat - g) ** 2, axis=-2)
    return float(np.mean(err / denom))


def support_hit_rate(result, spec: MultipathSpec, grid: AngularGrid) -> float:
    """Fraction of true paths whose nearest grid bin was selected."""
    hits = 0
    total = 0
    for k in range(spec.K):
        true_bins = set(grid.nearest_index(spec.angles[k]).tolist())
        est = set(int(j) for j in result.supports[k])
        hits += len(true_bins & est)
        total += len(true_bins)
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# centralized scheme


def centralized_estimate(
    session: PilotSession,
    observations: list[np.ndarray],
    L: int,
    grid: AngularGrid,
    layout: ArrayLayout,
    model: DipoleModel,
) -> EstimationResult:
    """Stack pilot-correlated observations over antennas and blocks at the
    central unit, then run OMP (exactly L selections) for all users at once,
    its last least-squares refit giving the gains: row k of the (K, V M)
    stack is user k's block-major observation."""
    corr = pilot_correlate(np.asarray(observations), session.S, session.tau)  # (V, M, K)
    y = np.moveaxis(corr, -1, 0).reshape(session.K, -1)
    A = build_dictionary(session, grid, layout, model)
    supports, gains = omp(y, A, L)
    ledger = {
        "pilot_uplink_complex": layout.M * session.V * session.tau,
        "pilot_uplink_scalars": 2 * layout.M * session.V * session.tau,
    }
    return EstimationResult(supports=supports, angles=grid.angles[supports], gains=gains,
                            ledger=ledger)


# ---------------------------------------------------------------------------
# distributed scheme


def local_proxy(A_m: np.ndarray, y_mk: np.ndarray, sigma_eff2: float,
                eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter proxies rho (..., G) of dictionaries A_m (..., V, G)
    for observations y_mk (..., V), broadcast against each other, each
    entry with the bits of its own call: |A_m^H y|^2 over the column
    energies (sum over blocks of |A_m|^2).  Returns rho and the (..., G)
    mask of the noise-calibrated threshold rho >= eta * sigma_eff2."""
    c = (np.swapaxes(A_m.conj(), -1, -2) @ y_mk[..., None])[..., 0]
    rho = np.abs(c) ** 2 / (np.sum(np.abs(A_m) ** 2, axis=-2) + EPS_NORM)
    return rho, rho >= eta * sigma_eff2


def fuse_and_select(uploads, L: int, G: int) -> tuple[np.ndarray, bool]:
    """Aggregate per-antenna (indices, rho values) into grid scores and take
    the top-L indices (descending score, ties toward the lowest index).
    The second return value is False when fewer than L grid points carried
    any score, signalling the caller to run the unthresholded fallback."""
    scores = np.zeros(G)
    for idx, rho in uploads:
        if len(idx):
            scores[idx] += rho
    order = np.lexsort((np.arange(G), -scores))
    support = order[:L].astype(int)
    return support, int(np.count_nonzero(scores > 0.0)) >= L


class LocalEstimator:
    """A bank of local units of the distributed scheme (Algorithm 3), one per
    entry of the antenna index array ``m``; one unit is a bank of one
    (``m=[j]``).  Unit j owns only its antenna's observations and its (V, G)
    dictionary, slice j of the batched (V, M, G) cube (the bank holds the
    (V, len(m), G) slice).  Everything a unit produces for the central unit
    is explicit (proxies, sufficient statistics), and a request it has not
    been prepared for by an earlier exchange of that user raises
    InformationLeak.

    Every method takes a user index array ``users`` (one user is a batch of
    one) and computes for all units and users in one call, the users a
    batch axis ahead of each unit's (V, G) dictionary, so each (unit, user)
    entry has the bits of its own call.  It returns one upload per unit, in
    the order of ``m``, holding one entry per user: a list of (indices,
    values) pairs for the proxies, and a leading user axis on the
    statistics."""

    def __init__(self, m, session: PilotSession, A_m: np.ndarray):
        self.m = m
        self.session = session
        self.A_m = np.moveaxis(A_m, 0, -2)  # (units, V, G)
        self.corr = None  # (units, V, K) after correlate()
        self._rho: dict[int, np.ndarray] = {}
        self._supports: dict[int, np.ndarray] = {}

    def correlate(self, y_rows: list[np.ndarray]) -> None:
        """Pilot-correlate the units' own V received rows, (units, tau) each,
        as one-row products: the bits of correlating each row alone."""
        Y = np.stack(y_rows)[..., None, :]  # (V, units, 1, tau)
        corr = pilot_correlate(Y, self.session.S, self.session.tau)[..., 0, :]
        self.corr = np.moveaxis(corr, 0, -2)

    def observation(self, users) -> np.ndarray:
        """The units' correlations (units, len(users), V) of the users."""
        return np.swapaxes(self.corr[..., users], -1, -2)

    def _known(self, users, store: dict, what: str) -> np.ndarray:
        """The stored entries of the users, stacked on axis -2; a user
        without one raises InformationLeak."""
        for u in users:
            if u not in store:
                raise InformationLeak(f"LPU {self.m} has no {what} of user {u}")
        return np.stack([store[u] for u in users], axis=-2)

    def proxies(self, users, eta: float) -> list[list[tuple]]:
        """Thresholded proxy upload of the users: (kept indices, their rho)."""
        rho, passed = local_proxy(self.A_m[:, None], self.observation(users),
                                  self.session.sigma_eff2, eta)
        for i, u in enumerate(users):
            self._rho[u] = rho[:, i]
        # the passing grid indices and values of each (unit, user) row, rows unit-major
        idx, vals = np.flatnonzero(passed) % rho.shape[-1], rho[passed]
        ends = np.cumsum(np.count_nonzero(passed, axis=-1)).ravel().tolist()
        pairs = [(idx[a:b], vals[a:b]) for a, b in zip([0] + ends[:-1], ends)]
        return [pairs[j:j + len(users)] for j in range(0, len(pairs), len(users))]

    def top_proxies(self, users, L: int) -> list[list[tuple]]:
        """Fallback upload of the users: the unthresholded top-L proxies."""
        rho = self._known(users, self._rho, "proxies")
        lanes = np.broadcast_to(np.arange(rho.shape[-1]), rho.shape)
        idx = np.sort(np.lexsort((lanes, -rho), axis=-1)[..., :L], axis=-1)
        return [list(zip(*unit)) for unit in zip(idx, np.take_along_axis(rho, idx, axis=-1))]

    def receive_support(self, users, supports: np.ndarray) -> None:
        """Supports (len(users), L) of the users."""
        self._supports.update(zip(users, supports))

    def suff_stats(self, users) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gram R (len(users), L, L) and correlation q (len(users), L) of the
        users on their received supports."""
        support = self._known(users, self._supports, "support")  # (users, L)
        # C-ordered (V, L) and (L, V) factors per unit and user: the layouts
        # whose batched products carry the bits of the single products
        A_g = np.ascontiguousarray(np.swapaxes(self.A_m[..., support], -3, -2))
        A_h = np.ascontiguousarray(np.swapaxes(A_g, -1, -2)).conj()
        q = (A_h @ self.observation(users)[..., None])[..., 0]
        return list(zip(A_h @ A_g, q))


def aggregate_gains(stats: list[tuple[np.ndarray, np.ndarray]], eps_k) -> np.ndarray:
    """Sum per-antenna sufficient statistics and solve the loaded normal
    equations; eps_k may be a float or "auto" (1e-8 tr(R)/L).  Statistics
    with leading batch axes, R (..., L, L) and q (..., L), take one stacked
    certified solve, "auto" loading each entry by its own trace."""
    R = np.zeros_like(stats[0][0])
    q = np.zeros_like(stats[0][1])
    for R_m, q_m in stats:
        R = R + R_m
        q = q + q_m
    L = R.shape[-1]
    if eps_k == "auto":
        eps_k = 1e-8 * np.trace(R, axis1=-2, axis2=-1).real / max(L, 1)
    X, _ = _certified_solve(R + np.multiply.outer(eps_k, np.eye(L)), q[..., None],
                            AGGREGATE_COND_LIMIT, SingularAggregate, "loaded aggregated Gram")
    return X[..., 0]


def _algorithm3_rounds(
    session: PilotSession,
    observations: list[np.ndarray],
    L: int,
    grid: AngularGrid,
    layout: ArrayLayout,
    model: DipoleModel,
    eta: float,
    eps_k,
) -> tuple[EstimationResult, list[tuple]]:
    """The rounds of Algorithm 3, per user: proxy upload (plus the
    unthresholded fallback round when thresholding starves the fusion),
    support broadcast with the sufficient-statistics upload, gain broadcast.
    All users' proxies, fallback proxies, statistics and gains are computed
    in one pass each; only the fusion runs per user.

    Every exchange is recorded as (round, antenna, payload kind, scalar
    count, payload) in exchange order, a complex scalar counting as 2 units
    and a grid index as 1; the result's ledger is summed from the records."""
    M = layout.M
    K = session.K
    users = np.arange(K)
    bank = LocalEstimator(np.arange(M), session,
                          local_dictionary(session, slice(None), grid, layout, model))
    bank.correlate(observations)

    uploads = bank.proxies(users, eta)  # per antenna, one (indices, rho) pair per user
    fused = [fuse_and_select([up[k] for up in uploads], L, grid.G) for k in range(K)]
    supports = np.array([support for support, _ in fused], dtype=int)
    starved = [k for k, (_, ok) in enumerate(fused) if not ok]
    # too little survived thresholding: one extra round of unthresholded
    # top-L proxies from every antenna for each starved user
    fallback = {}
    if starved:
        top = bank.top_proxies(starved, L)
        for i, k in enumerate(starved):
            fallback[k] = [up[i] for up in top]
            supports[k], _ = fuse_and_select(fallback[k], L, grid.G)
    bank.receive_support(users, supports)
    stats = bank.suff_stats(users)  # per antenna, R (K, L, L) and q (K, L)
    gains = aggregate_gains(stats, eps_k)

    records = []
    r = 0
    for k in range(K):
        r += 1
        records += [(r, m, "proxy_list", 2 * len(up[k][0]), up[k])
                    for m, up in enumerate(uploads)]
        if k in fallback:
            r += 1
            for m, up in enumerate(fallback[k]):
                records += [(r, m, "proxy_request", 1, L),
                            (r, m, "proxy_list", 2 * len(up[0]), up)]
        r += 1
        for m, (R_m, q_m) in enumerate(stats):
            records += [(r, m, "support", L, supports[k]),
                        (r, m, "suff_stats", 2 * (L * L + L), (R_m[k], q_m[k]))]
        r += 1
        records += [(r, m, "gains", 2 * L, gains[k]) for m in range(M)]

    units = Counter()
    for _, _, kind, count, _ in records:
        units[kind] += count
    ledger = {
        "proxy_scalars": units["proxy_list"],
        # a fallback round sends one single-unit request to every antenna
        "fallback_rounds": units["proxy_request"] // M,
        "support_scalars": units["support"],
        "suffstat_complex": units["suff_stats"] // 2,
        "suffstat_scalars": units["suff_stats"],
        "gain_scalars": units["gains"],
    }
    return EstimationResult(supports=supports, angles=grid.angles[supports], gains=gains,
                            ledger=ledger), records


def distributed_estimate(
    session: PilotSession,
    observations: list[np.ndarray],
    L: int,
    grid: AngularGrid,
    layout: ArrayLayout,
    model: DipoleModel,
    eta: float = DEFAULT_THRESHOLD,
    eps_k="auto",
) -> EstimationResult:
    """Full distributed pipeline: local proxies, central fusion of the
    support, local sufficient statistics, central loaded-LS gains.  The
    ledger sums the exchanges that runtime.run_algorithm3 logs."""
    return _algorithm3_rounds(session, observations, L, grid, layout, model,
                              eta, eps_k)[0]


# ---------------------------------------------------------------------------
# exhaustive measurement baseline


@dataclass
class _PendingRows:
    """What the rows of an exhaustive table are measured from: the F feasible
    candidates (m, n, d), stacked m-major, then n, then d, the impedance
    table their pairs are gathered from, their noise and the channels their
    antennas share.  Calling it with row indices measures those candidates;
    only then are their impedance pairs gathered (``_candidate_pairs``).

    The noise is the post-correlation noise of each measurement, K complex
    values of variance ``sigma_eff2`` (``exhaustive_baseline``), so the block
    holds F 2 K floats whatever tau is."""

    index: tuple[np.ndarray, np.ndarray, np.ndarray]  # (mi, ni, di), each (F,)
    z_table: np.ndarray  # (M, N+1, D) lattice-to-anchor impedances, 0 below d_min
    z_parked: np.ndarray  # (M, P) impedances of the parked spacing pairs
    model: DipoleModel
    spec: MultipathSpec
    lam: float
    lattice: np.ndarray  # (M, D, 2) candidate points
    h_active: np.ndarray  # (K, M)
    h_parked: np.ndarray  # (M, K, N) parked couplers' channels
    noise: np.ndarray  # (F, 2, K), real then imaginary parts of the correlated noise
    S: np.ndarray  # (K, tau) pilots
    tau: int

    def __len__(self) -> int:
        return len(self.index[0])

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """Measurements (len(rows), K) of the candidates ``rows``: antenna m's
        parked channels with coupler n's replaced by lattice point d's, the
        weights of its impedance block, and its own noise."""
        mi, ni, di = (i[rows] for i in self.index)
        h_c = self.h_parked[mi]  # (R, K, N)
        h_c[np.arange(len(rows)), :, ni] = coupler_channel_block(
            self.spec, self.lattice[mi, di][:, None], self.lam)[..., 0]
        return _measure(self.h_active.T[mi], h_c,
                        _candidate_pairs(self.z_table, self.z_parked, mi, ni, di), self.model,
                        self.noise[rows], self.S, self.tau)


@functools.lru_cache(maxsize=None)
def _moved_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """For coupler n (row n) and spacing pair p of [q_m, p_1..p_N], in
    ``pair_tables`` order: the anchor at the pair's other end and whether the
    pair touches coupler n, both (N, P), read-only and formed once per N."""
    a, b = pair_tables(N).a, pair_tables(N).b
    row = np.arange(1, N + 1)[:, None]  # coupler n's anchor row
    other, touched = np.where(a == row, b, a), (a == row) | (b == row)
    other.flags.writeable = touched.flags.writeable = False
    return other, touched


def _candidate_pairs(z_table: np.ndarray, z_parked: np.ndarray, mi, ni, di) -> np.ndarray:
    """Impedances (R, P) of the spacing pairs of candidates (mi, ni, di):
    antenna m's parked pairs (``z_parked``, (M, P)) with the pairs of coupler
    n replaced by lattice point d's to the other anchors (``z_table``,
    (M, N+1, D))."""
    other, touched = _moved_pairs(z_table.shape[1] - 1)
    return np.where(touched[ni], z_table[mi[:, None], other[ni], di[:, None]], z_parked[mi])


def _coupler_norms(z_table: np.ndarray, z_parked: np.ndarray) -> np.ndarray:
    """Frobenius norms (M, N, D) of the couplers' off-diagonal impedances E
    of every candidate (m, n, d): the coupler pairs of ``_candidate_pairs``,
    each on both sides of the diagonal, formed without gathering the pairs."""
    N = z_table.shape[1] - 1
    other, touched = (x[:, N:] for x in _moved_pairs(N))  # the coupler pairs
    sq_table = z_table.real ** 2 + z_table.imag ** 2  # (M, N+1, D)
    sq_parked = z_parked[:, N:].real ** 2 + z_parked[:, N:].imag ** 2  # (M, P - N)
    moved = np.sum(np.where(touched[..., None], sq_table[:, other], 0.0), axis=2)
    unmoved = np.sum(np.where(touched, 0.0, sq_parked[:, None]), axis=-1)  # (M, N)
    return np.sqrt(2.0 * (moved + unmoved[..., None]))


def _lattice(layout: ArrayLayout, model: DipoleModel, D: int):
    """The candidate lattice (M, D, 2), its distances (M, D) to the active
    elements and the impedances of those at or above d_min (zero below), all
    read-only.  They depend on no trial, so they are kept (``_kept``) on the
    layout, model and D; a build that raises TooClose is not kept.

    Lattice point d = i * side + j of antenna m sits at column j, row i of
    its region."""

    def build():
        side = math.isqrt(D)
        q = layout.active_positions()
        lo, hi = q - 0.5 * layout.region_side_m, q + 0.5 * layout.region_side_m
        ticks = lo[:, None] + (np.arange(side)[:, None] + 0.5) * (hi - lo)[:, None] / side
        lattice = np.empty((layout.M, side, side, 2))
        lattice[..., 0] = ticks[:, None, :, 0]
        lattice[..., 1] = ticks[:, :, None, 1]
        lattice = lattice.reshape(layout.M, D, 2)
        dist = anchor_distances(lattice, q[:, None])[:, 0]
        clear = dist >= layout.min_sep_m
        z = np.zeros(dist.shape, dtype=complex)
        z[clear] = mutual_impedance(dist[clear], model)
        return lattice, dist, z

    return _kept("lattice", (layout, model, D), build)


def _measure(h_a: np.ndarray, h_c: np.ndarray, z: np.ndarray, model: DipoleModel,
             noise: np.ndarray, S: np.ndarray, tau: int) -> np.ndarray:
    """Pilot-correlated measurements (..., K) of antennas with active channels
    h_a (..., K), coupler channels h_c (..., K, N) and spacing-pair impedances
    z (..., P): the effective channel g at the weights of ``assemble_block(z)``,
    the correlation of the noiseless received block g S, plus the correlated
    noise (..., 2, K), the real then the imaginary part of each measurement."""
    w = mech_weights(assemble_block(z, model))[0]
    y = pilot_correlate(_column(h_a, h_c, w) @ S, S, tau)
    y.real += noise[..., 0, :]
    y.imag += noise[..., 1, :]
    return y


@dataclass
class ExhaustiveResult:
    """Direct per-candidate measurement table.  For each antenna and each
    coupler, the effective channel is measured with that coupler at every
    lattice candidate and the remaining couplers parked at the reference
    placement.  Prediction snaps each coupler to its nearest feasible
    candidate and applies the first-order correction around the parked
    measurement (exact lookup for N = 1).

    ``exhaustive_baseline`` leaves the candidates' rows unmeasured
    (``pending``); a row is measured when it is first read and kept.
    ``predict`` measures the rows its queries pick, and ``table`` every row,
    which costs about what measuring all candidates at once does.  The
    result holds each candidate's post-correlation noise, F 2 K floats for
    its F feasible candidates whatever tau is (about 0.1 MB at M = 4, N = 2,
    K = 2, D = 400, where F is about 3,100)."""

    candidates: np.ndarray  # (M, D, 2) lattice points per antenna region
    feasible: np.ndarray  # (M, N, D) bool
    base: np.ndarray  # (M, K) complex, parked measurement
    parked: CouplerPlacement
    ledger: dict
    pending: _PendingRows = field(repr=False)

    def __post_init__(self):
        self._table = np.zeros(self.feasible.shape + self.base.shape[-1:], dtype=complex)
        self._measured = np.zeros(len(self.pending), dtype=bool)
        self._row = np.cumsum(self.feasible).reshape(self.feasible.shape) - 1

    @property
    def table(self) -> np.ndarray:
        """The (M, N, D, K) measurement table, zero at infeasible candidates,
        with every row measured; read-only."""
        self._measure(np.arange(len(self._measured)))
        table = self._table.view()
        table.flags.writeable = False
        return table

    def _measure(self, rows: np.ndarray) -> None:
        """Measure the rows not measured yet.  A one-row product (gemv) rounds
        differently from the rows of a larger one (gemm), so a lone row is
        measured next to another whenever there are two."""
        rows = np.unique(rows)
        rows = rows[~self._measured[rows]]
        if len(rows) == 1 and len(self._measured) > 1:
            rows = np.append(rows, (rows[0] + 1) % len(self._measured))
        if len(rows):
            self._table[tuple(i[rows] for i in self.pending.index)] = self.pending(rows)
            self._measured[rows] = True

    def _nearest_feasible(self, P: np.ndarray) -> np.ndarray:
        """Index (..., M, N) of the feasible candidate nearest to each coupler
        of positions (..., M, N, 2), the lowest index among equal squared
        distances; 0 for a coupler with no feasible candidate.

        Candidate d = i * side + j sits on lattice row i and column j, so its
        squared distance is dx2[j] + dy2[i] from the per-axis squares."""
        D = self.feasible.shape[-1]
        side = math.isqrt(D)
        c = self.candidates  # (M, D, 2): row i of the lattice is c[:, i*side:(i+1)*side]
        dx2 = (c[:, None, :side, 0] - P[..., 0, None]) ** 2  # (..., M, N, side)
        dy2 = (c[:, None, ::side, 1] - P[..., 1, None]) ** 2
        d2 = (dx2[..., None, :] + dy2[..., :, None]).reshape(dx2.shape[:-1] + (D,))
        return np.argmin(np.where(self.feasible, d2, np.inf), axis=-1)

    def predict(self, placement, layout: ArrayLayout, model: DipoleModel) -> np.ndarray:
        """Predicted channels (M, K) at a placement, or (..., M, K) at
        positions (..., M, N, 2)."""
        M, N, _ = self.feasible.shape
        K = self.base.shape[-1]
        P = _positions(placement)
        at = np.arange(M)[:, None], np.arange(N), self._nearest_feasible(P)  # (..., M, N)
        self._measure(self._row[at][self.feasible[at]])
        picked = self._table[at]  # (..., M, N, K)
        step = np.where(self.feasible.any(axis=-1)[..., None],
                        picked - self.base[:, None], 0.0)
        out = np.broadcast_to(self.base, P.shape[:-2] + (K,)).copy()
        for n in range(N):  # summed coupler by coupler, in a fixed order
            out = out + step[..., n, :]
        return out


def exhaustive_baseline(
    session: PilotSession,
    spec: MultipathSpec,
    layout: ArrayLayout,
    model: DipoleModel,
    D: int = 400,
) -> ExhaustiveResult:
    """Measure the effective channel over a D-point lattice per coupler
    region via pilot correlation (noise at the session's level).  ``D`` must
    be a positive perfect square (a side x side lattice), else ConfigError.

    Candidate (m, n, d) moves coupler n of antenna m to lattice point d and
    keeps the others parked.  Couplers that did not move keep their
    channels, so each parked coupler's are computed once and a candidate's
    coupler channels are its antenna's parked ones with column n replaced by
    point d's.  Its impedances are its antenna's parked ones with the pairs of
    coupler n replaced by point d's distances to the other anchors of
    [q_m, p_1..p_N]: one (M, N+1, D) table of lattice-to-anchor distances
    gives the feasibility mask (``clear_moves``) and their impedances.  Its
    active row, with the lattice, is the kept lattice half (``_lattice``), so
    a trial sends ``mutual_impedance`` only the M N D distances to the parked
    couplers and the parked pairs, in one call and no ``build_block`` call.

    Everything that can raise or that draws noise runs here: the distance
    table and its impedances (TooClose), every feasible candidate's
    coupling-system certificate (SingularSystem), the parked measurement and
    one noise draw for it and all candidates, stacked m-major, then n, then
    d, in the order they would be measured one after another.  A candidate's
    system is a I + E with a = z_self + z_load, and E its coupler pairs'
    impedances; Weyl's bound from ||E||_F (``shift_certified``) certifies
    it without assembly, and only the candidates it leaves open are
    assembled and solved by ``mech_weights``, whose exact SVD still decides;
    the weights are dropped.  Every measurement is one ``_measure`` call:
    the parked one on the parked pairs' impedances, and each candidate's
    when its row of the result is first read, with its impedance pairs and
    lattice-point channels formed then.

    A measurement is the pilot correlation (1/tau) (g S + n) S^H of white
    noise n ~ CN(0, sigma^2 I_tau).  Its noise term n S^H / tau is drawn
    directly: K complex normals of variance ``session.sigma_eff2`` =
    sigma^2/tau per measurement, one (M + F, 2, K) block of standard normals
    scaled by sqrt(sigma_eff2 / 2) and added after the correlation of the
    noiseless g S.  That is exact because the session's pilots satisfy
    S S^H = tau I, the contract of ``make_pilots``, so the correlated noise
    is white across the K users with that variance."""
    side = math.isqrt(max(D, 0))
    if D < 1 or side * side != D:
        raise ConfigError(f"must be a positive perfect square, got {D}", field="D")
    M, N = layout.M, layout.N
    parked = session.placements[0]
    candidates, to_active, z_active = _lattice(layout, model, D)

    # distances of every lattice point to the parked couplers and of the
    # parked pairs; the impedances of those at or above d_min
    P0 = parked.positions
    to_parked = anchor_distances(candidates, P0)  # (M, N, D)
    feasible = clear_moves(np.concatenate([to_active[:, None], to_parked], axis=1),
                           np.arange(N), layout.min_sep_m)  # (M, N, D)
    clear = to_parked >= layout.min_sep_m
    z = mutual_impedance(np.concatenate([to_parked[clear],
                                         constraint_margins(P0, layout)[1].ravel()]), model)
    n_clear = np.count_nonzero(clear)
    z_table = np.zeros((M, N + 1, D), dtype=complex)
    z_table[:, 0] = z_active
    z_table[:, 1:][clear], z_parked = z[:n_clear], z[n_clear:].reshape(M, -1)  # (M, P)

    # feasible candidates (m, n, d), stacked m-major, then n, then d; the
    # coupling systems Weyl's bound leaves open are assembled and certified
    mi, ni, di = np.nonzero(feasible)
    a = model.self_impedance + model.load_impedance
    uncertified = np.nonzero(feasible & ~shift_certified(a, _coupler_norms(z_table, z_parked)))
    if len(uncertified[0]):
        mech_weights(assemble_block(_candidate_pairs(z_table, z_parked, *uncertified), model))

    # the parked measurement's correlated noise first, then the candidates'
    noise = np.random.default_rng([session.seed, 3]).standard_normal((M + len(mi), 2, session.K))
    noise *= np.sqrt(session.sigma_eff2 / 2.0)
    h_active = active_channel_matrix(spec, layout)
    h_parked = coupler_channel_block(spec, P0, layout.lam)
    base = _measure(h_active.T, h_parked, z_parked, model, noise[:M], session.S, session.tau)

    ledger = {
        "candidate_measurements_per_user_per_block": M * N * D,
        "baseline_measurements_per_user_per_block": M,
        "lattice_side": side,
    }
    pending = _PendingRows(index=(mi, ni, di), z_table=z_table, z_parked=z_parked, model=model,
                           spec=spec, lam=layout.lam, lattice=candidates, h_active=h_active,
                           h_parked=h_parked, noise=noise[M:], S=session.S, tau=session.tau)
    return ExhaustiveResult(candidates=candidates, feasible=feasible, base=base, parked=parked,
                            ledger=ledger, pending=pending)
