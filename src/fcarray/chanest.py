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
the dictionary cube, built once per session for all estimators, are one
chain call each over the (V, M) block/antenna pairs, and ``predict``,
``true_effective`` and ``nmse`` one call over all (test placement, antenna)
pairs.  The exhaustive baseline steers each lattice point and each parked
coupler once and scores all M N D candidates with one weights solve, one
column step and one noise draw.  Each batch entry reads only
its own antenna's schedule, so local estimator m's slice of the cube depends
on no other antenna's positions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

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
    InfeasibleLayout,
    InformationLeak,
    RankDeficientSupport,
    SingularAggregate,
    TauTooShort,
    ZeroChannel,
)
from .geometry import (
    ArrayLayout,
    CouplerPlacement,
    constraint_margins,
    random_feasible_placement,
    single_coupler_moves,
)
from .impedance import DipoleModel, build_block
from .precoding import _certified_solve, _column, effective_column, mech_weights

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
    the per-antenna noise level; caches its cube (see ``local_dictionary``)."""

    S: np.ndarray  # (K, tau)
    tau: int
    V: int
    placements: list[CouplerPlacement]
    sigma2: float
    seed: int
    _dictionary: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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
    placement_spread: float | None = None,
) -> PilotSession:
    """Draw pilots and V random feasible placements (rejection sampling).

    With ``placement_spread`` (wavelengths) the couplers are drawn in the
    annulus [1.01 d_min, spread] around each active element instead of
    uniformly over the box.  Mutual coupling decays fast with distance, so
    concentrating the training placements in the strong-coupling zone makes
    the angular dictionary far better conditioned; the recovered angles and
    gains are global, so reconstruction anywhere in the region is unaffected.
    """
    S = make_pilots(K, tau, seed)
    rng = np.random.default_rng([seed, 1])
    if placement_spread is None:
        placements = [random_feasible_placement(layout, rng) for _ in range(V)]
    else:
        placements = [_annulus_placement(layout, rng, placement_spread)
                      for _ in range(V)]
    return PilotSession(S=S, tau=tau, V=V, placements=placements,
                        sigma2=sigma2, seed=seed)


def _annulus_placement(layout: ArrayLayout, rng: np.random.Generator,
                       spread_wl: float, max_tries: int = 50000) -> CouplerPlacement:
    r_lo = 1.01 * layout.min_sep_m
    r_hi = max(spread_wl * layout.lam, r_lo)
    pos = np.zeros((layout.M, layout.N, 2))
    for m in range(layout.M):
        q = layout.active_position(m)
        for _ in range(max_tries):
            r = rng.uniform(r_lo, r_hi, layout.N)
            a = rng.uniform(0.0, 2.0 * np.pi, layout.N)
            pts = q[None, :] + np.column_stack([r * np.cos(a), r * np.sin(a)])
            box, dist = constraint_margins(pts, layout, m)
            if np.all(box >= 0.0) and np.all(dist >= layout.min_sep_m):
                pos[m] = pts
                break
        else:
            raise InfeasibleLayout(
                f"could not draw an annulus placement for antenna {m} "
                f"in {max_tries} tries")
    return CouplerPlacement(pos)


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
    row (returns (K,)) or a stacked (M, tau) block (returns (M, K))."""
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

    @property
    def angles(self) -> np.ndarray:
        return np.linspace(-np.pi / 2, np.pi / 2, self.G)

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
    index, or an index array matching the batch axes) give (batch..., phi...)."""
    phi = np.asarray(phi, dtype=float)
    flat = phi.reshape(-1)
    a_y = np.moveaxis(steering_active(flat, layout), -1, 0)[m]  # (batch..., P)
    b = _column(a_y, steering_coupler_block(flat, p_m, layout.lam), w_m)
    return b.reshape(b.shape[:-1] + phi.shape)


def _positions(placement) -> np.ndarray:
    """Coupler positions (..., M, N, 2) of a placement or a positions array."""
    return np.asarray(getattr(placement, "positions", placement), dtype=float)


def _weights(P: np.ndarray, layout: ArrayLayout, model: DipoleModel) -> np.ndarray:
    """Mechanical weights (..., M, N) of all antennas at positions (..., M, N, 2)."""
    return mech_weights(build_block(P, layout.active_positions(), model))[0]


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
    of the session's one cached cube, built by one chain call over the (V, M)
    block/antenna pairs and keyed on the grid, layout, model and placement
    bytes, so a moved coupler or a new grid or model means a rebuild."""
    P = session.positions
    key = (grid, layout, model, P.tobytes())
    if session._dictionary[0] != key:
        cube = response_row(grid.angles, P, _weights(P, layout, model), np.arange(layout.M),
                            layout)
        cube.flags.writeable = False
        session._dictionary = (key, cube)
    out = session._dictionary[1][:, m]
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


def stack_observations(corr_blocks: list[np.ndarray], k: int) -> np.ndarray:
    """Stacked observation of user k over blocks: (M V,), block-major."""
    return np.concatenate([corr[:, k] for corr in corr_blocks])


# ---------------------------------------------------------------------------
# sparse recovery primitives


def _ls_on_columns(y: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR least squares on selected columns; raises when the triangular
    factor signals numerically dependent columns."""
    Q, R = np.linalg.qr(cols)
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() < 1e-10 * max(diag.max(), 1e-300):
        raise RankDeficientSupport(
            f"selected columns are numerically dependent (min |R_ii| = {diag.min():.3e})"
        )
    x = np.linalg.solve(R, Q.conj().T @ y)
    return x, y - cols @ x


def omp(y: np.ndarray, A: np.ndarray, L: int) -> tuple[list[int], list[float]]:
    """Orthogonal matching pursuit with exactly L selections and per-round LS
    refit.  Ties in the correlation maximum break toward the lowest index.
    Returns (support in selection order, residual norms incl. the initial)."""
    if L > A.shape[1]:
        raise DimensionMismatch(f"L={L} exceeds the dictionary size {A.shape[1]}")
    residual = y.astype(complex).copy()
    support: list[int] = []
    history = [float(np.linalg.norm(residual))]
    for _ in range(L):
        corr = np.abs(A.conj().T @ residual)
        corr[support] = -1.0  # already selected
        j = int(np.argmax(corr))
        support.append(j)
        x, residual = _ls_on_columns(y, A[:, support])
        history.append(float(np.linalg.norm(residual)))
    return support, history


def ls_gains(y: np.ndarray, A: np.ndarray, support) -> np.ndarray:
    """Least-squares gains on a fixed support."""
    support = list(support)
    if not support:
        return np.zeros(0, dtype=complex)
    x, _ = _ls_on_columns(y, A[:, support])
    return x


# ---------------------------------------------------------------------------
# results and reconstruction


@dataclass
class EstimationResult:
    """Sparse estimate for all users: grid supports, mapped angles, gains,
    plus the communication ledger of the producing scheme."""

    scheme: str
    supports: np.ndarray  # (K, L) int
    angles: np.ndarray  # (K, L) float
    gains: np.ndarray  # (K, L) complex
    grid: AngularGrid
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


def nmse(
    result,
    spec: MultipathSpec,
    test_placements: list[CouplerPlacement],
    layout: ArrayLayout,
    model: DipoleModel,
) -> float:
    """Mean over users and query placements of ||g_hat - g||^2 / ||g||^2,
    norms taken across antennas."""
    if not test_placements:
        raise DimensionMismatch("need at least one test placement")
    P = np.stack([_positions(pl) for pl in test_placements])  # (T, M, N, 2)
    g_hat = result.predict(P, layout, model)
    g = true_effective(spec, P, layout, model)
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
    central unit, then per user run OMP (exactly L selections) and LS gains."""
    corr_blocks = [pilot_correlate(Y, session.S, session.tau) for Y in observations]
    A = build_dictionary(session, grid, layout, model)
    K = session.K
    supports = np.zeros((K, L), dtype=int)
    angles = np.zeros((K, L))
    gains = np.zeros((K, L), dtype=complex)
    for k in range(K):
        y_k = stack_observations(corr_blocks, k)
        support, _ = omp(y_k, A, L)
        supports[k] = support
        angles[k] = grid.angles[supports[k]]
        gains[k] = ls_gains(y_k, A, support)
    ledger = {
        "pilot_uplink_complex": layout.M * session.V * session.tau,
        "pilot_uplink_scalars": 2 * layout.M * session.V * session.tau,
    }
    return EstimationResult(
        scheme="centralized", supports=supports, angles=angles, gains=gains,
        grid=grid, ledger=ledger,
    )


# ---------------------------------------------------------------------------
# distributed scheme


def local_proxy(
    A_m: np.ndarray, y_mk: np.ndarray, sigma_eff2: float, eta: float,
    norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter proxy of one antenna for one user: (rho over the full
    grid, indices passing the noise-calibrated threshold rho >= eta *
    sigma_eff2, sorted ascending).  The column energies ``norms``
    (sum over blocks of |A_m|^2) are computed from A_m when not given."""
    c = A_m.conj().T @ y_mk
    norms = np.sum(np.abs(A_m) ** 2, axis=0) if norms is None else norms
    rho = np.abs(c) ** 2 / (norms + EPS_NORM)
    kept = np.where(rho >= eta * sigma_eff2)[0]
    return rho, kept


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
    """Per-antenna half of the distributed scheme (the local unit of
    Algorithm 3).  Owns only the antenna's observations and its (V, G)
    dictionary, slice m of the batched cube; everything it produces for the
    central unit is explicit (proxies, sufficient statistics), and a request
    it has not been prepared for by an earlier exchange raises InformationLeak."""

    def __init__(self, m: int, session: PilotSession, A_m: np.ndarray):
        self.m = m
        self.session = session
        self.A_m = A_m
        self.norms = np.sum(np.abs(A_m) ** 2, axis=0)
        self.corr = None  # (V, K) after correlate()
        self._rho: dict[int, np.ndarray] = {}
        self._supports: dict[int, np.ndarray] = {}

    def correlate(self, y_rows: list[np.ndarray]) -> None:
        """Pilot-correlate the antenna's own V received rows."""
        self.corr = np.stack([pilot_correlate(y, self.session.S, self.session.tau)
                              for y in y_rows])

    def observation(self, k: int) -> np.ndarray:
        return self.corr[:, k]

    def proxies(self, k: int, eta: float):
        """Thresholded proxy upload of user k: (kept indices, their rho)."""
        rho, kept = local_proxy(self.A_m, self.observation(k),
                                self.session.sigma_eff2, eta, self.norms)
        self._rho[k] = rho
        return kept, rho[kept]

    def top_proxies(self, k: int, L: int):
        """Fallback upload of user k: the unthresholded top-L proxies."""
        if k not in self._rho:
            raise InformationLeak(
                f"LPU {self.m} got a fallback request before computing proxies"
            )
        rho = self._rho[k]
        order = np.lexsort((np.arange(rho.size), -rho))
        idx = np.sort(order[:L])
        return idx, rho[idx]

    def receive_support(self, k: int, support: np.ndarray) -> None:
        self._supports[k] = support

    def suff_stats(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Gram and correlation of user k on the received support."""
        if k not in self._supports:
            raise InformationLeak(
                f"LPU {self.m} asked for statistics of user {k} without a support"
            )
        A_g = self.A_m[:, list(self._supports[k])]
        R = A_g.conj().T @ A_g
        q = A_g.conj().T @ self.observation(k)
        return R, q


def aggregate_gains(stats: list[tuple[np.ndarray, np.ndarray]], eps_k) -> np.ndarray:
    """Sum per-antenna sufficient statistics and solve the loaded normal
    equations; eps_k may be a float or "auto" (1e-8 tr(R)/L)."""
    R = np.zeros_like(stats[0][0])
    q = np.zeros_like(stats[0][1])
    for R_m, q_m in stats:
        R = R + R_m
        q = q + q_m
    L = R.shape[0]
    if eps_k == "auto":
        eps_k = 1e-8 * float(np.real(np.trace(R))) / max(L, 1)
    X, _ = _certified_solve(R + eps_k * np.eye(L), q[:, None], AGGREGATE_COND_LIMIT,
                            SingularAggregate, "loaded aggregated Gram")
    return X[:, 0]


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

    Every exchange is recorded as (round, antenna, payload kind, scalar
    count, payload) in exchange order, a complex scalar counting as 2 units
    and a grid index as 1; the result's ledger is summed from the records."""
    M = layout.M
    K = session.K
    cube = local_dictionary(session, slice(None), grid, layout, model)
    estimators = [LocalEstimator(m, session, cube[:, m]) for m in range(M)]
    for m, est in enumerate(estimators):
        est.correlate([observations[v][m] for v in range(session.V)])

    records = []
    supports = np.zeros((K, L), dtype=int)
    gains = np.zeros((K, L), dtype=complex)
    r = 0
    for k in range(K):
        r += 1
        uploads = [est.proxies(k, eta) for est in estimators]
        records += [(r, m, "proxy_list", 2 * len(up[0]), up)
                    for m, up in enumerate(uploads)]
        support, ok = fuse_and_select(uploads, L, grid.G)
        if not ok:
            # too little survived thresholding: one extra round of
            # unthresholded top-L proxies from every antenna
            r += 1
            uploads = []
            for m, est in enumerate(estimators):
                records.append((r, m, "proxy_request", 1, L))
                uploads.append(est.top_proxies(k, L))
                records.append((r, m, "proxy_list", 2 * len(uploads[m][0]), uploads[m]))
            support, _ = fuse_and_select(uploads, L, grid.G)
        supports[k] = support

        r += 1
        stats = []
        for m, est in enumerate(estimators):
            records.append((r, m, "support", L, support))
            est.receive_support(k, support)
            stats.append(est.suff_stats(k))
            records.append((r, m, "suff_stats", 2 * (L * L + L), stats[m]))
        gains[k] = aggregate_gains(stats, eps_k)

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
    return EstimationResult(
        scheme="distributed", supports=supports, angles=grid.angles[supports],
        gains=gains, grid=grid, ledger=ledger,
    ), records


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
class ExhaustiveResult:
    """Direct per-candidate measurement table.  For each antenna and each
    coupler, the effective channel is measured with that coupler at every
    lattice candidate and the remaining couplers parked at the reference
    placement.  Prediction snaps each coupler to its nearest feasible
    candidate and applies the first-order correction around the parked
    measurement (exact lookup for N = 1)."""

    scheme: str
    candidates: np.ndarray  # (M, D, 2) lattice points per antenna region
    feasible: np.ndarray  # (M, N, D) bool
    table: np.ndarray  # (M, N, D, K) complex
    base: np.ndarray  # (M, K) complex, parked measurement
    parked: CouplerPlacement
    ledger: dict

    def _nearest_feasible(self, P: np.ndarray) -> np.ndarray:
        """Index (..., M, N) of the feasible candidate nearest to each coupler
        of positions (..., M, N, 2), the lowest index among equal squared
        distances; 0 for a coupler with no feasible candidate.

        Candidate d = i * side + j sits on lattice row i and column j, so its
        squared distance is dx2[j] + dy2[i] from the per-axis squares, the
        same floats a search over all D candidates forms.  The lowest-index
        minimum of the 3 x 3 block around the per-axis nearest row and column
        is the answer when it is feasible and below a bound on every point
        outside the block (from the per-axis minima outside it); only the
        other queries search all D candidates."""
        M, N, D, _ = self.table.shape
        side = math.isqrt(D)
        c = self.candidates  # (M, D, 2): row i of the lattice is c[:, i*side:(i+1)*side]
        dx2 = (c[:, None, :side, 0] - P[..., 0, None]) ** 2  # (..., M, N, side)
        dy2 = (c[:, None, ::side, 1] - P[..., 1, None]) ** 2
        rows, cols = (np.clip(sq.argmin(axis=-1)[..., None] + [-1, 0, 1], 0, side - 1)
                      for sq in (dy2, dx2))  # (..., M, N, 3), ascending
        near = (np.take_along_axis(dx2, cols, axis=-1)[..., None, :]
                + np.take_along_axis(dy2, rows, axis=-1)[..., :, None])  # (..., 3, 3)
        k = near.reshape(near.shape[:-2] + (9,)).argmin(axis=-1)[..., None]
        d_idx = (np.take_along_axis(rows, k // 3, axis=-1)[..., 0] * side
                 + np.take_along_axis(cols, k % 3, axis=-1)[..., 0])
        lanes = np.arange(side)
        x_out, y_out = (np.where(np.abs(lanes - mid[..., 1:2]) > 1, sq, np.inf).min(axis=-1)
                        for sq, mid in ((dx2, cols), (dy2, rows)))
        bound = np.minimum(x_out + dy2.min(axis=-1), dx2.min(axis=-1) + y_out)
        exact = ((near.min(axis=(-2, -1)) < bound)
                 & self.feasible[np.arange(M)[:, None], np.arange(N), d_idx])
        if not exact.all():
            loc = np.nonzero(~exact)
            d2 = np.sum((c[loc[-2]] - P[loc][:, None, :]) ** 2, axis=-1)  # (F, D)
            d_idx[loc] = np.argmin(np.where(self.feasible[loc[-2:]], d2, np.inf), axis=-1)
        return d_idx

    def predict(self, placement, layout: ArrayLayout, model: DipoleModel) -> np.ndarray:
        """Predicted channels (M, K) at a placement, or (..., M, K) at
        positions (..., M, N, 2)."""
        M, N, D, K = self.table.shape
        P = _positions(placement)
        d_idx = self._nearest_feasible(P)  # (..., M, N)
        picked = self.table[np.arange(M)[:, None], np.arange(N), d_idx]  # (..., M, N, K)
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
    region via pilot correlation (noise at the session's level).

    Candidate (m, n, d) moves coupler n of antenna m to lattice point d and
    keeps the others parked.  Couplers that did not move keep their
    channels, so each lattice point's channels are computed once per
    antenna and each parked coupler's once; a candidate's coupler channels
    are its antenna's parked ones with column n replaced by point d's.
    The feasible candidates, stacked m-major, then n, then d, take one
    impedance assembly, one weights solve, one column step and one noise
    draw, in the order the parked measurement and the per-candidate
    measurements would be drawn one after another."""
    side = max(int(round(np.sqrt(D))), 1)
    D_actual = side * side
    M, N, K = layout.M, layout.N, session.K
    parked = session.placements[0]
    rng = np.random.default_rng([session.seed, 3])

    candidates = np.zeros((M, D_actual, 2))
    for m in range(M):
        lo, hi = layout.region_bounds(m)
        xs = lo[0] + (np.arange(side) + 0.5) * (hi[0] - lo[0]) / side
        ys = lo[1] + (np.arange(side) + 0.5) * (hi[1] - lo[1]) / side
        xx, yy = np.meshgrid(xs, ys)
        candidates[m] = np.column_stack([xx.ravel(), yy.ravel()])

    h_active = active_channel_matrix(spec, layout)
    sigma = np.sqrt(session.sigma2 / 2.0)

    def measure(g):
        """Pilot-correlated measurements of channels g (..., K).  The noise
        block holds the real then the imaginary part of each measurement in
        turn, the same stream as drawing one measurement after another."""
        w = rng.standard_normal(g.shape[:-1] + (2, session.tau))
        w *= sigma
        y = g @ session.S
        y.real += w[..., 0, :]
        y.imag += w[..., 1, :]
        return pilot_correlate(y, session.S, session.tau)

    # the parked couplers' channels (M, K, N) and weights (M, N), and each
    # lattice point's channels (M, D, K), one chain call each
    P0 = parked.positions
    h_parked = coupler_channel_block(spec, P0, layout.lam)
    w_parked = _weights(P0, layout, model)
    h_lattice = coupler_channel_block(spec, candidates[:, :, None, :], layout.lam)[..., 0]
    base = measure(_column(h_active.T, h_parked, w_parked))

    # feasible candidates (m, n, d), stacked m-major, then n, then d: antenna
    # m's parked channels with column n replaced by lattice point d's
    moves = [single_coupler_moves(P0[m], m, np.arange(N), candidates[m], layout)
             for m in range(M)]
    feasible = np.stack([ok for ok, _ in moves])  # (M, N, D)
    P = np.concatenate([moved[ok] for ok, moved in moves])  # (F, N, 2)
    mi, ni, di = np.nonzero(feasible)
    w = mech_weights(build_block(P, layout.active_positions()[mi], model))[0]
    h_c = h_parked[mi]  # (F, K, N)
    h_c[np.arange(len(mi)), :, ni] = h_lattice[mi, di]
    g = _column(h_active.T[mi], h_c, w)
    # the batch is M N D candidates deep: measure's noise block is the
    # largest array, so the positions, weights and channels go first
    del moves, P, w, h_c
    table = np.zeros((M, N, D_actual, K), dtype=complex)
    table[feasible] = measure(g)

    ledger = {
        "candidate_measurements_per_user_per_block": M * N * D_actual,
        "baseline_measurements_per_user_per_block": M,
        "lattice_side": side,
    }
    return ExhaustiveResult(
        scheme="exhaustive", candidates=candidates, feasible=feasible,
        table=table, base=base, parked=parked, ledger=ledger,
    )
