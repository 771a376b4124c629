"""Mechanical beamforming weights, effective channels, the diagonal power
matrix, the MMSE digital precoder, SINR/sum-rate evaluation, and the
baseline precoders (active-only and fully active).

``antenna_chain`` is the one per-antenna chain (impedance block, weights,
effective column, power coefficient) given the coupler channels; every rate
evaluation runs it, and ``effective_column`` and chanest's responses share
its column step ``_column``.

``_gram_forward`` is the one solve of the regularized Gram of the whitened
channel: both precoders, the probes (``gram_sum_rate``) and the adjoint read
it, and every SINR and rate comes from its coupling matrix beta W S.
``mmse_precoder`` is its forward pass (``mmse_forward``) and the F/U
assembly (``mmse_state``); the SCA evaluates candidates on the first alone.

Convention used project-wide: row k of the effective channel matrix G is the
row vector that multiplies the precoder in the received signal,
``y_k = G[k, :] @ U @ s + n_k`` with ``G[k, m] = h_A[k, m] - w_m^T h_C[k, m]``.
Rates and SINRs only involve moduli, so this fixes the conjugation ambiguity
without affecting any reported metric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import MultipathSpec, active_channel_matrix, coupler_channel_block
from .errors import ConfigError, NonPositivePower, NonPSD, SingularGram, SingularSystem
from .geometry import ArrayLayout, CouplerPlacement, uniform_placement
from .impedance import DipoleModel, ImpedanceBlock, build_block

COND_LIMIT = 1e12
GRAM_COND_LIMIT = 1e14


def _scalar(x):
    """Plain float for an unbatched (0-d) result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


@functools.lru_cache(maxsize=None)
def _eye(n: int, dtype=float) -> np.ndarray:
    """Read-only n x n identity, one per size and dtype."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


def mech_weights(block: ImpedanceBlock) -> tuple[np.ndarray, float]:
    """Solve one antenna's coupling system; returns (w, condition bound, see
    ``_certified_solve``).  A batched block gives w (..., N) and one bound per
    entry; a single ill-conditioned entry fails the whole batch.  At N = 0 the
    weights are empty and the bound is 0.0, the norm of the empty system."""
    X, cond = _certified_solve(block.system, block.z_bar[..., None], COND_LIMIT,
                               SingularSystem, "coupling system")
    return X[..., 0], _scalar(cond)


def shift_certified(a: complex, e: np.ndarray) -> np.ndarray:
    """Mask of the coupling systems A = a I + E, given e = ||E||_F, that pass
    ``mech_weights``'s gate without being formed.  By Weyl's perturbation
    bound for singular values (Horn & Johnson, Matrix Analysis, 2nd ed.,
    Cor. 7.3.5) each sigma_i(A) lies within ||E||_2 <= e of |a|, so
    cond_2(A) <= (|a| + e) / (|a| - e) where e < |a|.  That bound is gated as
    ``_condition_bound`` gates its own, two decades below ``COND_LIMIT``; an
    entry that misses (a non-finite one included) is left to
    ``mech_weights``."""
    r = abs(a)
    with np.errstate(all="ignore"):  # e >= |a| or a non-finite entry misses
        return (e < r) & _within((r + e) / (r - e), COND_LIMIT)


def _certified_solve(A: np.ndarray, rhs, limit: float, error: type, what: str):
    """Solve A X = rhs for matrices A (..., n, n) and ``rhs`` (..., n, r), or
    form X = A^-1 when ``rhs`` is None, in one LAPACK call.  Returns (X, cond)
    with cond from ``_condition_bound``.  With a right-hand side, A^-1 feeds
    only the bound, so it comes from solving [rhs | I]."""
    n = A.shape[-1]
    r = 0 if rhs is None else rhs.shape[-1]
    if rhs is None:
        b = _eye(n, A.dtype)  # solve broadcasts it over A's batch axes
    else:
        b = np.empty(A.shape[:-1] + (r + n,), dtype=np.result_type(rhs, A))
        b[..., :r], b[..., r:] = rhs, _eye(n, A.dtype)
    X = _solve(A, b, limit, error, what)
    cond = _condition_bound(A, X[..., r:], limit, error, what)
    return (X if rhs is None else X[..., :r]), cond


def _solve(A: np.ndarray, b: np.ndarray, limit: float, error: type, what: str) -> np.ndarray:
    """np.linalg.solve(A, b); an exactly singular entry raises ``error``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # an exactly singular entry
        _exact_cond(A, limit, error, what)
        raise error(f"{what} is singular") from None


def _condition_bound(A: np.ndarray, inverse, limit: float, error: type, what: str) -> np.ndarray:
    """cond = ||A||_F ||A^-1||_F, an upper bound on cond_2(A), one per matrix
    of A (..., n, n), from its ``inverse``.  The bound is held to two decades
    below ``limit`` so rounding in A^-1 cannot pass a bad entry; entries that
    miss it (non-finite ones included) get the exact SVD value instead, and
    ``error`` is raised if that exceeds ``limit``."""
    with np.errstate(all="ignore"):  # a non-finite or overflowing entry misses
        cond = np.asarray(_frobenius(A) * _frobenius(inverse))
    miss = ~_within(cond, limit)
    if miss.any():
        cond[miss] = _exact_cond(A[miss], limit, error, what)
    return cond


def _within(cond, limit: float):
    """The gate of a condition bound: two decades below ``limit``."""
    return cond <= 1e-2 * limit


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes: np.linalg.norm's own expression,
    without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def _exact_cond(A: np.ndarray, limit: float, error: type, what: str) -> np.ndarray:
    """SVD condition numbers of A (..., n, n), each finite and <= ``limit``."""
    try:
        cond = np.linalg.cond(A)
    except np.linalg.LinAlgError:  # the SVD fails on NaN entries
        raise error(f"{what} has non-finite entries") from None
    worst = float(cond.max(initial=0.0))
    if not math.isfinite(worst) or worst > limit:
        raise error(f"{what} condition {worst:.3e} exceeds {limit:.0e}")
    return cond


def effective_column(
    spec: MultipathSpec, p_m: np.ndarray, w_m: np.ndarray, m: int,
    h_active: np.ndarray, lam: float,
) -> np.ndarray:
    """Column m of G for all users: h_A[:, m] - (h_C block) @ w_m.  Batched
    positions (..., N, 2) and weights give (..., K); ``m`` may then be an
    index array matching the batch."""
    return _column(h_active.T[m], coupler_channel_block(spec, p_m, lam), w_m)


def _column(h_am: np.ndarray, h_cm: np.ndarray, w_m: np.ndarray) -> np.ndarray:
    """h_A[:, m] - h_C w_m from the active channels (..., K), the coupler
    channels (..., K, N) and the weights (..., N)."""
    return h_am - (h_cm @ w_m[..., None])[..., 0]


def antenna_chain(
    h_c: np.ndarray, p_m: np.ndarray, m, layout: ArrayLayout, model: DipoleModel,
    h_active: np.ndarray,
) -> tuple[ImpedanceBlock, np.ndarray, np.ndarray, np.ndarray]:
    """The per-antenna chain at coupler positions ``p_m`` (..., N, 2) with
    coupler channels ``h_c`` (..., K, N): returns the impedance block, the
    weights (..., N), the effective columns (..., K) and the power
    coefficients (...).  ``m`` is one antenna index, an index array matching
    the batch axes, or ``slice(None)`` for all M antennas on the first."""
    block = build_block(p_m, layout.active_positions()[m], model)
    w, _ = mech_weights(block)
    return block, w, _column(h_active.T[m], h_c, w), power_coefficient(block, w)


def effective_channel(
    spec: MultipathSpec, placement: CouplerPlacement, w: np.ndarray, layout: ArrayLayout,
) -> np.ndarray:
    """Effective K x M channel after absorbing coupler re-radiation, given
    the (M, N) mechanical weights."""
    cols = effective_column(spec, placement.positions, w, np.arange(layout.M),
                            active_channel_matrix(spec, layout), layout.lam)
    return np.ascontiguousarray(cols.T)


def power_coefficient(block: ImpedanceBlock, w_m: np.ndarray) -> float:
    """b_m = w_tilde^H Re{Z_m} w_tilde for one antenna, or one value per
    entry of a batched block and weights (..., N)."""
    w_t = np.concatenate([np.ones(w_m.shape[:-1] + (1,), dtype=complex), -w_m], axis=-1)
    quad = w_t.conj()[..., None, :] @ block.resistance @ w_t[..., :, None]
    val = np.real(quad[..., 0, 0])
    if np.any(val <= 0.0):
        raise NonPositivePower(f"power coefficient b_m = {np.min(val):.3e} is not positive")
    return _scalar(val)


class GramForward(NamedTuple):
    """The MMSE forward pass on a whitened Gram W = G_bar G_bar^H (..., K, K)."""

    W: np.ndarray
    S: np.ndarray  # (W + alpha I)^-1
    WS: np.ndarray
    tau: np.ndarray  # tr(S W S) = ||G_bar^H S||_F^2
    beta: np.ndarray  # sqrt(P_max / tau); 0 at tau = 0, the silent precoder
    alpha: float  # K sigma2 / P_max
    cond: np.ndarray  # condition bound of W + alpha I (``_certified_solve``)
    coupling: np.ndarray  # G U = G_bar F = beta W S, read by ``_rate_of_coupling``


def _gram_forward(W: np.ndarray, P_max: float, sigma2: float) -> GramForward:
    """The one solve of the regularized Gram W + alpha I, certified by
    ``_certified_solve``.  A zero channel (tau = 0) gets beta = 0: no power
    loading can meet the budget, so the precoder is silent.  A budget that is
    not positive (NaN included) is a ConfigError on ``P_max``."""
    if not P_max > 0:  # also rejects NaN
        raise ConfigError(f"must be positive, got {P_max!r}", field="P_max")
    K = W.shape[-1]
    alpha = K * sigma2 / P_max
    S, cond = _certified_solve(W + alpha * _eye(K), None, GRAM_COND_LIMIT,
                               SingularGram, "regularized Gram")
    WS = W @ S
    tau = np.sum(S.conj() * WS, axis=(-2, -1)).real  # S Hermitian
    beta = np.sqrt(P_max) / np.where(tau == 0.0, np.inf, np.sqrt(tau))
    return GramForward(W, S, WS, tau, beta, alpha, cond, beta[..., None, None] * WS)


@dataclass
class PrecodingState:
    """Result of MMSE precoding on an effective channel and its Gram forward pass."""

    G: np.ndarray  # (K, M) effective channel rows
    B: np.ndarray  # (M,) power coefficients
    U: np.ndarray  # (M, K) digital precoder (port currents)
    F: np.ndarray  # (M, K) whitened precoder, ||F||_F^2 = P_max
    sinr: np.ndarray  # (K,)
    sum_rate: float
    P_max: float
    sigma2: float
    gram: GramForward

    @property
    def beta(self):
        return _scalar(self.gram.beta)

    @property
    def gram_cond(self):
        """Upper bound on cond_2 of the regularized Gram, exact where it misses."""
        return _scalar(self.gram.cond)


def gram_sum_rate(W: np.ndarray, P_max: float, sigma2: float):
    """MMSE sum rate from the whitened Gram W = G_bar G_bar^H (..., K, K),
    with G_bar = G diag(B)^-1/2; one rate per batch entry.  The precoder is
    F = beta G_bar^H S, so the rate needs only K x K algebra."""
    return _rate_of_coupling(_gram_forward(W, P_max, sigma2).coupling, sigma2)[1]


def gram_rate_adjoint(fwd: GramForward, P_max: float, sigma2: float) -> np.ndarray:
    """Hermitian Psi (..., K, K) with d rate = Re tr(Psi dW) for Hermitian dW,
    the adjoint of ``gram_sum_rate`` at the forward pass ``fwd`` (``_gram_forward``).

    The coupling matrix is C = beta W S with S = (W + alpha I)^-1 and
    beta^2 = P_max / tau, tau = tr(S W S); dC = d beta W S + beta alpha S dW S,
    d beta = -(beta^3 / 2 P_max) d tau and d tau = Re tr(S^2 (I - 2 W S) dW).
    The rate pulls back through d|C_kj|^2 = 2 Re(conj(C_kj) dC_kj).  A zero
    Gram (tau = 0) is the silent precoder (beta = 0) and gets Psi = 0."""
    S, WS, beta = fwd.S, fwd.WS, fwd.beta[..., None, None]
    eye = _eye(WS.shape[-1])
    C = fwd.coupling
    power = np.abs(C) ** 2
    total = power.sum(axis=-1, keepdims=True) + sigma2
    interference_noise = total - np.diagonal(power, axis1=-2, axis2=-1)[..., None]
    # d rate / d|C_kj|^2: 1/total_k, less 1/interference_noise_k off the diagonal
    E = (1.0 / total - (1.0 - eye) / interference_noise) / np.log(2.0)
    Phi = np.swapaxes(2.0 * E * C.conj(), -1, -2)  # d rate = Re tr(Phi dC)
    d_beta = (-0.5 / P_max) * beta**3 * np.trace(Phi @ WS, axis1=-2, axis2=-1).real[..., None, None]
    Psi = d_beta * (S @ S @ (eye - 2.0 * WS)) + beta * fwd.alpha * (S @ Phi @ S)
    return 0.5 * (Psi + np.swapaxes(Psi.conj(), -1, -2))


class MMSEForward(NamedTuple):
    """The forward pass of ``mmse_precoder``: everything but F and U."""

    G: np.ndarray  # (..., K, M) effective channel rows
    B: np.ndarray  # (..., M) power coefficients
    sqrt_B: np.ndarray
    G_bar: np.ndarray  # G diag(B)^-1/2
    gram: GramForward
    sinr: np.ndarray
    sum_rate: float


def mmse_forward(G: np.ndarray, B: np.ndarray, P_max: float, sigma2: float) -> MMSEForward:
    """Whitened channel G_bar = G diag(B)^-1/2, its Gram forward pass, the
    SINRs and the sum rate of ``mmse_precoder``, for float power coefficients
    B already checked positive (``power_coefficient`` checks its own)."""
    sqrt_B = np.sqrt(B)
    G_bar = G / sqrt_B[..., None, :]
    gram = _gram_forward(G_bar @ np.swapaxes(G_bar.conj(), -1, -2), P_max, sigma2)
    sinr, rate = _rate_of_coupling(gram.coupling, sigma2)
    return MMSEForward(G, B, sqrt_B, G_bar, gram, sinr, rate)


def mmse_state(fwd: MMSEForward, P_max: float, sigma2: float) -> PrecodingState:
    """The F/U assembly of ``mmse_precoder`` on its forward pass ``fwd``."""
    F = fwd.gram.beta[..., None, None] * (np.swapaxes(fwd.G_bar.conj(), -1, -2) @ fwd.gram.S)
    return PrecodingState(G=fwd.G, B=fwd.B, U=F / fwd.sqrt_B[..., :, None], F=F, sinr=fwd.sinr,
                          sum_rate=fwd.sum_rate, P_max=P_max, sigma2=sigma2, gram=fwd.gram)


def mmse_precoder(
    G: np.ndarray, B: np.ndarray, P_max: float, sigma2: float
) -> PrecodingState:
    """Regularized-inverse precoder F = beta G_bar^H S on the whitened channel
    G_bar = G diag(B)^-1/2, power-loaded to meet the budget with equality; an
    all-zero channel gets the silent precoder (beta = 0, U = 0, rate 0, power
    0 < P_max).  Batched ``G`` (..., K, M) and ``B`` (..., M) give batched
    state arrays and one sum rate per entry.  A caller that reads only the
    rate can stop at its forward pass, ``mmse_forward``."""
    B = np.asarray(B, dtype=float)
    if np.any(B <= 0):
        raise NonPositivePower("power matrix must be strictly positive")
    return mmse_state(mmse_forward(G, B, P_max, sigma2), P_max, sigma2)


def _rate_of_coupling(sig: np.ndarray, sigma2) -> tuple[np.ndarray, float]:
    """SINRs and sum rate from the coupling matrix sig = G U (..., K, K),
    where sig[k, j] couples stream j into user k."""
    power = np.abs(sig) ** 2
    desired = np.diagonal(power, axis1=-2, axis2=-1)
    interference = power.sum(axis=-1) - desired
    gamma = desired / (interference + sigma2)
    rate = np.sum(np.log2(1.0 + gamma), axis=-1)
    return gamma, _scalar(rate)


def transmit_power(U: np.ndarray, B: np.ndarray) -> float:
    """tr(U^H diag(B) U)."""
    return float(np.real(np.sum(B[:, None] * np.abs(U) ** 2)))


def active_only_state(
    spec: MultipathSpec, layout: ArrayLayout, model: DipoleModel,
    P_max: float, sigma2: float,
) -> PrecodingState:
    """Baseline: M active elements, no couplers, i.e. the chain at N = 0.  Its
    effective channel is the plain active-array channel h_A and every port
    radiates with b = Re{z_self}, the power coefficient of a 1 x 1 block."""
    bare = replace(layout, N=0)
    return fc_state(spec, uniform_placement(bare), bare, model, P_max, sigma2)


def fc_state(
    spec: MultipathSpec,
    placement: CouplerPlacement,
    layout: ArrayLayout,
    model: DipoleModel,
    P_max: float,
    sigma2: float,
) -> PrecodingState:
    """Full flexible-coupler pipeline at a fixed placement: impedance blocks,
    mechanical weights, effective channel, power matrix, MMSE precoder."""
    P = placement.positions
    _, _, cols, B = antenna_chain(coupler_channel_block(spec, P, layout.lam), P, slice(None),
                                  layout, model, active_channel_matrix(spec, layout))
    return mmse_precoder(np.ascontiguousarray(cols.T), B, P_max, sigma2)


def _real_inv_sqrt(Re_Z: np.ndarray) -> np.ndarray:
    """Symmetric eigen inverse square roots of real PSD blocks (..., n, n)."""
    norm = np.linalg.norm(Re_Z, 2, axis=(-2, -1))[..., None]
    vals, vecs = np.linalg.eigh(Re_Z)
    if np.any(vals < -1e-8 * norm):
        raise NonPSD(f"Re(Z) eigenvalue {vals.min():.3e} below -1e-8 * ||Z||")
    vals = np.clip(vals, 1e-12 * norm, None)
    return (vecs * (1.0 / np.sqrt(vals))[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def fully_active_state(
    spec: MultipathSpec,
    layout: ArrayLayout,
    model: DipoleModel,
    P_max: float,
    sigma2: float,
) -> PrecodingState:
    """Baseline with all M(N+1) ports active at the uniform fixed positions.

    Ports are ordered per antenna [active; couplers] to match the
    block-diagonal Z; power is tr(U^H Re{Z} U) and whitening uses the
    symmetric eigen square root of each Re{Z_m} block.  On an all-zero
    channel it is the silent precoder, as in ``mmse_precoder``.
    """
    placement = uniform_placement(layout)
    Re_Z = build_block(placement.positions, layout.active_positions(), model).resistance
    M, N, K = layout.M, layout.N, spec.K
    # per-antenna port channels [h_A[k, m]; h_C[k, m]], (M, K, N+1)
    h_ports = np.concatenate([active_channel_matrix(spec, layout).T[:, :, None],
                              coupler_channel_block(spec, placement.positions, layout.lam)],
                             axis=-1)
    # channel rows and blockwise whitening in the blkdiag port order
    inv_roots = _real_inv_sqrt(Re_Z)
    H = h_ports.transpose(1, 0, 2).reshape(K, -1)
    G_bar = (h_ports @ inv_roots).transpose(1, 0, 2).reshape(K, -1)
    gram = _gram_forward(G_bar @ G_bar.conj().T, P_max, sigma2)
    F = gram.beta * (G_bar.conj().T @ gram.S)
    U = (inv_roots @ F.reshape(M, N + 1, K)).reshape(F.shape)
    # H U = G_bar F blockwise, so the coupling is the forward's beta W S
    sinr, rate = _rate_of_coupling(gram.coupling, sigma2)
    # power here is tr(U^H Re{Z} U) = ||F||_F^2, not diagonal; B is a placeholder
    return PrecodingState(G=H, B=np.ones(M * (N + 1)), U=U, F=F, sinr=sinr, sum_rate=rate,
                          P_max=P_max, sigma2=sigma2, gram=gram)
