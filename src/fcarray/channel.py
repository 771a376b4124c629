"""Multipath channel synthesis: steering vectors for the fixed active array
and for arbitrary coupler placements, and the active-element and coupler
channels of all users.

The coupler steering vector of a placement is stacked antenna-major,
coupler-minor.  Channel gains are normalized to unit average power
(g0 = 1); SNR is controlled entirely through P_max and the noise variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import ArrayLayout

GAIN_NORMALIZATION = 1.0  # average total path power per user


@dataclass
class MultipathSpec:
    """Ground-truth multipath description: per-user departure angles
    (radians, azimuth) and complex path gains."""

    angles: np.ndarray  # (K, L) radians in [-pi/2, pi/2]
    gains: np.ndarray  # (K, L) complex

    def __post_init__(self):
        self.angles = np.atleast_2d(np.asarray(self.angles, dtype=float))
        self.gains = np.atleast_2d(np.asarray(self.gains, dtype=complex))
        if self.angles.shape != self.gains.shape:
            raise ConfigError("must match the (K, L) shape of angles", field="gains")
        if self.angles.shape[1] < 1:
            raise ConfigError("need at least one path per user", field="angles")
        if not np.all(np.abs(self.angles) <= np.pi / 2):  # also rejects NaN
            raise ConfigError("must lie in [-pi/2, pi/2]", field="angles")

    @property
    def K(self) -> int:
        return self.angles.shape[0]

    @property
    def L(self) -> int:
        return self.angles.shape[1]


def steering_active(phi, layout: ArrayLayout) -> np.ndarray:
    """Active-array steering vector; entry m is exp(-j k (m-1) d_y sin phi).
    ``phi`` may be a scalar (returns (M,)) or an array (returns (..., M))."""
    phi = np.asarray(phi, dtype=float)
    k0 = 2.0 * np.pi / layout.lam
    m_idx = np.arange(layout.M)
    phase = -1j * k0 * layout.spacing_m * np.sin(phi)[..., None] * m_idx
    return np.exp(phase)


def steering_coupler_block(phi, p_m: np.ndarray, lam: float) -> np.ndarray:
    """Coupler steering vectors, entries exp(-j k kappa(phi) . p_n) with
    kappa = [cos phi, sin phi], for positions p_m of shape (N, 2) or a batch
    (..., N, 2); ``phi`` scalar or array, output (batch..., phi..., N).  A
    placement's (M N, 2) positions give its vector stacked antenna-major,
    coupler-minor."""
    phi = np.asarray(phi, dtype=float)
    p_m = np.asarray(p_m, dtype=float)
    k0 = 2.0 * np.pi / lam
    # batch axes of p_m lead, then the axes of phi, then the coupler axis
    grid = p_m.shape[:-2] + (1,) * phi.ndim + p_m.shape[-2:-1]
    proj = (np.cos(phi)[..., None] * p_m[..., 0].reshape(grid)
            + np.sin(phi)[..., None] * p_m[..., 1].reshape(grid))
    return np.exp(-1j * k0 * proj)


def active_channel_matrix(spec: MultipathSpec, layout: ArrayLayout) -> np.ndarray:
    """(K, M) matrix of active-element channels for all users."""
    a_y = steering_active(spec.angles, layout)  # (K, L, M)
    return np.einsum("kl,klm->km", spec.gains, a_y)


def coupler_channel_block(spec: MultipathSpec, p_m: np.ndarray, lam: float) -> np.ndarray:
    """(K, N) coupler channels of one antenna for all users; a batch of
    positions (..., N, 2) gives (..., K, N)."""
    a_c = steering_coupler_block(spec.angles, p_m, lam)  # (..., K, L, N)
    return np.einsum("kl,...kln->...kn", spec.gains, a_c)


def sample_channels(seed, K: int, L: int, layout: ArrayLayout) -> MultipathSpec:
    """Draw a random multipath spec: angles i.i.d. uniform on [-pi/2, pi/2],
    gains i.i.d. circularly-symmetric Gaussian with variance g0/L."""
    if K < 1 or L < 1:
        raise ConfigError("must be >= 1", field="K" if K < 1 else "L")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, size=(K, L))
    scale = np.sqrt(GAIN_NORMALIZATION / (2.0 * L))
    gains = scale * (rng.standard_normal((K, L)) + 1j * rng.standard_normal((K, L)))
    return MultipathSpec(angles=angles, gains=gains)
