"""Thin-dipole self/mutual impedance and assembly of the per-antenna
impedance blocks.

All elements (active and coupler) are modeled as identical thin straight
dipoles oriented normal to the x-y placement plane, so every pair sits in the
parallel side-by-side configuration and the classical induced-EMF closed form
applies:

    R21 =  eta/(4 pi) * (2 Ci(u0) - Ci(u1) - Ci(u2))
    X21 = -eta/(4 pi) * (2 Si(u0) - Si(u1) - Si(u2))

with u0 = k d, u1/u2 = k (sqrt(d^2 + l^2) +/- l), eta = 120 pi, valid for the
half-wave resonant length used here (cos(k l / 2) = 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .errors import DomainError, TooClose
from .geometry import ArrayLayout, as_complex, pair_geometry, pair_tables

ETA_FREE_SPACE = 120.0 * np.pi
# Standard half-wave thin-dipole self impedance (wire radius not modeled).
HALF_WAVE_SELF_IMPEDANCE = 73.13 + 42.54j
DEFAULT_LOAD_IMPEDANCE = 0.05 + 50.0j


def sine_cosine_integrals(x):
    """Si(x) and Ci(x) for x >= 0 (Ci requires x > 0).

    Backed by scipy's sici kernel; absolute error stays below 1e-10 against
    the defining integrals over the working range.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError("sine_cosine_integrals requires x >= 0")
    if np.any(arr == 0):
        raise DomainError("Ci(0) diverges (log singularity)")
    si, ci = sici(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(si), float(ci)
    return si, ci


@dataclass(frozen=True)
class DipoleModel:
    """Electrical model shared by active elements and couplers.

    ``min_separation`` guards the Ci log-singularity at zero spacing; by
    construction it equals the layout's d_min so the feasibility constraint
    doubles as the singularity guard.
    """

    wavelength: float
    length: float
    self_impedance: complex = HALF_WAVE_SELF_IMPEDANCE
    load_impedance: complex = DEFAULT_LOAD_IMPEDANCE
    min_separation: float = 0.0

    @classmethod
    def for_layout(cls, layout: ArrayLayout, **overrides) -> "DipoleModel":
        kw = dict(
            wavelength=layout.lam,
            length=0.5 * layout.lam,
            min_separation=layout.min_sep_m,
        )
        kw.update(overrides)
        return cls(**kw)

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def mutual_impedance(d, model: DipoleModel):
    """Mutual impedance (ohms) of two parallel side-by-side dipoles at
    center spacing ``d`` meters.  Accepts scalars or arrays; raises TooClose
    below the singularity guard or at a NaN spacing."""
    arr = np.asarray(d, dtype=float)
    if not np.all(arr >= model.min_separation):
        raise TooClose(
            f"separation below guard {model.min_separation:.4e} m; "
            f"min requested {arr.min():.4e} m"
        )
    k = model.wavenumber
    l = model.length
    u0 = k * arr
    root = np.sqrt(arr**2 + l**2)
    u1 = k * (root + l)
    u2 = k * (root - l)
    si0, ci0 = sici(u0)
    si1, ci1 = sici(u1)
    si2, ci2 = sici(u2)
    coef = ETA_FREE_SPACE / (4.0 * np.pi)
    r21 = coef * (2.0 * ci0 - ci1 - ci2)
    x21 = -coef * (2.0 * si0 - si1 - si2)
    z = r21 + 1j * x21
    if np.isscalar(d) or arr.ndim == 0:
        return complex(z)
    return z


def mutual_impedance_derivative(d, model: DipoleModel) -> np.ndarray:
    """dZ21/dd of ``mutual_impedance`` at spacings ``d`` (array, meters).
    With E(u) = Ci(u) - j Si(u), Z21 = eta/(4 pi) (2E(u0) - E(u1) - E(u2))
    and E'(u) = exp(-j u)/u, so

        Z21'(d) = eta/(4 pi) [2 exp(-j k d)/d - (k d/rho)(exp(-j u1)/u1 + exp(-j u2)/u2)]

    with rho = sqrt(d^2 + l^2)."""
    d = np.asarray(d, dtype=float)
    k, l = model.wavenumber, model.length
    root = np.sqrt(d**2 + l**2)
    u1, u2 = k * (root + l), k * (root - l)
    tail = np.exp(-1j * u1) / u1 + np.exp(-1j * u2) / u2
    return ETA_FREE_SPACE / (4.0 * np.pi) * (2.0 * np.exp(-1j * k * d) / d
                                              - (k * d / root) * tail)


@dataclass
class ImpedanceBlock:
    """Impedance description of one antenna: active self impedance, the
    active-to-coupler vector z_bar, the coupler-to-coupler matrix Z_hat, and
    the diagonal load matrix X.  A batched block carries leading batch axes
    on ``z_bar`` and ``Z_hat``; ``X`` stays the shared (N, N) load matrix,
    one read-only array per N and load impedance.  A block from
    ``build_block`` keeps the pair geometry it was built from: the offsets
    and distances of ``geometry.pair_geometry``."""

    z_self: complex
    z_bar: np.ndarray  # (..., N) complex
    Z_hat: np.ndarray  # (..., N, N) complex
    X: np.ndarray  # (N, N) complex diagonal
    offsets: np.ndarray | None = None  # (..., P) complex pair offsets
    dist: np.ndarray | None = None  # (..., P) pair distances

    @property
    def N(self) -> int:
        return self.z_bar.shape[-1]

    def full_matrix(self) -> np.ndarray:
        """Assembled (..., N+1, N+1) block; symmetric entries are written
        from a single evaluation so Z == Z.T holds bit-exactly."""
        N = self.N
        Z = np.empty(self.z_bar.shape[:-1] + (N + 1, N + 1), dtype=complex)
        Z[..., 0, 0] = self.z_self
        Z[..., 0, 1:] = self.z_bar
        Z[..., 1:, 0] = self.z_bar
        Z[..., 1:, 1:] = self.Z_hat
        return Z

    @functools.cached_property
    def system(self) -> np.ndarray:
        """The coupling system A = Z_hat + X of the weights, formed once per block."""
        return self.Z_hat + self.X

    @functools.cached_property
    def resistance(self) -> np.ndarray:
        """Re of ``full_matrix()``, assembled once per block and read-only."""
        re = np.real(self.full_matrix())
        re.flags.writeable = False
        return re


@functools.lru_cache(maxsize=None)
def _load_matrix(N: int, load: complex) -> np.ndarray:
    """Read-only (N, N) diagonal load matrix X."""
    X = np.diag(np.full(N, load, dtype=complex))
    X.flags.writeable = False
    return X


def build_block(p_m: np.ndarray, q_m: np.ndarray, model: DipoleModel) -> ImpedanceBlock:
    """Impedance blocks at coupler positions ``p_m`` (..., N, 2) and
    active-element positions ``q_m`` (2,) or (..., 2): the pair geometry
    (``pair_geometry``), one ``mutual_impedance`` call and ``assemble_block``;
    the offsets and distances stay on the block."""
    d, dist = pair_geometry(as_complex(p_m)[..., 0], as_complex(q_m))
    block = assemble_block(mutual_impedance(dist, model), model)
    block.offsets, block.dist = d, dist
    return block


def assemble_block(z: np.ndarray, model: DipoleModel) -> ImpedanceBlock:
    """The block of mutual impedances ``z`` (..., P) over the spacing pairs of
    [q_m, p_1..p_N], in ``pair_tables`` order: the N active pairs form
    z_bar and the coupler pairs fill Z_hat's off-diagonal symmetrically."""
    N = (math.isqrt(8 * z.shape[-1] + 1) - 1) // 2  # P = N (N + 1) / 2
    pairs = pair_tables(N)
    iu, ju = pairs.coupler_a, pairs.coupler_b
    Z_hat = np.full(z.shape[:-1] + (N, N), model.self_impedance, dtype=complex)
    Z_hat[..., iu, ju] = z[..., N:]
    Z_hat[..., ju, iu] = z[..., N:]
    return ImpedanceBlock(model.self_impedance, z[..., :N], Z_hat,
                          _load_matrix(N, model.load_impedance))
