"""Per-user references of the centralized scheme: the observation stack,
which ``centralized_estimate`` forms for all users at once, and the
least-squares gains on fixed supports, which ``omp`` hands back from its
last round."""

import numpy as np

from fcarray.chanest import _columns, _ls_on_columns


def stack_observations(corr_blocks: list[np.ndarray], k: int) -> np.ndarray:
    """Stacked observation of user k over blocks: (M V,), block-major."""
    return np.concatenate([corr[:, k] for corr in corr_blocks])


def ls_gains(Y: np.ndarray, A: np.ndarray, supports) -> np.ndarray:
    """Least-squares gains (K, L) of rows Y (K, n) on fixed supports (K, L),
    one stacked QR solve, row k with the bits of its own call."""
    Y = np.asarray(Y, dtype=complex, order="C")
    supports = np.asarray(supports, dtype=int)
    if not supports.shape[-1]:
        return np.zeros(supports.shape, dtype=complex)
    return _ls_on_columns(Y, _columns(A, supports))[0]
