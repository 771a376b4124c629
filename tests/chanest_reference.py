"""Per-user reference of the centralized scheme's observation stack, which
``centralized_estimate`` forms for all users at once."""

import numpy as np


def stack_observations(corr_blocks: list[np.ndarray], k: int) -> np.ndarray:
    """Stacked observation of user k over blocks: (M V,), block-major."""
    return np.concatenate([corr[:, k] for corr in corr_blocks])
