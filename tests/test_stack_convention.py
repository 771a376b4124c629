"""The estimation and SCA kernels take stacks only: one antenna, user,
coupler or LPU is a batch of one, so no kernel branches on the rank of its
input.  ``np.ndim(`` and ``np.atleast_*`` are the two ways such a branch is
written; neither may appear in the modules that keep this convention.
"""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fcarray"
STACKED = ["geometry.py", "optimizer.py", "chanest.py"]
RANK_BRANCH = re.compile(r"np\.ndim\(|np\.atleast_")


def rank_branches(source: str) -> list[str]:
    """The lines of the source that call ``np.ndim`` or ``np.atleast_*``."""
    return [f"{i}: {line.strip()}" for i, line in enumerate(source.splitlines(), 1)
            if RANK_BRANCH.search(line)]


@pytest.mark.parametrize("name", STACKED)
def test_module_has_no_rank_branch(name):
    assert rank_branches((PACKAGE / name).read_text()) == []


def test_a_rank_branch_is_reported():
    source = "idx = np.atleast_1d(m)\nx = v[0] if np.ndim(v) == 2 else v\ny = a.ndim\n"
    assert rank_branches(source) == ["1: idx = np.atleast_1d(m)",
                                      "2: x = v[0] if np.ndim(v) == 2 else v"]
