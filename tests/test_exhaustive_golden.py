"""Golden exhaustive-baseline runs: M=4, N in {1, 2, 3}, lattice sizes
D in {100, 400}, two seeds each, pinned bit for bit.  Each record holds the
sha256 of the measurement ``table``, the ``feasible`` mask and the parked
``base`` measurement, and ``float.hex`` of the NMSE over ten test placements.
``exhaustive_reference`` calls ``mech_weights`` itself, so only these records
show a bit drift in the weights solve.

Regenerate (only for a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_exhaustive_golden.py``."""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from fcarray import ArrayLayout, DipoleModel, chanest, random_feasible_placement, sample_channels

K, L, TAU, V = 2, 3, 13, 4
SIGMA2 = 1.0
TEST_PLACEMENTS = 10
PATH = Path(__file__).parent / "exhaustive_golden.json"
CASES = [{"shape": [4, N], "D": D, "seed": seed}
         for N, D, seed in itertools.product([1, 2, 3], [100, 400], [0, 1])]


def _sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def run_case(case: dict) -> dict:
    M, N = case["shape"]
    seed = case["seed"]
    lay = ArrayLayout(M=M, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(seed, K=K, L=L, layout=lay)
    session = chanest.make_session(lay, K=K, tau=TAU, V=V, sigma2=SIGMA2, seed=seed + 100)
    rng = np.random.default_rng(seed + 200)
    tests = [random_feasible_placement(lay, rng) for _ in range(TEST_PLACEMENTS)]
    res = chanest.exhaustive_baseline(session, spec, lay, model, D=case["D"])
    return {**case,
            "table_sha256": _sha256(res.table),
            "feasible_sha256": _sha256(res.feasible),
            "base_sha256": _sha256(res.base),
            "nmse": float.hex(chanest.nmse(res, spec, tests, lay, model))}


@pytest.mark.parametrize("record", json.loads(PATH.read_text()) if PATH.exists() else [],
                         ids=lambda r: "M{}-N{}".format(*r["shape"]) + f"-D{r['D']}-seed{r['seed']}")
def test_exhaustive_run_is_bit_identical_to_the_record(record):
    case = {key: record[key] for key in ("shape", "D", "seed")}
    assert run_case(case) == record


def test_records_cover_every_case():
    records = json.loads(PATH.read_text())
    assert [{key: r[key] for key in ("shape", "D", "seed")} for r in records] == CASES


if __name__ == "__main__":
    PATH.write_text("[\n" + ",\n".join(json.dumps(run_case(c)) for c in CASES) + "\n]\n")
