"""Golden exhaustive-baseline runs: M=4, N in {1, 2, 3}, lattice sizes
D in {100, 400}, two seeds each, at noise levels sigma2 = 1 and sigma2 = 0,
pinned bit for bit.  The noiseless records pin the signal path alone, so a
change of the noise draw leaves them as they are.  Each record holds the
sha256 of the measurement ``table``, the ``feasible`` mask and the parked
``base`` measurement, and ``float.hex`` of the NMSE over ten test placements.
``exhaustive_reference`` calls ``mech_weights`` itself, so only these records
show a bit drift in the weights solve.

Regenerate (only for a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_exhaustive_golden.py``; it prints every
record it changes, with the fields that differ and the old and new NMSE."""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from fcarray import ArrayLayout, DipoleModel, chanest, random_feasible_placement, sample_channels

K, L, TAU, V = 2, 3, 13, 4
TEST_PLACEMENTS = 10
PATH = Path(__file__).parent / "exhaustive_golden.json"
CASES = [{"shape": [4, N], "D": D, "seed": seed, "sigma2": sigma2}
         for sigma2, N, D, seed in itertools.product([1.0, 0.0], [1, 2, 3], [100, 400], [0, 1])]


def _sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def run_case(case: dict) -> dict:
    M, N = case["shape"]
    seed = case["seed"]
    lay = ArrayLayout(M=M, N=N)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(seed, K=K, L=L, layout=lay)
    session = chanest.make_session(lay, K=K, tau=TAU, V=V, sigma2=case["sigma2"],
                                   seed=seed + 100)
    rng = np.random.default_rng(seed + 200)
    tests = [random_feasible_placement(lay, rng) for _ in range(TEST_PLACEMENTS)]
    res = chanest.exhaustive_baseline(session, spec, lay, model, D=case["D"])
    return {**case,
            "table_sha256": _sha256(res.table),
            "feasible_sha256": _sha256(res.feasible),
            "base_sha256": _sha256(res.base),
            "nmse": float.hex(chanest.nmse(res, spec, tests, lay, model))}


def case_of(record: dict) -> dict:
    """The case a record was run for (None for a key it lacks)."""
    return {key: record.get(key) for key in CASES[0]}


def case_id(record: dict) -> str:
    return ("M{}-N{}".format(*record["shape"]) + f"-D{record['D']}-seed{record['seed']}"
            + ("-noiseless" if record["sigma2"] == 0.0 else ""))


@pytest.mark.parametrize("record", json.loads(PATH.read_text()) if PATH.exists() else [],
                         ids=case_id)
def test_exhaustive_run_is_bit_identical_to_the_record(record):
    assert run_case(case_of(record)) == record


def test_records_cover_every_case():
    records = json.loads(PATH.read_text())
    assert [case_of(r) for r in records] == CASES


def regenerate() -> None:
    """Rewrite the records and print each one that changes."""
    old = json.loads(PATH.read_text()) if PATH.exists() else []
    records = [run_case(c) for c in CASES]
    for new in records:
        was = next((r for r in old if case_of(r) == case_of(new)), None)
        if was is None:
            print(f"{case_id(new)}: new record, nmse {new['nmse']}")
        elif was != new:
            fields = ", ".join(key for key in new if was.get(key) != new[key])
            print(f"{case_id(new)}: {fields} changed; nmse {was['nmse']} -> {new['nmse']}")
    PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    regenerate()
