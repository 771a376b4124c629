"""Golden SCA runs: the six ``sca-small`` bench shapes (M=4, N 2/3, K=3,
A 0.5/1/2 wavelengths) at two channel seeds each, pinned bit for bit.  Each
record holds the iteration count, ``float.hex`` of every accepted rate and the
sha256 of the final positions' bytes, so any change that reorders a float
operation in the optimizer's chain shows here."""

import hashlib
import json
from pathlib import Path

import pytest

from fcarray import ArrayLayout, DipoleModel, SCAConfig, optimize, sample_channels, uniform_placement

P_MAX = 1.0
RATE_SNR_DB = 10.0
L = 15
GOLDEN = json.loads((Path(__file__).parent / "sca_golden.json").read_text())


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: "M{}-N{}-K{}-A{}".format(*r["shape"])
                         + f"-seed{r['seed']}")
def test_sca_run_is_bit_identical_to_the_record(record):
    M, N, K, A = record["shape"]
    lay = ArrayLayout(M=M, N=N, region_side=A)
    spec = sample_channels(record["seed"], K=K, L=L, layout=lay)
    sigma2 = P_MAX / (K * 10.0 ** (RATE_SNR_DB / 10.0))
    res = optimize(uniform_placement(lay), SCAConfig(), spec, lay, DipoleModel.for_layout(lay),
                   P_MAX, sigma2)
    assert len(res.trace.rates) - 1 == record["iterations"]
    assert [float.hex(r) for r in res.trace.rates] == record["rates"]
    digest = hashlib.sha256(res.placement.positions.tobytes()).hexdigest()
    assert digest == record["positions_sha256"]
