import hashlib

import numpy as np
import pytest

from fcarray.errors import ConfigError
from fcarray.scenario import Scenario
from fcarray.sweeps import (
    SWEEP_AXES,
    _EST_FIELDS,
    _job,
    _write_rows,
    compute_heatmap,
    estimation_metrics,
    rate_metric,
    run_estimate,
    run_heatmap,
    run_sweep,
    sweep_jobs,
)

import job_reference


HEAT_DOC = {
    "layout": {"M": 5, "N": 1},
    "channel": {"K": 1, "L": 15},
    "sca": {"T_max": 40},
    "heatmap": {"resolution": 201, "antenna": 2},
    "seeds": {"start": 0, "count": 1},
}


def count_strict_local_maxima(Z):
    """Interior cells strictly above their 8 neighbors (NaN-safe)."""
    count = 0
    n, m = Z.shape
    for i in range(1, n - 1):
        for j in range(1, m - 1):
            c = Z[i, j]
            if np.isnan(c):
                continue
            neigh = Z[i - 1:i + 2, j - 1:j + 2].ravel()
            neigh = np.delete(neigh, 4)
            if np.all(np.isnan(neigh) | (c > neigh)):
                count += 1
    return count


@pytest.fixture(scope="module")
def heat():
    return compute_heatmap(Scenario(HEAT_DOC), seed=1)


class TestHeatmap:
    def test_surface_continuity(self, heat):
        # adjacent finite cells at 201x201 never jump by 10 dB
        Z = heat.gain_db
        dx = np.abs(np.diff(Z, axis=0))
        dy = np.abs(np.diff(Z, axis=1))
        jump = max(np.nanmax(dx), np.nanmax(dy))
        assert jump < 10.0

    def test_multiple_local_extrema(self):
        # rich multipath produces several strict local maxima (statistical
        # property over seeds, not exact values)
        counts = []
        for seed in (1, 2, 3):
            hm = compute_heatmap(Scenario(HEAT_DOC), seed=seed)
            counts.append(count_strict_local_maxima(hm.gain_db))
        assert all(c >= 2 for c in counts)

    def test_trajectory_endpoint_improves(self, heat):
        traj = heat.trajectory
        assert traj[-1]["gain_db"] >= traj[0]["gain_db"]
        assert traj[-1]["rate"] >= traj[0]["rate"]

    def test_infeasible_cells_masked(self, heat):
        # the spacing guard blanks a disc around the active element
        assert np.isnan(heat.gain_db).sum() > 0

    def test_requires_single_coupler_single_user(self):
        with pytest.raises(Exception):
            compute_heatmap(Scenario({"layout": {"N": 2}, "channel": {"K": 1}}),
                            seed=0)


# sha256 of the heatmap.csv and trajectory.csv that ``fcarray heatmap`` writes:
# the default array at three seeds, and a wider array tracking an inner
# antenna in a smaller region
HEAT_BASE = {"layout": {"N": 1}, "channel": {"K": 1}, "heatmap": {"resolution": 21}}
HEAT_WIDE = {"layout": {"M": 6, "N": 1, "A": 1.0}, "channel": {"K": 1},
             "heatmap": {"resolution": 21, "antenna": 3}}
HEAT_GOLDEN = [
    (HEAT_BASE, 1, "93469030c22aeba898a6dd511995d3c8a4ca4f5f3c357a9d4c2009f2a49d418b",
     "8bc16e385843b19a7fb260fa1fa7440c71c1859a4e8e6d98081e62b74bb1089a"),
    (HEAT_BASE, 2, "4f8a614a45d6bed3d599b78c5296359847a361a2f9ac18e1bf5660a8af7b9b71",
     "e77676d343fc57cfc6e35ffc15dfc3eb84fa6a74131df6320752d66b11443046"),
    (HEAT_BASE, 3, "05cd04e52a369fadd4a290ac00f0a0214774f8ff56d82b7d6d853e14b9fe55e7",
     "e2fa70a79d8bb8cabde168c326e575f9172b2eaa42a102c5724ef7645a4c5a5f"),
    (HEAT_WIDE, 7, "2f5aa3e8d2b30bab3b7c112362c4b01d725bd1ec8db91751012c5838c4942595",
     "1e25790b9e7b737d271925131bf9d813e83a12663f995dec2a067fbb8bf74cae"),
]


@pytest.mark.parametrize("doc, seed, heat_sha, traj_sha", HEAT_GOLDEN,
                         ids=["base-seed1", "base-seed2", "base-seed3", "wide-seed7"])
def test_heatmap_files_are_byte_identical_to_the_record(doc, seed, heat_sha, traj_sha, tmp_path):
    run_heatmap(Scenario(doc), seed, tmp_path)
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("heatmap.csv", "trajectory.csv")}
    assert digest == {"heatmap.csv": heat_sha, "trajectory.csv": traj_sha}


def test_trajectory_cells_are_numbers(tmp_path):
    """Every trajectory cell is a bare number (numpy 2's ``repr`` of an
    ``np.float64`` would write ``np.float64(...)``)."""
    hm = run_heatmap(Scenario(HEAT_BASE), 1, tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "iteration,x,y,gain_db,rate"
    assert len(lines) == len(hm.trajectory) + 1 > 2
    for line in lines[1:]:
        assert all(np.isfinite(float(cell)) for cell in line.split(","))


SMALL_DOC = {
    "layout": {"M": 2, "N": 1},
    "channel": {"K": 2, "L": 4},
    "seeds": {"start": 0, "count": 2},
    "sca": {"T_max": 3},
    "estimation": {"V": 2, "tau": 4, "G": 16, "L": 2, "test_placements": 2},
    "sweep": {"power_dbm": [30.0], "users": [2], "region": [1.0],
              "region_n": [1], "snr_db": [0.0], "pilot": [4]},
}


class TestRowReproducibility:
    def test_rate_row_reproducible_in_isolation(self):
        scenario = Scenario(SMALL_DOC)
        job = (scenario.doc, "power", 30.0, "fixed-coupler", 1)
        a = _job(job)
        b = _job(job)
        assert a == b

    def test_estimation_row_reproducible_in_isolation(self):
        scenario = Scenario(SMALL_DOC)
        job = (scenario.doc, "snr", 0.0, "centralized", 1)
        assert _job(job) == _job(job)

    def test_jobs_enumerate_all_combinations(self):
        scenario = Scenario(SMALL_DOC)
        jobs = sweep_jobs(scenario, "power")
        # 1 power value x default 4-ish schemes? SMALL uses default schemes
        schemes = scenario.doc["schemes"]
        assert len(jobs) == len(schemes) * 2

    def test_exhaustive_scheme_runs(self):
        doc = dict(SMALL_DOC)
        doc["estimation"] = dict(SMALL_DOC["estimation"], D=9,
                                 schemes=["exhaustive"], snr_db=10.0)
        scenario = Scenario(doc)
        row = estimation_metrics("exhaustive", 0, scenario)
        assert row["snr_db"] == 10.0
        assert row["nmse"] >= 0.0
        assert row["comm_scalars"] > 0


class TestRateMetricSchemes:
    def test_all_schemes_positive(self):
        scenario = Scenario(SMALL_DOC)
        assert scenario.P_max == 1.0
        for scheme in ("active-only", "fixed-coupler", "fully-active",
                       "fc-optimized"):
            rate = rate_metric(scheme, 0, scenario, 0.05)
            assert rate > 0.0


def sweep_jobs_reference(scenario, axis):
    """Frozen copy of the per-axis job loops that ``sweep_jobs`` replaced."""
    sw, seeds, doc = scenario.doc["sweep"], scenario.seeds(), scenario.doc
    jobs = []
    if axis == "power":
        for value in sw["power_dbm"]:
            for scheme in doc["schemes"]:
                for seed in seeds:
                    jobs.append((doc, axis, float(value), scheme, seed))
    elif axis == "users":
        for value in sw["users"]:
            for scheme in doc["schemes"]:
                for seed in seeds:
                    jobs.append((doc, axis, int(value), scheme, seed))
    elif axis == "region":
        for n_value in sw["region_n"]:
            for a_value in sw["region"]:
                for seed in seeds:
                    jobs.append((doc, axis, (int(n_value), float(a_value)),
                                 "fc-optimized", seed))
    elif axis == "snr":
        for value in sw["snr_db"]:
            for scheme in doc["estimation"]["schemes"]:
                for seed in seeds:
                    jobs.append((doc, axis, float(value), scheme, seed))
    elif axis == "pilot":
        for value in sw["pilot"]:
            for scheme in doc["estimation"]["schemes"]:
                for seed in seeds:
                    jobs.append((doc, axis, int(value), scheme, seed))
    return jobs


def value_types(value):
    return tuple(map(type, value)) if isinstance(value, tuple) else type(value)


# the CLI tests' config as is, then with its sweep lists mixing ints and floats
MIXED_SWEEP = {"power_dbm": [25, 30.5], "users": [1, 2.0], "region": [0.5, 1],
               "region_n": [1, 2.0], "snr_db": [0, -5.5], "pilot": [4, 8.0]}


@pytest.mark.parametrize("sweep", [None, MIXED_SWEEP], ids=["cli-config", "mixed-types"])
@pytest.mark.parametrize("axis", ["power", "users", "region", "snr", "pilot"])
def test_sweep_jobs_match_the_per_axis_loops(axis, sweep):
    from test_cli import SMALL
    scenario = Scenario(dict(SMALL, sweep=sweep or SMALL["sweep"]))
    got, ref = sweep_jobs(scenario, axis), sweep_jobs_reference(scenario, axis)
    assert len(ref) >= 2 and got == ref
    assert [value_types(job[2]) for job in got] == [value_types(job[2]) for job in ref]
    assert all(job[0] is scenario.doc for job in got)
    expected = {"power": float, "users": int, "region": (int, float), "snr": float,
                "pilot": int}[axis]
    assert {value_types(job[2]) for job in got} == {expected}
    if axis == "region":
        assert {job[3] for job in got} == {"fc-optimized"}


def test_sweep_jobs_reject_an_unknown_axis():
    with pytest.raises(ConfigError, match="unknown sweep axis 'bogus'"):
        sweep_jobs(Scenario(SMALL_DOC), "bogus")


# the mixed-types sweep lists, plus integer-valued scalars, every rate scheme
# and the exhaustive estimator
def mixed_doc():
    from test_cli import SMALL
    return dict(SMALL, sweep=MIXED_SWEEP, power={"P_max_dbm": 30, "snr_db": 10},
                schemes=["fc-optimized", "fixed-coupler", "active-only", "fully-active"],
                estimation=dict(SMALL["estimation"], snr_db=0,
                                schemes=["centralized", "distributed", "exhaustive"]))


def cli_doc():
    from test_cli import SMALL
    return SMALL


@pytest.mark.parametrize("make_doc", [cli_doc, mixed_doc], ids=["cli-config", "mixed-types"])
@pytest.mark.parametrize("axis", ["power", "users", "region", "snr", "pilot", None],
                         ids=["power", "users", "region", "snr", "pilot", "estimate"])
def test_job_rows_match_the_per_axis_jobs(axis, make_doc, tmp_path):
    """Every sweep axis and ``estimate`` write, byte for byte, the CSV of the
    per-axis job functions that ``_job`` replaced."""
    scenario = Scenario(make_doc())
    if axis is None:
        rows = run_estimate(scenario, tmp_path / "got")
        est = scenario.doc["estimation"]
        jobs = [(scenario.doc, "snr", float(est["snr_db"]), scheme, seed)
                for scheme in est["schemes"] for seed in scenario.seeds()]
        name, fields = "estimate.csv", _EST_FIELDS
    else:
        rows = run_sweep(scenario, axis, tmp_path / "got")
        jobs = sweep_jobs(scenario, axis)
        name, fields = f"sweep_{axis}.csv", SWEEP_AXES[axis][2]
    ref = [job_reference.job(job) for job in jobs]
    assert len(ref) >= 2
    # equal types and equal reprs (the CSV's float format; NaN != NaN)
    assert [[(k, type(v), repr(v)) for k, v in row.items()] for row in rows] == \
        [[(k, type(v), repr(v)) for k, v in row.items()] for row in ref]
    _write_rows(tmp_path / "ref.csv", fields, ref)
    assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()
