import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcarray.channel import sample_channels
from fcarray.cli import main
from fcarray.errors import ConfigError
from fcarray.geometry import is_feasible, load_placement, uniform_placement
from fcarray.optimizer import screened_initial_placement
from fcarray.scenario import Scenario
from fcarray import sweeps
from fcarray.sweeps import _streams

from test_acceptance import (
    NMSE_AT_V2,
    NMSE_OVER_SNR,
    NMSE_OVER_TAU,
    RATE_ORDERING,
    REGION_TREND,
    command_rows,
)


SMALL = {
    "layout": {"M": 2, "N": 1},
    "channel": {"K": 2, "L": 4},
    "seeds": {"start": 0, "count": 2},
    "sca": {"T_max": 3, "eps_stop": 1e-3},
    "estimation": {"V": 2, "tau": 4, "G": 16, "L": 2, "D": 9,
                   "test_placements": 2,
                   "schemes": ["centralized", "distributed"]},
    "sweep": {"power_dbm": [25.0, 30.0], "users": [1, 2],
              "region": [1.0], "region_n": [1],
              "snr_db": [0.0], "pilot": [4]},
    "heatmap": {"resolution": 11, "antenna": 0},
    "schemes": ["fixed-coupler", "active-only"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


class TestScenario:
    def test_defaults_materialize(self):
        sc = Scenario({})
        assert sc.doc["layout"]["M"] == 4
        assert sc.P_max == pytest.approx(1.0)

    def test_unknown_field_path_in_error(self):
        with pytest.raises(ConfigError) as err:
            Scenario({"layout": {"bogus": 3}})
        assert "layout.bogus" in str(err.value)

    def test_dotted_override(self):
        sc = Scenario({}, overrides=["layout.M=7", "sca.eps_stop=1e-5"])
        assert sc.doc["layout"]["M"] == 7
        assert sc.doc["sca"]["eps_stop"] == 1e-5

    def test_invalid_scheme_reports_path(self):
        with pytest.raises(ConfigError) as err:
            Scenario({"schemes": ["warp-drive"]})
        assert "schemes[0]" in str(err.value)

    def test_tau_vs_k(self):
        with pytest.raises(ConfigError) as err:
            Scenario({"channel": {"K": 5}, "estimation": {"tau": 4}})
        assert "estimation.tau" in str(err.value)


class TestCliCommands:
    def test_optimize(self, config_path, tmp_path):
        out = str(tmp_path / "opt")
        assert main(["optimize", "--config", config_path, "--seed", "1",
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "trace.csv"))
        assert os.path.exists(os.path.join(out, "placement.json"))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["layout"]["M"] == 2
        # every default materialized: no hidden configuration
        from fcarray.scenario import DEFAULTS
        assert set(manifest["config"]) == set(DEFAULTS)
        for section, value in DEFAULTS.items():
            if isinstance(value, dict):
                assert set(manifest["config"][section]) == set(value)

    def test_optimize_health_figures_rerun_byte_identical(self, config_path, tmp_path):
        outs = [str(tmp_path / f"opt{i}") for i in range(2)]
        for out in outs:
            assert main(["optimize", "--config", config_path, "--seed", "1",
                         "--out", out]) == 0
        trace = json.load(open(os.path.join(outs[0], "trace_summary.json")))
        manifest = json.load(open(os.path.join(outs[0], "manifest.json")))
        for key in ("proj_sweeps_total", "backtracks_total", "min_margin_m"):
            assert manifest[key] == trace[key] is not None
        assert trace["proj_sweeps_total"] > 0 and trace["min_margin_m"] > 0
        for name in ("trace_summary.json", "manifest.json", "trace.csv"):
            a, b = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert a == b

    def test_estimate(self, config_path, tmp_path):
        out = str(tmp_path / "est")
        assert main(["estimate", "--config", config_path, "--out", out]) == 0
        rows = open(os.path.join(out, "estimate.csv")).read().splitlines()
        assert rows[0].startswith("seed,snr_db,V,tau,scheme,nmse")
        assert len(rows) == 1 + 2 * 2  # header + schemes x seeds

    def test_sweep_power_deterministic(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(["sweep", "power", "--config", config_path, "--out", out1]) == 0
        assert main(["sweep", "power", "--config", config_path, "--out", out2]) == 0
        a = open(os.path.join(out1, "sweep_power.csv")).read()
        b = open(os.path.join(out2, "sweep_power.csv")).read()
        assert a == b  # byte-identical rerun
        assert len(a.splitlines()) == 1 + 2 * 2 * 2  # values x schemes x seeds

    def test_sweep_dominance(self, config_path, tmp_path):
        # fc-optimized >= fixed-coupler per (seed, point): monotone acceptance
        import csv
        out = str(tmp_path / "dom")
        assert main(["sweep", "power", "--config", config_path, "--out", out,
                     "--set", 'schemes=["fc-optimized","fixed-coupler"]']) == 0
        rows = list(csv.DictReader(open(os.path.join(out, "sweep_power.csv"))))
        by_key = {}
        for row in rows:
            by_key.setdefault((row["seed"], row["value"]), {})[row["scheme"]] = \
                float(row["metric_value"])
        for pair in by_key.values():
            assert pair["fc-optimized"] >= pair["fixed-coupler"] - 1e-12

    def test_heatmap(self, config_path, tmp_path):
        out = str(tmp_path / "hm")
        assert main(["heatmap", "--config", config_path, "--seed", "3",
                     "--out", out,
                     "--set", "channel.K=1"]) == 0
        lines = open(os.path.join(out, "heatmap.csv")).read().splitlines()
        assert lines[0] == "x_m,y_m,gain_db"
        assert len(lines) == 1 + 11 * 11
        traj = open(os.path.join(out, "trajectory.csv")).read().splitlines()
        assert len(traj) >= 2

    def test_ledger(self, config_path, tmp_path):
        out = str(tmp_path / "led")
        assert main(["ledger", "--config", config_path, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "ledger.json")))
        a1 = summary["algorithm1"]
        assert a1["ledger"]["total_scalars"] == a1["closed_form"]["total_scalars"]
        assert os.path.exists(os.path.join(out, "algorithm3_log.ndjson"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schemes": ["nope"]}))
        assert main(["sweep", "power", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["optimize", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # an impossible packing is only discovered while computing
        cfg = tmp_path / "cfg.json"
        doc = dict(SMALL)
        doc["layout"] = {"M": 1, "N": 40, "A": 1.0, "d_min": 0.5}
        cfg.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3

    def test_estimation_sweep(self, config_path, tmp_path):
        out = str(tmp_path / "snr")
        assert main(["sweep", "snr", "--config", config_path, "--out", out]) == 0
        rows = open(os.path.join(out, "sweep_snr.csv")).read().splitlines()
        assert len(rows) == 1 + 1 * 2 * 2  # snr values x schemes x seeds


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_optimize_iterate_on_its_shrunken_box_edge(seed, tmp_path):
    """Iterates clipped to the edge of their clearance-shrunken box once
    stopped these runs with MarginTooSmall (exit 3).  They finish with a
    feasible placement, and every accepted iterate keeps the sets'
    clearance of 1e-4 wavelengths."""
    out = tmp_path / "opt"
    assert main(["optimize", "--seed", str(seed), "--out", str(out),
                 "--set", "sca.alpha_schedule=constant", "--set", "layout.A=0.5"]) == 0
    placement, layout = load_placement(out / "placement.json")
    assert is_feasible(placement, layout)
    summary = json.loads((out / "trace_summary.json").read_text())
    assert summary["min_margin_m"] >= 0.99 * 1e-4 * layout.lam


def test_optimize_honors_screened_init(config_path, tmp_path):
    """``sca.init=screened`` starts ``fcarray optimize`` from the screened
    placement (with T_max=0 the output is the start itself)."""
    out = tmp_path / "opt"
    overrides = ["sca.init=screened", "sca.screen_points=5", "sca.T_max=0"]
    args = [x for o in overrides for x in ("--set", o)]
    assert main(["optimize", "--config", config_path, "--seed", "1", "--out", str(out),
                 *args]) == 0
    placement, _ = load_placement(out / "placement.json")
    scenario = Scenario(dict(SMALL), overrides=overrides)
    layout = scenario.layout()
    K = scenario.doc["channel"]["K"]
    spec = sample_channels(_streams(1)[0], K, scenario.doc["channel"]["L"], layout)
    screened = screened_initial_placement(layout, spec, scenario.model(layout),
                                          scenario.P_max, scenario.sigma2_rate(K),
                                          points_per_axis=5)
    assert not np.array_equal(screened.positions, uniform_placement(layout).positions)
    assert np.array_equal(placement.positions, screened.positions)


def test_ledger_honors_screened_init(config_path, tmp_path):
    """``fcarray ledger`` starts Algorithm 1 where ``fcarray optimize`` does:
    with T_max=0 both report the rate of the screened start."""
    overrides = ["sca.init=screened", "sca.screen_points=5", "sca.T_max=0"]
    args = [x for o in overrides for x in ("--set", o)]
    for command in ("optimize", "ledger"):
        assert main([command, "--config", config_path, "--seed", "1",
                     "--out", str(tmp_path / command), *args]) == 0
    optimized = json.loads((tmp_path / "optimize" / "trace_summary.json").read_text())
    routed = json.loads((tmp_path / "ledger" / "ledger.json").read_text())["algorithm1"]
    manifest = json.loads((tmp_path / "ledger" / "manifest.json").read_text())
    assert manifest["config"]["sca"]["init"] == "screened"
    assert routed["final_rate"] == optimized["final_rate"]


@pytest.mark.parametrize("override, field", [
    ("layout.d_y=abc", "layout.d_y"),
    ('estimation.V="4"', "estimation.V"),
    ("heatmap.resolution=x", "heatmap.resolution"),
    ("sca.alpha_schedule=foo", "sca.alpha_schedule"),
    ("sca.T_max=-1", "sca.T_max"),
    ("layout.f_c=1e400", "layout.f_c"),
    ("power.snr_db=NaN", "power.snr_db"),
    ("seeds.count=true", "seeds.count"),
    ("sweep.users=[1,\"a\"]", "sweep.users"),
    ("layout=3", "layout"),
    ("estimation.L=300", "estimation.L"),
    ("estimation.L=17", "estimation.L"),
    ("estimation.snr_db=-1e300", "estimation.snr_db"),
    ("power.P_max_dbm=4000", "power.P_max_dbm"),
    ("sweep.snr_db=[0, NaN]", "sweep.snr_db"),
    ("sweep.power_dbm=[1e300]", "sweep.power_dbm"),
    ("layout.bogus.x=1", "layout.bogus"),
    ("seeds.start.x=1", "seeds.start"),
])
def test_malformed_override_is_config_error(override, field, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["optimize", "--out", str(out), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("D", [3, 500, 1000])
def test_lattice_size_that_is_not_a_square_is_config_error(D, config_path, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["estimate", "--config", config_path, "--out", str(out),
                 "--set", f"estimation.D={D}", "--set", 'estimation.schemes=["exhaustive"]']) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: estimation.D: must be a perfect square")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["optimize"], ["estimate"], ["sweep", "power"],
                                     ["heatmap"], ["ledger"]], ids=" ".join)
def test_negative_seed_is_config_error(command, config_path, tmp_path, capsys):
    out = tmp_path / "x"
    assert main([*command, "--config", config_path, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["5", "0"])
@pytest.mark.parametrize("command", [["estimate"], ["sweep", "snr"], ["sweep", "region"]],
                         ids=" ".join)
def test_seed_flag_of_multi_seed_commands_is_config_error(command, seed, config_path,
                                                          tmp_path, capsys, monkeypatch):
    # their rows come from seeds.start/seeds.count; a --seed would be ignored
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(sweeps, "run_estimate", no_work)
    monkeypatch.setattr(sweeps, "run_sweep", no_work)
    out = tmp_path / "x"
    assert main([*command, "--config", config_path, "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed:")
    assert "seeds.start" in err and "seeds.count" in err
    assert "Traceback" not in err
    assert not out.exists()


class PoolForbidden:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was constructed")


@pytest.mark.parametrize("workers", [0, -3, (os.cpu_count() or 1) + 1, 10**6],
                         ids=["zero", "negative", "cpus+1", "huge"])
@pytest.mark.parametrize("command", [["estimate"], ["sweep", "snr"], ["optimize"]],
                         ids=" ".join)
def test_out_of_range_workers_is_config_error(command, workers, config_path, tmp_path,
                                              capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", PoolForbidden)
    out = tmp_path / "x"
    assert main([*command, "--config", config_path, "--workers", str(workers),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: workers:")
    assert "Traceback" not in err
    assert not out.exists()


def test_one_worker_runs_in_process(config_path, tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", PoolForbidden)
    assert main(["sweep", "snr", "--config", config_path, "--workers", "1",
                 "--out", str(tmp_path / "x")]) == 0


def test_sweep_users_past_the_pilot_length(config_path, tmp_path):
    # rate rows never run the estimator, so K above estimation.tau is fine
    assert main(["sweep", "users", "--config", config_path, "--out", str(tmp_path / "x"),
                 "--set", "sweep.users=[5]", "--set", "estimation.tau=4"]) == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two workers")
def test_two_workers_write_the_bytes_of_one(config_path, tmp_path):
    for workers in ("1", "2"):
        assert main(["sweep", "snr", "--config", config_path, "--workers", workers,
                     "--out", str(tmp_path / workers)]) == 0
    a, b = ((tmp_path / w / "sweep_snr.csv").read_bytes() for w in ("1", "2"))
    assert a == b


@pytest.mark.parametrize("gate, points_x_schemes", [
    (RATE_ORDERING, 1 * 4), (REGION_TREND, 6 * 1), (NMSE_OVER_SNR, 4 * 2),
    (NMSE_AT_V2, 1 * 1), (NMSE_OVER_TAU, 3 * 1),
], ids=["5-sweep-power", "6-sweep-region", "8-sweep-snr", "8-estimate", "8-sweep-pilot"])
def test_acceptance_command_lines_run_through_the_cli(gate, points_x_schemes, tmp_path):
    """The command lines of acceptance 5, 6 and 8 at two seeds: each exits 0
    with points x schemes x seeds rows, whose metric column is the repr of
    the rows the gate reads from the same scenario."""
    command, overrides = gate
    overrides = [*overrides, "seeds.count=2"]
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([*command, "--out", str(tmp_path / "cli"), *sets]) == 0
    with open(tmp_path / "cli" / ("_".join(command) + ".csv")) as fh:
        written = list(csv.DictReader(fh))
    assert len(written) == points_x_schemes * 2
    rows = command_rows(command, overrides, tmp_path / "direct")
    column = "nmse" if "nmse" in written[0] else "metric_value"
    assert [row[column] for row in written] == [repr(row[column]) for row in rows]


def assert_rejected_before_any_job(axis, override, field, config_path, tmp_path, capsys,
                                   monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a job ran")

    monkeypatch.setattr(sweeps, "_job", no_work)
    out = tmp_path / "x"
    assert main(["sweep", axis, "--config", config_path, "--set", override,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert "Traceback" not in err
    assert not out.exists()
    # other commands keep the config
    Scenario(dict(SMALL), overrides=[override])


@pytest.mark.parametrize("axis, override, field", [
    ("users", "sweep.users=[1, 2.5]", "sweep.users[1]"),
    ("pilot", "sweep.pilot=[4.7]", "sweep.pilot[0]"),
    ("region", "sweep.region_n=[1.5]", "sweep.region_n[0]"),
])
def test_non_integral_sweep_point_is_config_error(axis, override, field, config_path,
                                                  tmp_path, capsys, monkeypatch):
    assert_rejected_before_any_job(axis, override, field, config_path, tmp_path, capsys,
                                   monkeypatch)


@pytest.mark.parametrize("axis, override, field", [
    ("pilot", "sweep.pilot=[13, 1]", "sweep.pilot[1]"),  # tau < K = 2
    ("pilot", "sweep.pilot=[0]", "sweep.pilot[0]"),
    ("users", "sweep.users=[0]", "sweep.users[0]"),
    ("region", "sweep.region=[1.0, 0.1]", "sweep.region[1]"),  # A <= d_min = 0.15
    ("region", "sweep.region_n=[-1]", "sweep.region_n[0]"),
])
def test_out_of_range_sweep_point_is_config_error(axis, override, field, config_path,
                                                  tmp_path, capsys, monkeypatch):
    assert_rejected_before_any_job(axis, override, field, config_path, tmp_path, capsys,
                                   monkeypatch)


# Raw --set values: integers no larger than the base T_max, so every valid
# run stays at three iterations or fewer, then the JSON and non-JSON oddities.
SCA_VALUES = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(-10.0, 10.0).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "nan", "inf", "1e400", "true",
                     "false", "null", "[]", "[1, 2]", '["constant"]', "{}", '"3"', "",
                     "constant", "diminishing", "uniform", "screened", "foo"]),
)
SCA_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(["sca.eps_stop", "sca.T_max", "sca.alpha_schedule",
                               "sca.init", "sca.screen_points", "sca.bogus"]), SCA_VALUES),
    st.tuples(st.just("sca"), st.sampled_from(['{"T_max": 2}', '{"init": "screened"}',
                                               '{"bogus": 1}', "3", "[1]", "null"])),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.lists(SCA_OVERRIDES, min_size=1, max_size=3))
def test_optimize_with_fuzzed_sca_overrides_exits_cleanly(overrides):
    """In-process ``fcarray optimize`` under arbitrary ``sca.*`` overrides
    exits 0, 2 or 3 and lets no exception escape."""
    base = ["layout.M=2", "layout.N=1", "channel.K=2", "channel.L=4", "sca.T_max=3",
            "sca.screen_points=3"]
    assert_exits_cleanly("optimize", base + [f"{path}={value}" for path, value in overrides])


def assert_exits_cleanly(command, sets):
    """Run ``fcarray <command>`` in-process with ``--set`` overrides ``sets``;
    it must exit 0, 2 or 3 and print no traceback."""
    args = [x for o in sets for x in ("--set", o)]
    with (tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()),
          redirect_stderr(io.StringIO()) as err):
        code = main([*command.split(), "--out", os.path.join(tmp, "out"), *args])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# Raw --set values for estimation.*: small integers, so every valid run
# stays tiny, then the JSON and non-JSON oddities and scheme lists.
EST_VALUES = st.one_of(
    st.integers(-1, 6).map(str),
    st.integers(1, 6).map(str),
    st.floats(-20.0, 20.0).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "1e300", "-1e300", "true",
                     "null", "[]", "{}", '"3"', "", "foo", '["exhaustive"]',
                     '["centralized", "distributed", "exhaustive"]', '["bogus"]', "[1]",
                     '"centralized"']),
)
EST_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(["estimation.V", "estimation.tau", "estimation.G",
                               "estimation.eta", "estimation.D", "estimation.L",
                               "estimation.snr_db", "estimation.schemes",
                               "estimation.test_placements", "estimation.bogus"]),
              EST_VALUES),
    st.tuples(st.just("estimation"), st.sampled_from(['{"V": 1}', '{"L": 5}',
                                                      '{"bogus": 1}', "3", "null"])),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.lists(EST_OVERRIDES, min_size=1, max_size=2))
def test_estimate_with_fuzzed_estimation_overrides_exits_cleanly(overrides):
    """In-process ``fcarray estimate`` under arbitrary ``estimation.*``
    overrides exits 0, 2 or 3 and lets no exception escape."""
    base = ["layout.M=2", "layout.N=1", "channel.K=2", "seeds.count=1", "estimation.V=2",
            "estimation.tau=4", "estimation.G=8", "estimation.L=2", "estimation.D=4",
            "estimation.test_placements=2"]
    assert_exits_cleanly("estimate", base + [f"{path}={value}" for path, value in overrides])


# Raw --set values for layout.*: small array shapes and regions, so every
# valid run stays tiny, then the JSON and non-JSON oddities.
LAYOUT_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(["layout.M", "layout.N"]), st.integers(-1, 3).map(str)),
    st.tuples(st.sampled_from(["layout.A", "layout.d_y"]), st.floats(0.2, 3.0).map(repr)),
    st.tuples(st.just("layout.d_min"), st.floats(0.02, 0.6).map(repr)),
    st.tuples(st.just("layout.f_c"), st.sampled_from(["1e9", "7e9", "2.8e10", "0", "-7e9"])),
    st.tuples(st.sampled_from(["layout.M", "layout.N", "layout.A", "layout.d_min",
                               "layout.f_c", "layout.bogus"]),
              st.sampled_from(["NaN", "Infinity", "1e400", "true", "null", "[]", '"2"', "",
                               "foo"])),
)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.lists(LAYOUT_OVERRIDES, min_size=1, max_size=3))
def test_exhaustive_estimate_with_fuzzed_layout_overrides_exits_cleanly(overrides):
    """In-process ``fcarray estimate`` of the exhaustive scheme under
    arbitrary ``layout.*`` overrides exits 0, 2 or 3 and lets no exception
    escape; most examples hand the kept lattice slot a new layout."""
    base = ["layout.M=2", "layout.N=1", "channel.K=2", "seeds.count=1", "estimation.V=2",
            "estimation.tau=4", "estimation.G=8", "estimation.L=2", "estimation.D=9",
            "estimation.test_placements=2", 'estimation.schemes=["exhaustive"]']
    assert_exits_cleanly("estimate", base + [f"{path}={value}" for path, value in overrides])


# Raw --set values for the fields the heatmap reads: small resolutions, array
# sizes and path counts, so every valid run stays tiny, then the JSON and
# non-JSON oddities.  A region too small for the reference arc (A near 0.2)
# exits 3 with InfeasibleLayout, and so does a power.snr_db of about 180 dB or
# more, on the non-finite adjoint gradient of ``gram_rate_adjoint`` (an open
# fault, not a range to avoid).
HEATMAP_ODDITIES = st.sampled_from(["NaN", "Infinity", "1e400", "true", "null", "[]", '"2"',
                                    "", "foo"])
HEATMAP_OVERRIDES = st.one_of(
    st.tuples(st.just("heatmap.resolution"), st.integers(-1, 11).map(str)),
    st.tuples(st.sampled_from(["heatmap.antenna", "layout.M"]), st.integers(-1, 3).map(str)),
    st.tuples(st.sampled_from(["layout.N", "channel.L"]), st.integers(-1, 4).map(str)),
    st.tuples(st.sampled_from(["layout.A", "layout.d_y"]), st.floats(0.2, 3.0).map(repr)),
    st.tuples(st.just("layout.d_min"), st.floats(0.02, 0.6).map(repr)),
    st.tuples(st.just("layout.f_c"), st.sampled_from(["1e9", "7e9", "2.8e10", "0", "-7e9"])),
    st.tuples(st.just("power.snr_db"), st.floats(-300.0, 300.0).map(repr)),
    st.tuples(st.sampled_from(["heatmap.resolution", "heatmap.antenna", "heatmap.bogus",
                               "layout.M", "layout.A", "layout.d_min", "channel.L",
                               "power.snr_db"]), HEATMAP_ODDITIES),
    st.tuples(st.just("heatmap"), st.sampled_from(['{"resolution": 5}', '{"antenna": 1}',
                                                   '{"bogus": 1}', "3", "null"])),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.lists(HEATMAP_OVERRIDES, min_size=1, max_size=3))
def test_heatmap_with_fuzzed_overrides_exits_cleanly(overrides):
    """In-process ``fcarray heatmap`` under arbitrary ``heatmap.*``,
    ``layout.*``, ``channel.L`` and ``power.snr_db`` overrides exits 0, 2 or 3
    and lets no exception escape."""
    base = ["layout.M=2", "layout.N=1", "channel.K=1", "channel.L=4", "sca.T_max=3",
            "heatmap.resolution=7"]
    assert_exits_cleanly("heatmap", base + [f"{path}={value}" for path, value in overrides])


# Raw --set values for the fields `sweep users` and `sweep region` read:
# small user and path counts, seeds, regions and coupler counts, so every
# valid run stays tiny, then the JSON and non-JSON oddities.  A region too
# small for its couplers exits 3 with InfeasibleLayout.
SWEEP_ODDITIES = st.sampled_from(["NaN", "Infinity", "1e400", "true", "null", "[]", '"2"', "",
                                  "foo"])
SWEEP_LISTS = st.one_of(
    st.lists(st.integers(-1, 4), max_size=3).map(json.dumps),
    st.sampled_from(["[1.5]", "[NaN]", "[Infinity]", "[1e400]", "[true]", "[null]", '["2"]',
                     "[[1]]", "2", "{}"]),
    SWEEP_ODDITIES,
)
SWEEP_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(["channel.K", "channel.L", "seeds.start"]),
              st.integers(-1, 4).map(str)),
    st.tuples(st.just("seeds.count"), st.integers(-1, 2).map(str)),
    st.tuples(st.sampled_from(["sweep.users", "sweep.region_n"]),
              st.lists(st.integers(0, 3), min_size=1, max_size=3).map(json.dumps)),
    st.tuples(st.just("sweep.region"),
              st.lists(st.floats(0.2, 3.0), min_size=1, max_size=2).map(json.dumps)),
    st.tuples(st.sampled_from(["sweep.users", "sweep.region", "sweep.region_n"]), SWEEP_LISTS),
    st.tuples(st.sampled_from(["channel.K", "channel.L", "channel.bogus", "seeds.start",
                               "seeds.count", "seeds.bogus"]), SWEEP_ODDITIES),
    st.tuples(st.sampled_from(["channel", "seeds", "sweep"]),
              st.sampled_from(['{"K": 1}', '{"L": 2}', '{"count": 2}', '{"users": [3]}',
                               '{"bogus": 1}', "3", "null"])),
)


@pytest.mark.parametrize("axis", ["users", "region"])
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.lists(SWEEP_OVERRIDES, min_size=1, max_size=3))
def test_sweep_with_fuzzed_overrides_exits_cleanly(axis, overrides):
    """In-process ``fcarray sweep users`` and ``sweep region`` under
    arbitrary ``channel.*``, ``seeds.*``, ``sweep.users``, ``sweep.region``
    and ``sweep.region_n`` overrides exit 0, 2 or 3 and let no exception
    escape."""
    base = ["layout.M=2", "layout.N=1", "channel.K=1", "channel.L=4", "sca.T_max=3",
            "seeds.count=1", "sweep.users=[1,2]", "sweep.region=[1.0]", "sweep.region_n=[1]"]
    assert_exits_cleanly(f"sweep {axis}",
                         base + [f"{path}={value}" for path, value in overrides])


# Raw --set values for the fields `sweep snr` and `sweep pilot` read: each
# estimation field over a small range (V <= 2, G <= 16, D <= 9, at most 2 test
# placements), the two sweep lists, then the JSON and non-JSON oddities.  The
# --seed flag is always a config error on a sweep; --workers takes only values
# that start no pool (1 or less, or more than the machine's cores).
EST_SWEEP_OVERRIDES = st.one_of(
    st.tuples(st.just("estimation.V"), st.integers(-1, 2).map(str)),
    st.tuples(st.just("estimation.tau"), st.integers(-1, 6).map(str)),
    st.tuples(st.just("estimation.G"), st.integers(-1, 16).map(str)),
    st.tuples(st.just("estimation.D"), st.integers(-1, 9).map(str)),
    st.tuples(st.just("estimation.L"), st.integers(-1, 4).map(str)),
    st.tuples(st.just("estimation.test_placements"), st.integers(-1, 2).map(str)),
    st.tuples(st.just("estimation.eta"), st.floats(-5.0, 10.0).map(repr)),
    st.tuples(st.just("estimation.snr_db"), st.floats(-400.0, 400.0).map(repr)),
    st.tuples(st.sampled_from(["estimation.schemes", "schemes"]),
              st.sampled_from(['["exhaustive"]', '["centralized", "distributed", "exhaustive"]',
                               '["distributed"]', "[]", '["bogus"]', "[1]", '"centralized"'])),
    st.tuples(st.just("sweep.snr_db"),
              st.lists(st.floats(-400.0, 400.0), max_size=3).map(json.dumps)),
    st.tuples(st.just("sweep.pilot"), st.lists(st.integers(-1, 8), max_size=3).map(json.dumps)),
    st.tuples(st.sampled_from(["sweep.snr_db", "sweep.pilot"]), SWEEP_LISTS),
    st.tuples(st.sampled_from(["estimation.V", "estimation.tau", "estimation.G",
                               "estimation.D", "estimation.L", "estimation.eta",
                               "estimation.snr_db", "estimation.schemes",
                               "estimation.test_placements", "estimation.bogus"]),
              SWEEP_ODDITIES),
    st.tuples(st.just("estimation"),
              st.sampled_from(['{"V": 1}', '{"G": 4, "L": 1}', '{"tau": 2}',
                               '{"D": 4, "schemes": ["exhaustive"]}', '{"bogus": 1}', "3",
                               "null"])),
)
CPUS = os.cpu_count() or 1
# No flag (as often as all others), --workers, --seed, or both.
EST_SWEEP_FLAGS = st.sampled_from(
    [""] * 7 + ["--workers 1", "--workers 0", "--workers -1", f"--workers {CPUS + 1}",
                f"--workers {CPUS + 2}", "--seed 0", "--seed -1", "--workers 1 --seed 3"])


@pytest.mark.parametrize("axis", ["snr", "pilot"])
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.lists(EST_SWEEP_OVERRIDES, min_size=1, max_size=3), flags=EST_SWEEP_FLAGS)
def test_estimation_sweep_with_fuzzed_overrides_exits_cleanly(axis, overrides, flags):
    """In-process ``fcarray sweep snr`` and ``sweep pilot`` under arbitrary
    ``estimation.*``, ``schemes``, ``sweep.snr_db`` and ``sweep.pilot``
    overrides, ``--seed`` and ``--workers`` exit 0, 2 or 3 and let no
    exception escape."""
    base = ["layout.M=2", "layout.N=1", "channel.K=2", "seeds.count=1", "estimation.V=2",
            "estimation.tau=4", "estimation.G=8", "estimation.L=2", "estimation.D=9",
            "estimation.test_placements=2", "sweep.snr_db=[0.0]", "sweep.pilot=[4]"]
    assert_exits_cleanly(f"sweep {axis} {flags}",
                         base + [f"{path}={value}" for path, value in overrides])
