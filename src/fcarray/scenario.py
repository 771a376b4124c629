"""Scenario configuration: defaults, JSON loading, dotted-path overrides,
validation, and the run manifest.

A scenario is one JSON document.  Every field has a default; the manifest
written next to each output CSV materializes the fully resolved configuration
so no hidden defaults influence a run.  SNR definitions (neither is given an
operational meaning by the rate/NMSE figures alone) are fixed here and echoed
into the manifest:

* downlink rate runs: snr_db = P_max * g0 / (K * sigma^2) with g0 = 1;
* estimation runs: per-antenna pre-correlation SNR = g0 * P_pilot / sigma_m^2
  with unit pilot power.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import ConfigError
from .geometry import ArrayLayout
from .impedance import DipoleModel
from .optimizer import ALPHA_SCHEDULES

PACKAGE_VERSION = "0.1.0"

DEFAULTS = {
    "layout": {"M": 4, "N": 2, "d_y": 2.2, "A": 2.0, "d_min": 0.15, "f_c": 7.0e9},
    "channel": {"K": 2, "L": 15},
    "power": {"P_max_dbm": 30.0, "snr_db": 10.0},
    "load_impedance": [0.05, 50.0],
    "seeds": {"start": 0, "count": 20},
    "schemes": ["fc-optimized", "fixed-coupler", "active-only", "fully-active"],
    "sca": {
        "eps_stop": 1e-4,
        "T_max": 200,
        "alpha_schedule": "diminishing",
        "init": "uniform",
        "screen_points": 11,
    },
    "estimation": {
        "V": 4,
        "tau": 13,
        "G": 256,
        "eta": 4.0,
        "D": 400,
        "L": 3,
        "snr_db": 0.0,
        "schemes": ["centralized", "distributed"],
        "test_placements": 10,
    },
    "sweep": {
        "power_dbm": [20.0, 25.0, 30.0, 35.0],
        "users": [1, 2, 3],
        "region": [0.5, 1.0, 2.0],
        "region_n": [2, 3],
        "snr_db": [-10.0, 0.0, 10.0, 20.0],
        "pilot": [4, 13, 32],
    },
    "heatmap": {"resolution": 101, "antenna": 0},
}

RATE_SCHEMES = {"fc-optimized", "fixed-coupler", "active-only", "fully-active"}
ESTIMATION_SCHEMES = {"centralized", "distributed", "exhaustive"}

# Integer fields with their least allowed value.
INT_FIELDS = {
    "layout.M": 1, "layout.N": 0, "channel.K": 1, "channel.L": 1,
    "seeds.start": 0, "seeds.count": 1, "sca.T_max": 0, "sca.screen_points": 1,
    "estimation.V": 1, "estimation.tau": 1, "estimation.G": 2, "estimation.D": 1,
    "estimation.L": 1, "estimation.test_placements": 1,
    "heatmap.resolution": 5, "heatmap.antenna": 0,
}
NUMBER_FIELDS = [
    "layout.d_y", "layout.A", "layout.d_min", "layout.f_c", "power.P_max_dbm",
    "power.snr_db", "sca.eps_stop", "estimation.eta", "estimation.snr_db",
]
# Decibel fields and sweep lists, held to +-MAX_DB so 10 ** (x / 10) is a float.
DB_FIELDS = ["power.P_max_dbm", "power.snr_db", "estimation.snr_db", "sweep.power_dbm",
             "sweep.snr_db"]
MAX_DB = 300.0


def _is(value, kind) -> bool:
    """isinstance that does not take a boolean for a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _get(doc: dict, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError("unknown field", field=here)
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError("expected an object", field=here)
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def with_field(doc: dict, dotted: str, value) -> dict:
    """``doc`` with ``value`` written at the dotted path, through ``_merge``'s
    rules: an unknown field, or a non-object where an object is, is an error."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return _merge(doc, value)


class Scenario:
    """Validated scenario with typed accessors."""

    def __init__(self, doc: dict | None = None, overrides: list[str] | None = None):
        merged = _merge(DEFAULTS, doc or {})
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form path=value")
            dotted, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            merged = with_field(merged, dotted, value)
        self.doc = merged
        self._validate()

    @classmethod
    def from_file(cls, path, overrides=None) -> "Scenario":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls(doc, overrides)

    def _require(self, cond: bool, field: str, message: str) -> None:
        if not cond:
            raise ConfigError(message, field=field)

    def _validate(self) -> None:
        d = self.doc
        for path, least in INT_FIELDS.items():
            value = _get(d, path)
            self._require(_is(value, int) and value >= least, path,
                          f"must be an integer >= {least}, got {value!r}")
        for path in NUMBER_FIELDS:
            value = _get(d, path)
            self._require(_is(value, (int, float)) and math.isfinite(value), path,
                          f"must be a finite number, got {value!r}")
        lay = d["layout"]
        self._require(lay["d_y"] > 0, "layout.d_y", "must be positive")
        self._require(lay["A"] > 0, "layout.A", "must be positive")
        self._require(0 < lay["d_min"] < lay["A"], "layout.d_min", "must satisfy 0 < d_min < A")
        self._require(lay["f_c"] > 0, "layout.f_c", "must be positive")
        for path, allowed in (("schemes", RATE_SCHEMES),
                              ("estimation.schemes", ESTIMATION_SCHEMES)):
            schemes = _get(d, path)
            self._require(isinstance(schemes, list), path, "must be a list of scheme names")
            for i, scheme in enumerate(schemes):
                self._require(isinstance(scheme, str) and scheme in allowed, f"{path}[{i}]",
                              f"unknown scheme {scheme!r}; pick from {sorted(allowed)}")
        for key, values in d["sweep"].items():
            self._require(isinstance(values, list)
                          and all(_is(v, (int, float)) and math.isfinite(v) for v in values),
                          f"sweep.{key}", "must be a list of finite numbers")
        for path in DB_FIELDS:
            values = _get(d, path) if path.startswith("sweep.") else [_get(d, path)]
            self._require(all(abs(v) <= MAX_DB for v in values), path,
                          f"must lie within +-{MAX_DB:g} dB")
        est = d["estimation"]
        self._require(est["tau"] >= d["channel"]["K"], "estimation.tau", "must be >= K")
        self._require(math.isqrt(est["D"]) ** 2 == est["D"], "estimation.D",
                      f"must be a perfect square (a side x side lattice), got {est['D']}")
        self._require(est["L"] <= est["G"], "estimation.L",
                      "must be <= estimation.G (OMP picks L of the G grid atoms)")
        self._require(est["L"] <= est["V"] * lay["M"], "estimation.L",
                      "must be <= estimation.V * layout.M (LS fits L gains to V M samples)")
        load = d["load_impedance"]
        self._require(isinstance(load, list) and len(load) == 2
                      and all(_is(v, (int, float)) for v in load),
                      "load_impedance", "must be [re, im] in ohms")
        self._require(d["heatmap"]["antenna"] < lay["M"], "heatmap.antenna",
                      "must index an antenna")
        sca = d["sca"]
        self._require(isinstance(sca["alpha_schedule"], str)
                      and sca["alpha_schedule"] in ALPHA_SCHEDULES, "sca.alpha_schedule",
                      f"must be one of {sorted(ALPHA_SCHEDULES)}")
        self._require(sca["init"] in ("uniform", "screened"), "sca.init",
                      "must be 'uniform' or 'screened'")

    # typed accessors -----------------------------------------------------

    def layout(self) -> ArrayLayout:
        lay = self.doc["layout"]
        return ArrayLayout(M=lay["M"], N=lay["N"], d_y=lay["d_y"],
                           region_side=lay["A"], d_min=lay["d_min"], f_c=lay["f_c"])

    def model(self, layout: ArrayLayout) -> DipoleModel:
        re_x, im_x = self.doc["load_impedance"]
        return DipoleModel.for_layout(layout, load_impedance=complex(re_x, im_x))

    def seeds(self) -> list[int]:
        s = self.doc["seeds"]
        return list(range(s["start"], s["start"] + s["count"]))

    @property
    def P_max(self) -> float:
        """Transmit budget in watts (config is dBm)."""
        return 10.0 ** ((self.doc["power"]["P_max_dbm"] - 30.0) / 10.0)

    def sigma2_rate(self, K: int) -> float:
        """User noise variance from the rate-run SNR definition."""
        snr = 10.0 ** (self.doc["power"]["snr_db"] / 10.0)
        return self.P_max / (K * snr)

    @staticmethod
    def sigma2_estimation(snr_db: float) -> float:
        """Per-antenna noise variance from the pilot-run SNR definition."""
        return 10.0 ** (-snr_db / 10.0)

    def manifest(self, command: str, extra: dict | None = None) -> dict:
        doc = {
            "tool": "fcarray",
            "version": PACKAGE_VERSION,
            "command": command,
            "config": copy.deepcopy(self.doc),
            "snr_definitions": {
                "rate": "P_max * g0 / (K * sigma2), g0 = 1",
                "estimation": "g0 * P_pilot / sigma_m^2, unit pilot power",
            },
            "units": {"lengths": "meters internally; layout fields in wavelengths",
                      "power": "watts internally; config in dBm"},
        }
        if extra:
            doc.update(extra)
        return doc


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
