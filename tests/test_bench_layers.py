"""Every layer the benchmark tracer wraps must exist in the package, and
its hooks must read what the package returns.

``bench/spans.py`` wraps each ``(module, attribute path)`` of its ``LAYERS``
list and raises AttributeError at the first name that is gone, and its
``ON_RETURN`` hooks unpack the wrapped calls' results, so a removed or
renamed layer or a changed return shape would otherwise surface only in a
benchmark run.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

import fcarray
from fcarray import chanest, optimizer, runtime
from fcarray.channel import sample_channels
from fcarray.geometry import ArrayLayout, random_feasible_placement, uniform_placement
from fcarray.impedance import DipoleModel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
LAYERS = spans.LAYERS


@pytest.mark.parametrize("module, path", LAYERS, ids=[f"{m}.{p}" for m, p in LAYERS])
def test_bench_layer_resolves(module, path):
    owner = getattr(fcarray, module)
    *cls_path, leaf = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # the tracer reads the attribute from the owner's own namespace
    assert callable(vars(owner)[leaf])


def test_layer_list_loaded():
    assert LAYERS


def test_tracer_hooks_read_every_traced_layer():
    """One small centralized, distributed, routed and exhaustive estimation,
    each scored by ``nmse``, and one short SCA run under the installed
    tracer: every ``ON_RETURN`` hook runs on its layer's result, and the
    exact counters hold."""
    lay = ArrayLayout(M=2, N=1)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(0, 2, 3, lay)
    session = chanest.make_session(lay, 2, 4, 2, 0.05, seed=1)
    grid = chanest.AngularGrid(16)
    rng = np.random.default_rng(2)
    tests = [random_feasible_placement(lay, rng)]
    tracer = spans.Tracer(time.perf_counter)
    with tracer.installed():
        obs = chanest.run_pilot_phase(session, spec, lay, model)
        for result in (chanest.centralized_estimate(session, obs, 2, grid, lay, model),
                       chanest.distributed_estimate(session, obs, 2, grid, lay, model),
                       runtime.run_algorithm3(session, obs, 2, grid, lay, model)[0]):
            chanest.nmse(result, spec, tests, lay, model)
        chanest.nmse(chanest.exhaustive_baseline(session, spec, lay, model, D=9), spec, tests,
                     lay, model)
        optimizer.optimize(uniform_placement(lay), optimizer.SCAConfig(T_max=2), spec,
                           lay, model, 1.0, 0.1)
    assert all(tracer.calls[name] >= 1 for name in spans.ON_RETURN)
    counts = tracer.snapshot_counts()
    assert counts["chanest.centralized_estimate.calls"] == 1
    assert counts["chanest.omp.calls"] == 1
    assert counts["chanest.local_proxy.calls"] == 2
    assert counts["optimizer.iterations"] >= 1
    assert counts["chanest.exhaustive.candidates_total"] == lay.M * lay.N * 9
    assert counts["chanest.ExhaustiveResult.predict.calls"] == 1


def test_tracer_reads_the_one_solve_paths(monkeypatch):
    """``_omp_counts`` unpacks ``omp``'s (supports, gains), so
    ``chanest.omp.selections`` adds the K users of the one stacked call.  An
    exhaustive trial on a kept lattice half makes one ``build_block`` call,
    for ``nmse``'s ground truth, and two ``mutual_impedance`` calls: the
    trial's distances to the parked couplers and pairs, and that block's."""
    lay = ArrayLayout(M=2, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(0, 2, 3, lay)
    session = chanest.make_session(lay, 2, 4, 2, 0.05, seed=1)
    tests = [random_feasible_placement(lay, np.random.default_rng(2))]
    obs = chanest.run_pilot_phase(session, spec, lay, model)
    chanest.exhaustive_baseline(session, spec, lay, model, D=9)  # keeps the lattice half
    for slot in ("weights", "truth"):  # each trial queries new test placements
        monkeypatch.delitem(chanest._slots, slot, raising=False)

    tracer = spans.Tracer(time.perf_counter)
    with tracer.installed():
        chanest.centralized_estimate(session, obs, 2, chanest.AngularGrid(16), lay, model)
    counts = tracer.snapshot_counts()
    assert counts["chanest.omp.calls"] == 1
    assert counts["chanest.omp.selections"] == session.K

    tracer = spans.Tracer(time.perf_counter)
    with tracer.installed():
        chanest.nmse(chanest.exhaustive_baseline(session, spec, lay, model, D=9), spec, tests,
                     lay, model)
    counts = tracer.snapshot_counts()
    assert counts["impedance.build_block.calls"] == 1
    assert counts["impedance.mutual_impedance.calls"] == 2
