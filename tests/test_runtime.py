import json

import numpy as np
import pytest

from fcarray import (
    AngularGrid,
    ArrayLayout,
    CostLedger,
    DipoleModel,
    SCAConfig,
    communication_count,
    distributed_estimate,
    make_session,
    optimize,
    run_algorithm1,
    run_algorithm3,
    run_pilot_phase,
    sample_channels,
    uniform_placement,
)
from fcarray.chanest import LocalEstimator, local_dictionary
from fcarray.errors import InformationLeak
from fcarray.geometry import linearize_spacing
from fcarray.optimizer import CLEARANCE_WL, relaxed_update
from fcarray.runtime import export_message_log, load_message_log

P_MAX = 1.0
SIGMA2 = 0.05


@pytest.fixture
def scenario():
    lay = ArrayLayout(M=3, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(11, K=2, L=15, layout=lay)
    return lay, model, spec


class TestAlgorithm1:
    def test_bit_identical_to_direct_call(self, scenario):
        lay, model, spec = scenario
        cfg = SCAConfig(T_max=6, eps_stop=0.0)
        initial = uniform_placement(lay)
        direct = optimize(initial, cfg, spec, lay, model, P_MAX, SIGMA2)
        routed, log, ledger = run_algorithm1(initial, cfg, spec, lay, model,
                                             P_MAX, SIGMA2)
        assert np.array_equal(direct.placement.positions,
                              routed.placement.positions)
        assert direct.trace.rates == routed.trace.rates
        assert np.array_equal(direct.state.U, routed.state.U)

    def test_gradient_scalars_per_round(self, scenario):
        lay, model, spec = scenario
        cfg = SCAConfig(T_max=5, eps_stop=0.0)
        result, log, ledger = run_algorithm1(uniform_placement(lay), cfg, spec,
                                             lay, model, P_MAX, SIGMA2)
        rounds = result.trace.rounds
        assert ledger.total("cpu_to_lpu", "gradient") == 2 * lay.N * lay.M * rounds
        assert ledger.total("lpu_to_cpu", "positions") == 2 * lay.N * lay.M * rounds
        assert ledger.total() == communication_count(lay.M, lay.N,
                                                     rounds)["total_scalars"]

    def test_single_round_on_immediate_stop(self, scenario):
        lay, model, spec = scenario
        result, log, ledger = run_algorithm1(
            uniform_placement(lay), SCAConfig(eps_stop=np.inf), spec, lay,
            model, P_MAX, SIGMA2)
        assert ledger.rounds == 1

    def test_ledger_replay(self, scenario):
        lay, model, spec = scenario
        _, log, ledger = run_algorithm1(uniform_placement(lay),
                                        SCAConfig(T_max=3, eps_stop=0.0),
                                        spec, lay, model, P_MAX, SIGMA2)
        replayed = CostLedger.from_messages(log)
        assert replayed.totals == ledger.totals
        assert replayed.rounds == ledger.rounds

    @pytest.mark.parametrize("M, N", [(2, 1), (3, 2)])
    def test_log_replays_through_relaxed_update(self, M, N):
        # each antenna's uploaded positions follow from its own previous
        # upload and the step it received, and nothing else
        lay = ArrayLayout(M=M, N=N)
        model = DipoleModel.for_layout(lay)
        spec = sample_channels(17, K=2, L=8, layout=lay)
        cfg = SCAConfig(T_max=4, eps_stop=0.0)
        initial = uniform_placement(lay)
        result, log, _ = run_algorithm1(initial, cfg, spec, lay, model,
                                        P_MAX, SIGMA2)
        assert result.trace.rounds >= 1
        prev = {m: initial.antenna_vector(m) for m in range(M)}
        steps = {}
        for msg in log:
            r, m = msg.round, msg.antenna
            if msg.payload_kind == "gradient":
                steps[r, m] = msg.payload
                continue
            assert msg.payload_kind == "positions"
            anchor = initial.with_antenna_vector(m, prev[m])
            feas = linearize_spacing(anchor, [m], lay, margin=CLEARANCE_WL * lay.lam)
            (replayed,), _ = relaxed_update(prev[m][None], steps[r, m][None], cfg.alpha(r - 1),
                                            feas)
            assert np.array_equal(replayed, msg.payload)
            prev[m] = msg.payload
        final = np.stack([prev[m].reshape(N, 2) for m in range(M)])
        assert np.array_equal(final, result.placement.positions)


def _estimation_inputs():
    lay = ArrayLayout(M=4, N=2)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(13, K=2, L=3, layout=lay)
    session = make_session(lay, K=2, tau=13, V=4, sigma2=0.05, seed=29)
    obs = run_pilot_phase(session, spec, lay, model)
    return lay, model, session, obs, AngularGrid(64)


class TestAlgorithm3:
    def _setup(self, eta=4.0):
        return _estimation_inputs() + (eta,)

    def test_bit_identical_to_direct_pipeline(self):
        lay, model, session, obs, grid, eta = self._setup()
        direct = distributed_estimate(session, obs, 3, grid, lay, model, eta=eta)
        routed, log, ledger = run_algorithm3(session, obs, 3, grid, lay, model,
                                             eta=eta)
        assert np.array_equal(direct.supports, routed.supports)
        assert np.array_equal(direct.gains, routed.gains)
        assert np.array_equal(direct.angles, routed.angles)
        assert direct.ledger == routed.ledger

    def test_suffstat_scalar_units(self):
        lay, model, session, obs, grid, eta = self._setup()
        routed, log, ledger = run_algorithm3(session, obs, 3, grid, lay, model,
                                             eta=eta)
        # M=4, K=2, L=3: 4*2*(9+3) = 96 complex = 192 scalar units
        assert ledger.total("lpu_to_cpu", "suff_stats") == 192
        assert routed.ledger["suffstat_scalars"] == 192

    def test_fallback_round_visible(self):
        lay, model, session, obs, grid, _ = self._setup(eta=1e12)
        routed, log, ledger = run_algorithm3(session, obs, 3, grid, lay, model,
                                             eta=1e12)
        kinds = {msg.payload_kind for msg in log}
        assert "proxy_request" in kinds
        assert routed.ledger["fallback_rounds"] >= 1
        # fallback still bit-identical to the direct pipeline
        direct = distributed_estimate(session, obs, 3, grid, lay, model,
                                      eta=1e12)
        assert np.array_equal(direct.gains, routed.gains)

    def test_ledger_matches_chanest_counts(self):
        lay, model, session, obs, grid, eta = self._setup()
        routed, log, ledger = run_algorithm3(session, obs, 3, grid, lay, model,
                                             eta=eta)
        assert ledger.total("lpu_to_cpu", "proxy_list") == routed.ledger["proxy_scalars"]
        assert ledger.total("cpu_to_lpu", "support") == routed.ledger["support_scalars"]
        assert ledger.total("cpu_to_lpu", "gains") == routed.ledger["gain_scalars"]
        assert CostLedger.from_messages(log).totals == ledger.totals

    def test_lpu_guards(self):
        lay, model, session, obs, grid, eta = self._setup()
        est = LocalEstimator([0], session, local_dictionary(session, [0], grid, lay, model))
        est.correlate([obs[v][[0]] for v in range(session.V)])
        with pytest.raises(InformationLeak):
            est.suff_stats([0])  # no support received yet
        with pytest.raises(InformationLeak):
            est.top_proxies([0], 3)  # proxies never computed

    @pytest.mark.parametrize("eta", [4.0, 1e12])
    def test_ledger_equals_closed_form(self, eta):
        lay, model, session, obs, grid = _estimation_inputs()
        L = 3
        M, K = lay.M, session.K
        result = distributed_estimate(session, obs, L, grid, lay, model, eta=eta)
        _, log, _ = run_algorithm3(session, obs, L, grid, lay, model, eta=eta)
        requests = sum(msg.payload_kind == "proxy_request" for msg in log)
        assert result.ledger["support_scalars"] == M * K * L
        assert result.ledger["gain_scalars"] == 2 * M * K * L
        assert result.ledger["suffstat_scalars"] == 2 * M * K * (L * L + L)
        assert result.ledger["suffstat_complex"] == M * K * (L * L + L)
        assert result.ledger["fallback_rounds"] == requests / M
        assert (requests > 0) == (eta == 1e12)


class TestMessageLog:
    def test_ndjson_round_trip(self, tmp_path, scenario):
        lay, model, spec = scenario
        _, log, ledger = run_algorithm1(uniform_placement(lay),
                                        SCAConfig(T_max=2, eps_stop=0.0),
                                        spec, lay, model, P_MAX, SIGMA2)
        path = tmp_path / "log.ndjson"
        export_message_log(path, log)
        loaded = load_message_log(path)
        assert len(loaded) == len(log)
        assert CostLedger.from_messages(loaded).totals == ledger.totals
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"round", "direction", "antenna", "payload_kind",
                              "scalar_count"}

    def test_rounds_monotone_per_direction(self, scenario):
        lay, model, spec = scenario
        _, log1, _ = run_algorithm1(uniform_placement(lay),
                                    SCAConfig(T_max=3, eps_stop=0.0),
                                    spec, lay, model, P_MAX, SIGMA2)
        logs = [log1]
        for eta in (4.0, 1e12):  # 1e12 takes the fallback round
            e_lay, e_model, session, obs, grid = _estimation_inputs()
            logs.append(run_algorithm3(session, obs, 3, grid, e_lay, e_model,
                                       eta=eta)[1])
        for log in logs:
            per_channel = {}
            for msg in log:
                key = (msg.direction, msg.antenna, msg.payload_kind)
                assert per_channel.get(key, 0) < msg.round
                per_channel[key] = max(per_channel.get(key, 0), msg.round)
            assert all(r >= 1 for r in per_channel.values())
