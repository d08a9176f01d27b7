"""Netsim scenario workloads: lossy links, cross traffic, fairness, p99."""

import pytest

from repro.cc.evaluator import CCObjective, CongestionControlEvaluator
from repro.cc.policies.reno import RenoController
from repro.netsim.link import LinkConfig
from repro.netsim.simulator import NetworkSimulator, SimulationConfig
from repro.workloads import build_scenario
from repro.workloads.netsim import (
    BurstWindowController,
    CrossTrafficSpec,
    NetSimScenario,
)


def _run(scenario: NetSimScenario, controller_factory=RenoController):
    simulator, candidate_ids = scenario.build(lambda: controller_factory())
    return simulator.run(), candidate_ids


def test_single_flow_scenario_matches_paper_defaults():
    scenario = build_scenario("cc/single-flow")
    config = scenario.simulation_config()
    assert config.link.rate_bps == 12_000_000
    assert config.link.one_way_delay_us == 10_000
    assert config.link.queue_bytes == 60_000
    assert scenario.base_rtt_ms == pytest.approx(20.0)
    metrics, candidate_ids = _run(
        NetSimScenario(name="short", duration_s=2.0)
    )
    assert candidate_ids == [0]
    assert metrics.utilization > 0.5
    assert metrics.jain_fairness(candidate_ids) == 1.0


def test_lossy_link_drops_deterministically():
    scenario = build_scenario("cc/lossy-link", duration_s=2.0)
    assert scenario.loss_rate == 0.01
    first, _ = _run(scenario)
    second, _ = _run(scenario)
    assert first.loss_rate > 0
    assert first.loss_rate == second.loss_rate
    assert first.utilization == second.utilization
    # A different loss seed yields a different (but still deterministic) run.
    reseeded, _ = _run(build_scenario("cc/lossy-link", duration_s=2.0, loss_seed=99))
    assert reseeded.loss_rate != first.loss_rate or reseeded.utilization != first.utilization


def test_random_loss_happens_even_with_empty_queue():
    """loss_rate drops are non-congestive: they occur below queue capacity."""
    config = LinkConfig(loss_rate=0.05, loss_seed=3)
    scenario = NetSimScenario(
        name="lossy", loss_rate=0.05, loss_seed=3, duration_s=2.0
    )
    metrics, _ = _run(scenario)
    assert metrics.loss_rate > 0.0
    assert config.loss_rate == 0.05


def test_invalid_loss_rate_rejected():
    with pytest.raises(ValueError, match="loss_rate"):
        NetworkSimulator(SimulationConfig(link=LinkConfig(loss_rate=1.5)))


def test_multi_flow_scenario_measures_candidate_fairness():
    scenario = build_scenario("cc/multi-flow", duration_s=2.0)
    metrics, candidate_ids = _run(scenario)
    assert len(candidate_ids) == 3
    assert len(metrics.flows) == 3
    fairness = metrics.jain_fairness(candidate_ids)
    assert 0.0 < fairness <= 1.0
    # Identical Reno flows should share reasonably fairly.
    assert fairness > 0.5


def test_bursty_cross_traffic_runs_and_excludes_cross_flow_from_fairness():
    scenario = build_scenario("cc/bursty-cross", duration_s=2.0)
    metrics, candidate_ids = _run(scenario)
    assert candidate_ids == [0]
    assert len(metrics.flows) == 2  # candidate + cross-traffic flow
    cross = [f for f in metrics.flows if f.flow_id not in candidate_ids]
    assert cross[0].packets_sent > 0  # the burst source actually transmitted


def test_burst_window_controller_alternates():
    controller = BurstWindowController(high=40, low=2, period_us=1000, duty=0.5)
    assert controller._window(0) == 40
    assert controller._window(499) == 40
    assert controller._window(500) == 2
    assert controller._window(999) == 2
    assert controller._window(1000) == 40
    steady = CrossTrafficSpec(duty=1.0).controller()
    assert steady._window(0) == steady._window(123456) == 40


def test_p99_queueing_delay_reported_and_ordered():
    metrics, _ = _run(NetSimScenario(name="short", duration_s=2.0))
    assert metrics.p99_queueing_delay_ms >= metrics.p95_queueing_delay_ms >= 0


def test_objective_penalises_tail_delay_and_unfairness():
    metrics, ids = _run(NetSimScenario(name="short", duration_s=2.0))
    base = CCObjective().score(metrics, 20.0)
    with_p99 = CCObjective(p99_penalty=0.5).score(metrics, 20.0)
    assert with_p99 <= base
    fair = CCObjective(fairness_weight=1.0).score(metrics, 20.0, fairness=1.0)
    unfair = CCObjective(fairness_weight=1.0).score(metrics, 20.0, fairness=0.5)
    assert unfair == pytest.approx(fair - 0.5)


def test_evaluator_scenario_and_legacy_config_paths_agree():
    """The legacy config= keyword wraps into an equivalent scenario."""
    from repro.cc.evaluator import default_cc_simulation_config
    from repro.cc.template import cc_template

    program = cc_template().seed_programs[0]
    legacy = CongestionControlEvaluator(config=default_cc_simulation_config(2.0))
    scenario = CongestionControlEvaluator(
        scenario=build_scenario("cc/single-flow", duration_s=2.0)
    )
    a = legacy.evaluate(program)
    b = scenario.evaluate(program)
    assert a.score == b.score
    assert a.details["jain_fairness"] == 1.0


def test_legacy_config_wrap_preserves_mss():
    custom = SimulationConfig(duration_s=1.0, mss=500)
    evaluator = CongestionControlEvaluator(config=custom)
    assert evaluator.scenario.mss == 500
    assert evaluator.config.mss == 500


def test_scenario_evaluator_reports_new_detail_metrics():
    evaluator = CongestionControlEvaluator(
        scenario=build_scenario("cc/multi-flow", duration_s=2.0)
    )
    from repro.cc.template import cc_template

    result = evaluator.evaluate(cc_template().seed_programs[0])
    assert result.valid
    assert "jain_fairness" in result.details
    assert "p99_queueing_delay_ms" in result.details


def test_scenario_validation():
    with pytest.raises(ValueError, match="candidate flow"):
        NetSimScenario(name="bad", flow_count=0)
    with pytest.raises(ValueError, match="duration"):
        NetSimScenario(name="bad", duration_s=0)
    with pytest.raises(ValueError, match="mss"):
        NetSimScenario(name="bad", mss=0)
    with pytest.raises(ValueError, match="max_events"):
        NetSimScenario(name="bad", max_events=0)
    # 1 Gb/s x 50 B rounds to 0 us: the loop would clock an infinitely fast link.
    with pytest.raises(ValueError, match=r"rate_bps=1000000000 with mss=50 .* 0 us"):
        NetSimScenario(name="bad", rate_bps=10**9, mss=50)
    assert NetSimScenario(name="fast", rate_bps=10**9).link_config().serialization_us(1448) == 12
    with pytest.raises(ValueError, match="start_s"):
        CrossTrafficSpec(start_s=-1.0)
    with pytest.raises(ValueError, match="either a scenario or a raw config"):
        CongestionControlEvaluator(
            config=SimulationConfig(), scenario=build_scenario("cc/single-flow")
        )
