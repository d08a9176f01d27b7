"""Network-simulator tests: event queue, link, flows, end-to-end metrics."""

import pytest

from repro.cc.policies import FixedWindowController, RenoController
from repro.netsim.link import DropTailLink, LinkConfig
from repro.netsim.simulator import (
    NetworkSimulator,
    SimulationConfig,
    run_single_flow,
)


# -- The event queue --------------------------------------------------------------


def _fixed(window, **link):
    config = SimulationConfig(link=LinkConfig(**link), mss=1500)
    simulator = NetworkSimulator(config)
    simulator.add_flow(FixedWindowController(window))
    return simulator


def test_event_queue_orders_by_time_then_fifo():
    link = LinkConfig(rate_bps=1_000_000, queue_bytes=10**6)  # one packet takes 11.6 ms
    simulator = NetworkSimulator(SimulationConfig(link=link))
    for start_at_s in (0.002, 0.001, 0.002):
        simulator.add_flow(FixedWindowController(2), start_at_s=start_at_s)
    assert simulator.run_until(2_000) == 3  # the three starts, nothing served yet
    assert [packet.flow_id for packet in simulator.link._queue] == [1, 1, 0, 0, 2, 2]
    assert simulator.now == 2_000
    assert simulator.processed == 3


def test_event_queue_rejects_past_events():
    """A negative delay is the one way an event could land in the past."""
    with pytest.raises(ValueError, match="one_way_delay_us"):
        LinkConfig(one_way_delay_us=-1)
    simulator = _fixed(4)
    simulator.run_until(5_000)
    simulator.add_flow(FixedWindowController(4), start_at_s=0.0)  # starts now, not at 0
    assert min(entry[0] for entry in simulator._heap) >= 5_000


def test_run_until_respects_horizon_and_budget():
    simulator = _fixed(10)
    fired = simulator.run_until(20_000)
    assert fired > 10 and simulator.now == 20_000 and not simulator.truncated
    assert min(entry[0] for entry in simulator._heap) > 20_000
    assert simulator.run_until(10**6, max_events=2) == 2 and simulator.truncated
    assert simulator.processed == fired + 2


# -- LinkConfig / DropTailLink -----------------------------------------------------


def test_link_config_serialization_and_bdp():
    config = LinkConfig(rate_bps=12_000_000, one_way_delay_us=10_000)
    # A 1500-byte packet at 12 Mbps takes 1 ms to serialise.
    assert config.serialization_us(1500) == pytest.approx(1000, abs=1)
    assert config.bdp_bytes() == pytest.approx(30_000, rel=0.01)


def test_link_delivers_packets_with_correct_latency():
    simulator = _fixed(2, queue_bytes=100_000)
    arrival = simulator.link.config.serialization_us(1500) + 10_000
    simulator.run_until(arrival - 1)
    assert simulator.link.stats.delivered_packets == 0
    simulator.run_until(arrival)
    assert simulator.link.stats.delivered_packets == 1


def test_link_queueing_delay_accumulates():
    simulator = _fixed(5, one_way_delay_us=1_000, queue_bytes=1_000_000)
    simulator.run_until(5 * simulator.link.config.serialization_us(1500))
    delays = simulator.link.stats.queueing_delays_us
    assert len(delays) == 5
    assert delays[0] == 0
    assert delays[-1] > delays[1] > 0


def test_link_drops_when_buffer_full():
    simulator = _fixed(10, rate_bps=1_000_000, one_way_delay_us=1_000, queue_bytes=3_000)
    simulator.run_until(0)  # the flow's first burst of ten
    assert simulator.link.stats.dropped_packets == 8  # only two 1500-byte packets fit
    assert simulator.link.stats.loss_rate() == pytest.approx(8 / 10)


def test_link_utilization_bounded():
    metrics_stats = DropTailLink(LinkConfig()).stats
    assert metrics_stats.utilization(12_000_000, 0) == 0.0


# -- Flows and end-to-end -----------------------------------------------------------------


def test_fixed_window_flow_throughput_matches_window():
    # With a 10-packet window and ~21.x ms RTT, throughput ~ cwnd*mss/rtt.
    config = SimulationConfig(duration_s=5.0)
    metrics = run_single_flow(FixedWindowController(10), config)
    flow = metrics.flows[0]
    rtt_s = flow.mean_rtt_ms / 1000
    expected_bps = 10 * config.mss * 8 / rtt_s
    assert flow.throughput_bps == pytest.approx(expected_bps, rel=0.15)
    assert metrics.loss_rate == 0.0
    assert metrics.mean_queueing_delay_ms < 1.0


def test_small_window_underutilises_link():
    metrics = run_single_flow(FixedWindowController(3), SimulationConfig(duration_s=4.0))
    assert metrics.utilization < 0.4


def test_reno_fills_the_link():
    metrics = run_single_flow(RenoController(), SimulationConfig(duration_s=6.0))
    assert metrics.utilization > 0.85
    assert metrics.flows[0].packets_lost > 0          # it probes until loss
    assert 0 < metrics.mean_queueing_delay_ms < 45


def test_rtt_measured_close_to_configured_delay():
    metrics = run_single_flow(FixedWindowController(4), SimulationConfig(duration_s=3.0))
    # 2 * 10 ms propagation plus ~1 ms serialisation and ACK return.
    assert 20 <= metrics.flows[0].mean_rtt_ms <= 25


def test_two_flows_share_the_link_fairly():
    simulator = NetworkSimulator(SimulationConfig(duration_s=6.0))
    simulator.add_flow(RenoController())
    simulator.add_flow(RenoController())
    metrics = simulator.run()
    assert len(metrics.flows) == 2
    assert metrics.jain_fairness() > 0.7
    assert metrics.utilization > 0.85
    assert metrics.aggregate_throughput_bps() <= 12_000_000 * 1.05


def test_simulator_requires_flows():
    with pytest.raises(ValueError):
        NetworkSimulator(SimulationConfig(duration_s=1.0)).run()


def test_duplicate_flow_ids_rejected():
    simulator = NetworkSimulator(SimulationConfig(duration_s=1.0))
    simulator.add_flow(FixedWindowController(4), flow_id=1)
    with pytest.raises(ValueError):
        simulator.add_flow(FixedWindowController(4), flow_id=1)


def test_simulation_deterministic():
    first = run_single_flow(RenoController(), SimulationConfig(duration_s=3.0))
    second = run_single_flow(RenoController(), SimulationConfig(duration_s=3.0))
    assert first.utilization == second.utilization
    assert first.mean_queueing_delay_ms == second.mean_queueing_delay_ms
