"""The fused event loop against the per-packet oracle on hand-picked edges.

The hypothesis differential (``test_burst_differential``) draws from every
topology; these pin the shapes it may draw rarely: a queue no packet fits in,
windows at and past the clamp, a valve that closes inside a loss run, and a
controller that raises.  Each case is a run, its continuation after the cut,
and a second run, compared with the oracle at every step.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import fused
from repro.netsim.flow import Flow
from repro.netsim.simulator import NetworkSimulator, SimulationMetrics
from tests.netsim.test_burst_differential import ScheduleController, _flow, check, config


@settings(max_examples=50, deadline=None)
@given(
    flow=_flow,
    queue_bytes=st.sampled_from([1_000, 3_000, 20_000, 60_000]),
    mss=st.sampled_from([50, 536, 1448, 1500]),
    rate_bps=st.sampled_from([1_000_000, 12_000_000, 1_000_000_000]),
    one_way_delay_us=st.sampled_from([0, 500, 10_000]),
    max_events=st.one_of(st.just(6_000), st.integers(min_value=1, max_value=3_000)),
    resume_budget=st.integers(min_value=1, max_value=500),
)
def test_fused_single_flow_equals_the_oracle_and_the_classic_loop(
    flow, queue_bytes, mss, rate_bps, one_way_delay_us, max_events, resume_budget,
):  # fmt: skip
    """One flow on a loss-free link, the shape the multi-flow, lossy draws of
    the burst differential mostly miss.  The name predates the removal of the
    classic loop: the fused loop is the only loop now, so the oracle is the
    one reference, step by step through the cut, the resume and a second run."""
    run = config(queue_bytes, mss, rate_bps, one_way_delay_us, max_events=max_events)
    check(run, [flow], resume_budget)


@pytest.mark.parametrize("max_events", [5, 400, 20_000])
def test_zero_delay_and_a_queue_smaller_than_a_packet(max_events):
    """Nothing is ever admitted and sRTT stays 0: every loss may react."""
    run = config(queue_bytes=1_000, one_way_delay_us=0, max_events=max_events)
    first, _resumed, _second = check(run, [(50, [40, 3, 90], [30, 2, 64, 5])], 100)
    calls = first[1]["per_flow"][0]["calls"]
    assert calls and {call[0] for call in calls} == {"loss"}


@pytest.mark.parametrize(
    "windows", [[-3, 0, 1], [Flow.MAX_CWND], [Flow.MAX_CWND + 1, 10**6], [10**6, 2]]
)
def test_negative_clamped_and_huge_window_schedules(windows):
    run = config(queue_bytes=3_000, duration_s=0.05, max_events=20_000)
    first, _resumed, _second = check(run, [(10**4, windows, windows[::-1])], 50)
    assert isinstance(first[0], SimulationMetrics)
    assert all(2 <= cwnd <= Flow.MAX_CWND for _t, cwnd in first[1]["per_flow"][0]["cwnd_trace"])


def test_a_valve_cut_inside_a_loss_run_requeues_the_rest_under_its_numbers():
    """50 packets, none admitted: one run of 50 detections; the valve lets 9 fire."""
    run = config(queue_bytes=1_000, one_way_delay_us=500, max_events=10)
    simulator = NetworkSimulator(run)
    simulator.add_flow(ScheduleController(50, [50], [50]))
    metrics = simulator.run()
    assert metrics.truncated and metrics.events == simulator.processed == 10
    assert simulator._heap[0] == (2 * 500, 1 + 9, fused.LOSS, 0, 50 - 9)
    # The run carries on from the cut, and all of it equals the oracle.
    check(run, [(50, [50], [50])], 7)


@pytest.mark.parametrize("raise_on", ["ack", "loss"])
@pytest.mark.parametrize("raise_at", [1, 2, 4])
def test_a_controller_that_raises_mid_run(raise_on, raise_at):
    """A raise inside a loss run leaves the members after it queued, as the
    oracle's per-packet detections are; the next run carries on from there."""
    run = config(queue_bytes=20_000, duration_s=0.2)
    first, resumed, second = check(run, [(30, [80, 3], [4], raise_at, raise_on)], 300)
    assert first[0] == "raised"
    assert first[1]["per_flow"][0]["calls"][-1][0] == raise_on
    assert first[1]["pending_events"] > 0 and isinstance(second[0], SimulationMetrics)
