"""Differential test: the fused single-flow loop against the per-packet oracle.

Only a fresh single-flow run on a loss-free drop-tail link takes
:mod:`repro.netsim.fused`, so every input here has that shape (the
multi-flow, lossy inputs of ``test_burst_differential`` mostly miss it).
Each run is compared with :class:`tests.netsim.oracle.ReferenceSimulator` on
everything observable, and with the classic loop on the same flow on every
field either loop writes, queued entries included.  A cut run is continued
by the classic loop (``resume_budget``) and then run again, as in the burst
differential.
"""

from __future__ import annotations

import contextlib
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import fused
from repro.netsim.flow import Flow
from repro.netsim.link import LinkConfig
from repro.netsim.simulator import NetworkSimulator, SimulationConfig, SimulationMetrics
from tests.netsim.oracle import ReferenceSimulator
from tests.netsim.test_burst_differential import ScheduleController, _snapshot


class Raised(Exception):
    """What a :class:`RaisingController` raises."""


class RaisingController(ScheduleController):
    """A window schedule that raises on its ``raise_at``-th call of kind ``raise_on``."""

    def __init__(self, initial, on_ack, on_loss, raise_at=None, raise_on="ack"):
        super().__init__(initial, on_ack, on_loss)
        self.raise_at, self.raise_on, self.seen = raise_at, raise_on, 0

    def _next(self, kind, signals):
        window = super()._next(kind, signals)
        self.seen += kind == self.raise_on
        if kind == self.raise_on and self.seen == self.raise_at:
            raise Raised(kind)
        return window


_NO_METRICS = SimulationMetrics(0.0, 0.0, 0.0, 0.0, 0.0)


def _state(simulator):
    """Every field the two loops write, queued entries by handler name."""

    def plain(fields, *skip):
        return {
            k: list(v) if isinstance(v, deque) else v for k, v in fields.items() if k not in skip
        }

    (flow,) = simulator.flows
    heap = [(t, n, getattr(h, "__name__", h), a, r) for t, n, h, a, r in simulator.events._heap]
    return (
        plain(vars(simulator.events), "_heap"),
        heap,
        plain(vars(flow), "events", "link", "controller"),
        plain(vars(simulator.link), "events", "_on_delivery", "_on_drop"),
        flow.controller.calls,
    )


def _step(simulator, go):
    """``go()``: what it returned (or "raised"), the snapshot, every field."""
    try:
        value = go()
    except Raised:
        value = "raised"
    metrics = value if isinstance(value, SimulationMetrics) else _NO_METRICS
    return value, _snapshot(simulator, metrics), _state(simulator)


def _run(simulator_class, config, flow, resume_budget, classic=False):
    """A run, its classic ``resume_budget`` continuation, and a second run."""
    simulator = simulator_class(config)
    simulator.add_flow(RaisingController(*flow))
    assert fused.eligible(simulator) is (simulator_class is NetworkSimulator)
    forced = mock.patch.object(fused, "eligible", return_value=False)
    with forced if classic else contextlib.nullcontext():
        first = _step(simulator, simulator.run)
        simulator.flows[0].running = True
        resumed = _step(
            simulator,
            lambda: simulator.events.run_until(config.duration_us, max_events=resume_budget),
        )
        assert not fused.eligible(simulator)  # it has fired events
        second = _step(simulator, simulator.run)
    return first, resumed, second


def _check(config, flow, resume_budget):
    """Fused == oracle on what is observable, == classic loop on every field."""
    observed = _run(NetworkSimulator, config, flow, resume_budget)
    classic = _run(NetworkSimulator, config, flow, resume_budget, classic=True)
    assert observed == classic
    if len(flow) < 5 or flow[4] == "ack":
        # A loss-run member that raises drops the rest of its run; the
        # oracle's per-packet detections stay queued.  So only ACK raises here.
        oracle = _run(ReferenceSimulator, config, flow, resume_budget)
        assert [step[:2] for step in observed] == [step[:2] for step in oracle]
    return observed


def _config(queue_bytes=60_000, mss=1448, rate_bps=12_000_000, one_way_delay_us=10_000, **run):
    link = LinkConfig(rate_bps=rate_bps, one_way_delay_us=one_way_delay_us, queue_bytes=queue_bytes)
    return SimulationConfig(link=link, mss=mss, **{"duration_s": 0.1, **run})


_window = st.one_of(
    st.integers(min_value=-3, max_value=90),
    st.sampled_from([0, 1, 2, 3, 64, 700, Flow.MAX_CWND, Flow.MAX_CWND + 1, 10**6]),
)
_schedule = st.lists(_window, min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(
    initial=st.integers(min_value=-3, max_value=400),
    on_ack=_schedule,
    on_loss=_schedule,
    raise_at=st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
    queue_bytes=st.sampled_from([1_000, 3_000, 20_000, 60_000]),
    mss=st.sampled_from([50, 536, 1448, 1500]),
    rate_bps=st.sampled_from([1_000_000, 12_000_000, 1_000_000_000]),
    one_way_delay_us=st.sampled_from([0, 500, 10_000]),
    max_events=st.one_of(st.just(6_000), st.integers(min_value=1, max_value=3_000)),
    resume_budget=st.integers(min_value=1, max_value=500),
)
def test_fused_single_flow_equals_the_oracle_and_the_classic_loop(
    initial, on_ack, on_loss, raise_at, queue_bytes, mss, rate_bps, one_way_delay_us,
    max_events, resume_budget,
):  # fmt: skip
    config = _config(queue_bytes, mss, rate_bps, one_way_delay_us, max_events=max_events)
    _check(config, (initial, on_ack, on_loss, raise_at), resume_budget)


@pytest.mark.parametrize("max_events", [5, 400, 20_000])
def test_zero_delay_and_a_queue_smaller_than_a_packet(max_events):
    """Nothing is ever admitted and sRTT stays 0: every loss may react."""
    config = _config(queue_bytes=1_000, one_way_delay_us=0, max_events=max_events)
    first, _resumed, _second = _check(config, (50, [40, 3, 90], [30, 2, 64, 5]), 100)
    calls = first[1]["per_flow"][0]["calls"]
    assert calls and {call[0] for call in calls} == {"loss"}


@pytest.mark.parametrize(
    "windows", [[-3, 0, 1], [Flow.MAX_CWND], [Flow.MAX_CWND + 1, 10**6], [10**6, 2]]
)
def test_negative_clamped_and_huge_window_schedules(windows):
    config = _config(queue_bytes=3_000, duration_s=0.05, max_events=20_000)
    first, _resumed, _second = _check(config, (10**4, windows, windows[::-1]), 50)
    assert isinstance(first[0], SimulationMetrics)
    assert all(2 <= cwnd <= Flow.MAX_CWND for _t, cwnd in first[1]["per_flow"][0]["cwnd_trace"])


def test_a_valve_cut_inside_a_loss_run_requeues_the_rest_under_its_numbers():
    """50 packets, none admitted: one run of 50 detections; the valve lets 9 fire."""
    config = _config(queue_bytes=1_000, one_way_delay_us=500, max_events=10)
    simulator = NetworkSimulator(config)
    simulator.add_flow(ScheduleController(50, [50], [50]))
    metrics = simulator.run()
    assert metrics.truncated and metrics.events == simulator.events.processed == 10
    detect = simulator.flows[0]._on_losses_detected
    assert simulator.events._heap[0] == (2 * 500, 1 + 9, detect, None, 50 - 9)
    # The classic loop carries on from the cut, and all of it equals the oracle.
    _check(config, (50, [50], [50]), 7)


@pytest.mark.parametrize("raise_on", ["ack", "loss"])
@pytest.mark.parametrize("raise_at", [1, 2, 4])
def test_a_controller_that_raises_mid_run(raise_on, raise_at):
    config = _config(queue_bytes=20_000, duration_s=0.2)
    first, resumed, second = _check(config, (30, [80, 3], [4], raise_at, raise_on), 300)
    assert first[0] == "raised"
    assert first[1]["per_flow"][0]["calls"][-1][0] == raise_on
    assert first[1]["pending_events"] > 0 and isinstance(second[0], SimulationMetrics)
