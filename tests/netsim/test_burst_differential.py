"""Differential test: the fused event loop against the per-packet oracle.

Random window schedules drive :class:`~repro.netsim.simulator.NetworkSimulator`
(whose loop, :mod:`repro.netsim.fused`, accounts a burst of losses as one
event) and :class:`tests.netsim.oracle.ReferenceSimulator` (one event per
packet) through every topology the scenarios build: staggered candidate
flows, on/off cross traffic, random loss, long and zero delays, queues
smaller than a packet, controllers that raise, and a closing ``max_events``
valve after which the run is continued and run again.  Everything observable
-- metrics, stats, the event counts, queued events, and the exact sequence of
signals each controller was called with -- must be identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.flow import Flow
from repro.netsim.link import LinkConfig
from repro.netsim.simulator import NetworkSimulator, SimulationConfig, SimulationMetrics
from repro.workloads.netsim import CrossTrafficSpec
from tests.netsim.oracle import ReferenceSimulator, observe


class Raised(Exception):
    """What a :class:`ScheduleController` with ``raise_at`` raises."""


class ScheduleController:
    """Replays fixed window schedules and logs the signals it was called with;
    raises on its ``raise_at``-th call of kind ``raise_on``."""

    def __init__(
        self,
        initial: int,
        on_ack: Sequence[int],
        on_loss: Sequence[int],
        raise_at=None,
        raise_on="ack",
    ):
        self.initial = initial
        self.schedules = {"ack": on_ack, "loss": on_loss}
        self.calls: List[Tuple[Any, ...]] = []
        self.raise_at, self.raise_on, self.seen = raise_at, raise_on, 0

    def initial_cwnd(self) -> int:
        return self.initial

    def _next(self, kind: str, signals) -> int:
        schedule = self.schedules[kind]
        self.calls.append(
            (
                kind,
                signals.now_us,
                signals.cwnd_pkts,
                signals.inflight_pkts,
                signals.losses_since_last_ack,
                signals.srtt_us,
                signals.loss,
                # Every interval is the newest once, so the newest pins them all.
                len(signals.history),
                [(h.delivered_bytes, h.avg_rtt_us, h.losses) for h in signals.history[-1:]],
            )
        )
        self.seen += kind == self.raise_on
        if kind == self.raise_on and self.seen == self.raise_at:
            raise Raised(kind)
        return schedule[len(self.calls) % len(schedule)]

    def on_ack(self, signals) -> int:
        return self._next("ack", signals)

    def on_loss(self, signals) -> int:
        return self._next("loss", signals)


def _snapshot(simulator: NetworkSimulator, metrics) -> Dict[str, Any]:
    snapshot = observe(simulator, metrics)
    # Logical events still queued: a loss-run entry stands for its members.
    snapshot["pending_events"] = sum(entry[4] or 1 for entry in simulator._heap)
    snapshot["per_flow"] = [
        {
            "calls": list(getattr(flow.controller, "calls", ())),
            "cwnd_trace": list(flow.stats.cwnd_trace),
            "rtt_samples_us": list(flow.stats.rtt_samples_us),
            "pending_losses": flow._pending_losses,
            "interval_losses": flow._interval_losses,
            "next_seq": flow.next_seq,
        }
        for flow in simulator.flows
    ]
    for flow in simulator.flows:
        # Conservation: every packet sent is acked, lost or still in flight.
        assert flow.stats.packets_sent == (
            flow.stats.packets_acked + flow.stats.packets_lost + flow.inflight
        )
    return snapshot


_NO_METRICS = SimulationMetrics(0.0, 0.0, 0.0, 0.0, 0.0)


def _step(simulator, go):
    """``go()``: what it returned (or "raised"), and the snapshot after it."""
    try:
        value = go()
    except Raised:
        value = "raised"
    metrics = value if isinstance(value, SimulationMetrics) else _NO_METRICS
    return value, _snapshot(simulator, metrics)


def _run(simulator_class, config, flows, stagger_s, resume_budget, cross=()):
    """A run, its ``resume_budget`` continuation after the cut, and a second run."""
    simulator = simulator_class(config)
    for index, flow in enumerate(flows):
        simulator.add_flow(ScheduleController(*flow), start_at_s=index * stagger_s)
    for spec in cross:
        simulator.add_flow(spec.controller(), start_at_s=spec.start_s)
    first = _step(simulator, simulator.run)
    resumed = _step(simulator, lambda: simulator.run_until(config.duration_us, resume_budget))
    return first, resumed, _step(simulator, simulator.run)


def check(config, flows, resume_budget, stagger_s=0.0, cross=()):
    """The fused loop equals the per-packet oracle, step by step; returns its steps."""
    observed = _run(NetworkSimulator, config, flows, stagger_s, resume_budget, cross)
    assert observed == _run(ReferenceSimulator, config, flows, stagger_s, resume_budget, cross)
    return observed


def config(queue_bytes=60_000, mss=1448, rate_bps=12_000_000, one_way_delay_us=10_000, **run):
    fields = ("loss_rate", "loss_seed")
    link = {name: run.pop(name) for name in fields if name in run}
    link = LinkConfig(rate_bps, one_way_delay_us, queue_bytes, **link)
    return SimulationConfig(link=link, mss=mss, **{"duration_s": 0.1, **run})


_window = st.one_of(
    st.integers(min_value=-3, max_value=90),
    st.sampled_from([0, 1, 2, 3, 64, 700, Flow.MAX_CWND, Flow.MAX_CWND + 1, 10**6]),
)
_schedule = st.lists(_window, min_size=1, max_size=8)
# initial_cwnd() is not clamped from above, so keep it where the oracle can follow.
_flow = st.tuples(
    st.integers(min_value=-3, max_value=400),
    _schedule,
    _schedule,
    st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
    st.sampled_from(["ack", "loss"]),
)
_cross = st.builds(
    CrossTrafficSpec,
    window_high=st.integers(min_value=1, max_value=60),
    window_low=st.integers(min_value=1, max_value=4),
    period_s=st.sampled_from([0.001, 0.02]),
    duty=st.sampled_from([0.4, 1.0]),
    start_s=st.sampled_from([0.0, 0.004]),
)


@settings(max_examples=80, deadline=None)
@given(
    flows=st.lists(_flow, min_size=1, max_size=3),
    stagger_s=st.sampled_from([0.0, 0.004, 0.05]),
    cross=st.lists(_cross, max_size=1),
    queue_bytes=st.sampled_from([1_000, 3_000, 20_000, 60_000]),
    mss=st.sampled_from([50, 536, 1448, 1500]),
    rate_bps=st.sampled_from([1_000_000, 12_000_000, 1_000_000_000]),
    one_way_delay_us=st.sampled_from([0, 500, 10_000, 40_000]),
    loss_rate=st.sampled_from([0.0, 0.02, 0.3]),
    loss_seed=st.integers(min_value=0, max_value=3),
    max_events=st.one_of(st.just(6_000), st.integers(min_value=1, max_value=3_000)),
    resume_budget=st.integers(min_value=1, max_value=500),
)
def test_burst_flow_equals_the_per_packet_oracle(
    flows, stagger_s, cross, queue_bytes, mss, rate_bps, one_way_delay_us,
    loss_rate, loss_seed, max_events, resume_budget,
):  # fmt: skip
    run = config(
        queue_bytes, mss, rate_bps, one_way_delay_us,
        loss_rate=loss_rate, loss_seed=loss_seed, max_events=max_events,
    )  # fmt: skip
    check(run, flows, resume_budget, stagger_s, cross)


@pytest.mark.parametrize("max_events", [7, 5_000, 30_000])
def test_zero_delay_link_reacts_to_every_loss_like_the_oracle(max_events):
    """sRTT 0 and no propagation delay: the reaction gap is 0, so every loss of
    a run may react and the loop must fall back to one loss at a time."""
    run = config(queue_bytes=3_000, one_way_delay_us=0, duration_s=0.05, max_events=max_events)
    first, _resumed, _second = check(run, [(50, [40, 3, 90], [30, 2, 64, 5])], 100)
    assert [call[0] for call in first[1]["per_flow"][0]["calls"]].count("loss") > 1


def test_drops_before_the_first_admitted_packet_keep_their_place_in_line():
    """A random loss, then a packet that finds the transmitter idle: the loss is
    reported before the transmission is scheduled.  Here both fire at t = 1000 us
    (2 x 500 us detection delay == one 1500-byte serialisation at 12 Mbps) and
    the buffer holds two packets, so the order decides what the next send meets."""
    run = config(
        queue_bytes=3_000,
        mss=1500,
        one_way_delay_us=500,
        loss_rate=0.3,
        loss_seed=67,  # draws 0.07, then seven above 0.3: only the first packet is lost
        duration_s=0.02,
    )
    first, _resumed, _second = check(run, [(3, [3], [4])], 100)
    assert first[1]["per_flow"][0]["calls"][0][:2] == ("loss", 1000)


def test_history_is_a_snapshot_rebuilt_whenever_an_interval_closes():
    """``CCSignals.history`` is shared between the calls of one interval: it must
    still be what a fresh ``list(deque)`` per call would have been."""
    seen = []

    class Recorder(ScheduleController):
        def _next(self, kind, signals):
            seen.append((signals.history, list(signals.history), list(flow._history)))
            return super()._next(kind, signals)

    simulator = NetworkSimulator(SimulationConfig(duration_s=1.0))
    flow = simulator.add_flow(Recorder(10, [12, 20, 64], [8]))
    simulator.run()
    assert len(seen) > 1000
    assert all(shared == copy == live for shared, copy, live in seen)  # and never mutated since
    assert sorted({len(copy) for _shared, copy, _live in seen}) == list(range(1, 11))
