"""Top-level network simulation wiring and metrics.

A :class:`NetworkSimulator` owns the event queue, one bottleneck link and a
set of flows, and routes deliveries back to the owning flow (a flow hears of
its drops from the link directly, as counts).  :class:`SimulationMetrics`
collects the two numbers the paper reports in §5.0.3 -- bandwidth utilisation
and average queueing delay -- plus throughput, loss rate and RTT statistics
per flow.

:meth:`NetworkSimulator.run` hands a fresh single-flow run on a loss-free
link -- every default cc search's -- to the fused loop in
:mod:`repro.netsim.fused`, one Python frame for the whole run.  Every other
run (several flows, random loss, a queue that already fired) takes the
classic per-event loop, which stays the general path and the oracle; both
fire the same events in the same order (see :mod:`repro.netsim.events`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netsim import fused
from repro.netsim.events import EventQueue
from repro.netsim.flow import CongestionController, Flow
from repro.netsim.link import DropTailLink, LinkConfig
from repro.netsim.packet import DEFAULT_MSS, Packet


@dataclass
class SimulationConfig:
    """Parameters of one emulation run (§5.0.3: 12 Mbps, 20 ms RTT)."""

    link: LinkConfig = field(default_factory=LinkConfig)
    duration_s: float = 10.0
    mss: int = DEFAULT_MSS
    #: Safety valve: maximum number of events processed before aborting.
    max_events: int = 2_000_000

    @property
    def duration_us(self) -> int:
        return int(self.duration_s * 1_000_000)


@dataclass
class FlowMetrics:
    """Per-flow results."""

    flow_id: int
    throughput_bps: float
    mean_rtt_ms: float
    packets_sent: int
    packets_acked: int
    packets_lost: int

    @property
    def loss_rate(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent


@dataclass
class SimulationMetrics:
    """Link-level and per-flow results of one run."""

    utilization: float
    mean_queueing_delay_ms: float
    p95_queueing_delay_ms: float
    loss_rate: float
    duration_s: float
    p99_queueing_delay_ms: float = 0.0
    flows: List[FlowMetrics] = field(default_factory=list)
    #: Logical events the run processed (a run of n tail-drops counts n).
    events: int = 0
    #: True when ``max_events`` stopped the run before ``duration_s``.
    truncated: bool = False

    def aggregate_throughput_bps(self) -> float:
        return sum(f.throughput_bps for f in self.flows)

    def jain_fairness(self, flow_ids: Optional[List[int]] = None) -> float:
        """Jain's fairness index over per-flow throughputs (1.0 = perfectly fair).

        ``flow_ids`` restricts the index to a subset of flows -- multi-flow
        scenarios measure fairness among the *candidate* flows only, so
        deliberately unfair cross traffic does not dominate the index.
        """
        rates = [
            f.throughput_bps
            for f in self.flows
            if flow_ids is None or f.flow_id in flow_ids
        ]
        if not rates or all(r == 0 for r in rates):
            return 1.0
        numerator = sum(rates) ** 2
        denominator = len(rates) * sum(r * r for r in rates)
        return numerator / denominator if denominator else 1.0


class NetworkSimulator:
    """Builds and runs one bottleneck-link scenario."""

    def __init__(self, config: Optional[SimulationConfig] = None):
        self.config = config or SimulationConfig()
        self.events = EventQueue()
        self.link = DropTailLink(self.events, self.config.link)
        self.link.set_delivery_callback(self._on_delivery)
        self._flows: Dict[int, Flow] = {}

    # -- construction ----------------------------------------------------------------

    def add_flow(
        self,
        controller: CongestionController,
        flow_id: Optional[int] = None,
        start_at_s: float = 0.0,
    ) -> Flow:
        """Create a flow using ``controller`` and schedule its start."""
        fid = flow_id if flow_id is not None else len(self._flows)
        if fid in self._flows:
            raise ValueError(f"duplicate flow id {fid}")
        flow = Flow(
            flow_id=fid,
            events=self.events,
            link=self.link,
            controller=controller,
            mss=self.config.mss,
        )
        self._flows[fid] = flow
        flow.start(at_us=int(start_at_s * 1_000_000))
        return flow

    @property
    def flows(self) -> List[Flow]:
        return list(self._flows.values())

    # -- link callbacks ----------------------------------------------------------------

    def _on_delivery(self, packet: Packet, now: int) -> None:
        flow = self._flows.get(packet.flow_id)
        if flow is not None:
            flow.handle_delivery(packet, now)

    # -- execution ------------------------------------------------------------------------

    def run(self) -> SimulationMetrics:
        """Run for the configured duration and return the metrics."""
        if not self._flows:
            raise ValueError("add at least one flow before running the simulation")
        duration_us = self.config.duration_us
        if fused.eligible(self):
            events = fused.run_until(self, duration_us, self.config.max_events)
        else:
            events = self.events.run_until(duration_us, max_events=self.config.max_events)
        for flow in self._flows.values():
            flow.stop()

        link_stats = self.link.stats
        p95, p99 = link_stats.queueing_delay_percentiles_ms(0.95, 0.99)
        flow_metrics = [
            FlowMetrics(
                flow_id=flow.flow_id,
                throughput_bps=flow.stats.throughput_bps(duration_us),
                mean_rtt_ms=flow.stats.mean_rtt_ms(),
                packets_sent=flow.stats.packets_sent,
                packets_acked=flow.stats.packets_acked,
                packets_lost=flow.stats.packets_lost,
            )
            for flow in self._flows.values()
        ]
        return SimulationMetrics(
            utilization=link_stats.utilization(self.config.link.rate_bps, duration_us),
            mean_queueing_delay_ms=link_stats.mean_queueing_delay_ms(),
            p95_queueing_delay_ms=p95,
            p99_queueing_delay_ms=p99,
            loss_rate=link_stats.loss_rate(),
            duration_s=self.config.duration_s,
            flows=flow_metrics,
            events=events,
            truncated=self.events.truncated,
        )


def run_single_flow(
    controller: CongestionController,
    config: Optional[SimulationConfig] = None,
) -> SimulationMetrics:
    """Convenience: one flow, one bottleneck, default §5 parameters."""
    simulator = NetworkSimulator(config)
    simulator.add_flow(controller)
    return simulator.run()
