"""Top-level network simulation wiring and metrics.

A :class:`NetworkSimulator` owns one bottleneck link, a set of flows and the
event queue that :func:`repro.netsim.fused.run_until` fires, one Python frame
per run whatever the topology.  :class:`SimulationMetrics` collects the two
numbers the paper reports in §5.0.3 -- bandwidth utilisation and average
queueing delay -- plus throughput, loss rate and RTT statistics per flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Dict, List, Optional

from repro.netsim import fused
from repro.netsim.flow import CongestionController, Flow
from repro.netsim.link import DropTailLink, LinkConfig
from repro.netsim.packet import DEFAULT_MSS


@dataclass
class SimulationConfig:
    """Parameters of one emulation run (§5.0.3: 12 Mbps, 20 ms RTT), checked when built."""

    link: LinkConfig = field(default_factory=LinkConfig)
    duration_s: float = 10.0
    mss: int = DEFAULT_MSS
    #: Safety valve: maximum number of events processed before aborting.
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        if not self.mss > 0:
            raise ValueError(f"mss must be positive, got {self.mss!r}")
        if not self.max_events >= 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events!r}")

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
        self.link = DropTailLink(self.config.link)
        self._flows: Dict[int, Flow] = {}
        #: Events as ``(time, number, kind, arg, run)`` (see :mod:`repro.netsim.fused`).
        self._heap: List[tuple] = []
        self._next_number = 0
        self.now = 0
        #: Events fired so far (a loss run of n counts n).
        self.processed = 0
        #: True when ``max_events`` stopped the last run short of its horizon.
        self.truncated = False

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
        flow = self._flows[fid] = Flow(fid, controller)
        start_us = max(int(start_at_s * 1_000_000), self.now)
        heappush(self._heap, (start_us, self._next_number, fused.START, fid, 0))
        self._next_number += 1
        return flow

    @property
    def flows(self) -> List[Flow]:
        return list(self._flows.values())

    def run_until(self, end_us: int, max_events: Optional[int] = None) -> int:
        """Fire the events up to ``end_us``, at most ``max_events`` of them, and
        return how many fired; a run the valve cut carries on from the cut."""
        return fused.run_until(self, end_us, max_events)

    def run(self) -> SimulationMetrics:
        """Run for the configured duration and return the metrics."""
        if not self._flows:
            raise ValueError("add at least one flow before running the simulation")
        duration_us = self.config.duration_us
        events = self.run_until(duration_us, self.config.max_events)

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
            truncated=self.truncated,
        )


def run_single_flow(
    controller: CongestionController,
    config: Optional[SimulationConfig] = None,
) -> SimulationMetrics:
    """Convenience: one flow, one bottleneck, default §5 parameters."""
    simulator = NetworkSimulator(config)
    simulator.add_flow(controller)
    return simulator.run()
