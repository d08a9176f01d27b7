"""The netsim's per-packet oracle (the counterpart of the DSL interpreter oracle).

:class:`repro.netsim.flow.Flow` accounts a burst of tail-drops as one event
with a count.  :class:`ReferenceFlow` is the flow it replaced, kept verbatim:
one ``Packet``, one ``_outstanding`` entry, one ``link.send`` and one
loss-detection event per packet sent.  Both run on the same event queue and
link, so every difference between them is a bug in the burst accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict
from unittest import mock

from repro.netsim import simulator as simulator_module
from repro.netsim.flow import Flow
from repro.netsim.packet import Packet
from repro.netsim.simulator import NetworkSimulator, SimulationMetrics


class ReferenceFlow(Flow):
    """One event, one ``Packet`` and one ``link.send`` per packet sent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._outstanding: Dict[int, Packet] = {}

    def _pump(self) -> None:
        """Send packets while the congestion window allows."""
        if not self.running:
            return
        while self.inflight < self.cwnd:
            packet = Packet(
                flow_id=self.flow_id,
                sequence=self.next_seq,
                size=self.mss,
                sent_at=self.events.now,
            )
            self.next_seq += 1
            self.inflight += 1
            self.stats.packets_sent += 1
            self._outstanding[packet.sequence] = packet
            self.link.send(packet)

    def handle_drop(self, packet: Packet, now: int) -> None:
        """The bottleneck dropped one of our packets; detect it one RTT later."""
        detection_delay = self.srtt_us or (2 * self.link.config.one_way_delay_us)
        self.events.schedule(
            self.events.now + detection_delay, lambda _now, p=packet: self._on_loss_detected(p)
        )

    def _on_ack(self, packet: Packet) -> None:
        if self._outstanding.pop(packet.sequence, None) is None:
            return  # already accounted as lost
        super()._on_ack(packet)

    def _on_loss_detected(self, packet: Packet) -> None:
        if not self.running:
            return
        if self._outstanding.pop(packet.sequence, None) is None:
            return
        self.inflight = max(0, self.inflight - 1)
        self.stats.packets_lost += 1
        self._pending_losses += 1
        self._interval_losses += 1
        # React to at most one loss event per RTT (fast-recovery semantics):
        # a burst of drops from one congestion episode causes one window
        # reduction, not one per packet.
        reaction_gap = self.srtt_us or (2 * self.link.config.one_way_delay_us)
        now = self.events.now
        if (
            self._last_loss_reaction_us < 0
            or now - self._last_loss_reaction_us >= reaction_gap
        ):
            self._last_loss_reaction_us = now
            signals = self._signals(acked_bytes=0, rtt_us=self.srtt_us, loss=True)
            self._apply_cwnd(self.controller.on_loss(signals))
        self._pump()


class ReferenceSimulator(NetworkSimulator):
    """A :class:`NetworkSimulator` whose flows are :class:`ReferenceFlow`."""

    def __init__(self, config=None):
        super().__init__(config)
        self.link.set_drop_callback(
            lambda packet, now: self._flows[packet.flow_id].handle_drop(packet, now)
        )

    def add_flow(self, *args, **kwargs) -> Flow:
        with mock.patch.object(simulator_module, "Flow", ReferenceFlow):
            return super().add_flow(*args, **kwargs)


def observe(simulator: NetworkSimulator, metrics: SimulationMetrics) -> Dict[str, Any]:
    """Everything a finished run exposes that a netsim change could move."""
    link = simulator.link.stats
    return {
        "metrics": dataclasses.asdict(metrics),
        "events_processed": simulator.events.processed,
        "link": {
            "enqueued_packets": link.enqueued_packets,
            "delivered_packets": link.delivered_packets,
            "dropped_packets": link.dropped_packets,
            "dropped_bytes": link.dropped_bytes,
            "busy_us": link.busy_us,
            "queueing_delay_sum_us": sum(link.queueing_delays_us),
        },
        "flows": [
            {
                "flow_id": flow.flow_id,
                "packets_sent": flow.stats.packets_sent,
                "packets_acked": flow.stats.packets_acked,
                "packets_lost": flow.stats.packets_lost,
                "inflight": flow.inflight,
                "cwnd": flow.cwnd,
                "cwnd_trace_len": len(flow.stats.cwnd_trace),
                "cwnd_trace_sum": sum(cwnd for _time, cwnd in flow.stats.cwnd_trace),
                "rtt_sum_us": sum(flow.stats.rtt_samples_us),
            }
            for flow in simulator.flows
        ],
    }
