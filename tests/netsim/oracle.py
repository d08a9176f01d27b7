"""The netsim's per-packet oracle (the counterpart of the DSL interpreter oracle).

:mod:`repro.netsim.fused` runs a whole simulation in one frame and accounts a
burst of losses as one event with a count.  :class:`ReferenceSimulator` is the
plain discrete-event version of the same rules, sharing none of that code: an
event queue that calls one handler per event, a link with one ``send`` per
packet, and a flow with one ``Packet``, one ``send`` and one loss-detection
event per packet sent.  Only the configs, stats and metrics come from
``src/``.  Every difference between the two is a bug in the fused loop.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict

from repro.netsim.flow import CCSignals, Flow, FlowStats, HistoryInterval
from repro.netsim.link import LinkStats
from repro.netsim.packet import Packet
from repro.netsim.simulator import NetworkSimulator, SimulationMetrics


class ReferenceLink:
    """A drop-tail FIFO: one random-loss draw per arriving packet, then the buffer."""

    def __init__(self, simulator: "ReferenceSimulator"):
        self.simulator, self.config = simulator, simulator.config.link
        self.stats = LinkStats()
        self.queue: deque = deque()
        self.queued_bytes = 0
        self.transmitting = False
        self.rng = random.Random(self.config.loss_seed) if self.config.loss_rate > 0 else None

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` now; False when it is dropped."""
        lost = self.rng is not None and self.rng.random() < self.config.loss_rate
        if lost or self.queued_bytes + packet.size > self.config.queue_bytes:
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            return False
        packet.enqueued_at = self.simulator.now
        self.queue.append(packet)
        self.queued_bytes += packet.size
        self.stats.enqueued_packets += 1
        if not self.transmitting:
            self._start_transmission()
        return True

    def _start_transmission(self) -> None:
        self.transmitting = bool(self.queue)
        if self.transmitting:
            packet = self.queue[0]
            packet.dequeued_at = self.simulator.now
            serialization = self.config.serialization_us(packet.size)
            self.stats.busy_us += serialization
            self.simulator.call_at(serialization, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.queue.popleft()
        self.queued_bytes -= packet.size
        self.stats.queueing_delays_us.append(max(0, packet.dequeued_at - packet.enqueued_at))
        self.simulator.call_at(self.config.one_way_delay_us, self._deliver, packet)
        self._start_transmission()

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size
        flow = self.simulator._flows[packet.flow_id]
        self.simulator.call_at(self.config.one_way_delay_us, flow.on_ack, packet)


class ReferenceFlow:
    """One event, one ``Packet`` and one ``send`` per packet sent."""

    def __init__(self, simulator: "ReferenceSimulator", flow_id: int, controller):
        self.simulator, self.flow_id, self.controller = simulator, flow_id, controller
        self.mss = simulator.config.mss
        self.stats = FlowStats()
        self.cwnd = max(Flow.MIN_CWND, int(controller.initial_cwnd()))
        self.inflight = self.next_seq = self.delivered_bytes = 0
        self.min_rtt_us = self.srtt_us = 0
        self._pending_losses = 0
        self._last_loss_reaction_us = -1
        self._history: deque = deque(maxlen=Flow.HISTORY_LENGTH)
        self._interval_start_us = self._interval_delivered = self._interval_losses = 0
        self._interval_rtt_sum = self._interval_rtt_count = 0

    def _gap(self) -> int:
        return self.srtt_us or 2 * self.simulator.config.link.one_way_delay_us

    def pump(self, _arg=None) -> None:
        """Send packets while the congestion window allows."""
        now = self.simulator.now
        while self.inflight < self.cwnd:
            packet = Packet(self.flow_id, self.next_seq, self.mss, now)
            self.next_seq += 1
            self.inflight += 1
            self.stats.packets_sent += 1
            if not self.simulator.link.send(packet):
                # Detected one RTT later (duplicate-ACK detection, abstracted).
                self.simulator.call_at(self._gap(), self.on_loss, packet)

    def _update(self, decide, acked_bytes: int, rtt_us: int, loss: bool) -> None:
        signals = CCSignals(
            now_us=self.simulator.now,
            cwnd_pkts=self.cwnd,
            mss=self.mss,
            acked_bytes=acked_bytes,
            inflight_pkts=self.inflight,
            inflight_bytes=self.inflight * self.mss,
            rtt_us=rtt_us,
            min_rtt_us=self.min_rtt_us,
            srtt_us=self.srtt_us,
            loss=loss,
            losses_since_last_ack=self._pending_losses,
            delivered_bytes=self.delivered_bytes,
            history=list(self._history),
        )
        if not loss:
            self._pending_losses = 0
        try:
            value = int(decide(signals))
        except (TypeError, ValueError):
            value = self.cwnd
        self.cwnd = max(Flow.MIN_CWND, min(Flow.MAX_CWND, value))
        self.stats.cwnd_trace.append((self.simulator.now, self.cwnd))

    def on_ack(self, packet: Packet) -> None:
        now = self.simulator.now
        rtt = max(1, now - packet.sent_at)
        self.inflight = max(0, self.inflight - 1)
        self.stats.packets_acked += 1
        self.stats.bytes_acked += packet.size
        self.stats.rtt_samples_us.append(rtt)
        self.delivered_bytes += packet.size
        if self.min_rtt_us == 0 or rtt < self.min_rtt_us:
            self.min_rtt_us = rtt
        self.srtt_us = rtt if self.srtt_us == 0 else (7 * self.srtt_us + rtt) // 8
        self._interval_delivered += packet.size
        self._interval_rtt_sum += rtt
        self._interval_rtt_count += 1
        if now - self._interval_start_us >= self._gap():  # close the history interval
            average = self._interval_rtt_sum // self._interval_rtt_count
            self._history.append(
                HistoryInterval(self._interval_delivered, average, self._interval_losses)
            )
            self._interval_start_us = now
            self._interval_delivered = self._interval_losses = 0
            self._interval_rtt_sum = self._interval_rtt_count = 0
        self._update(self.controller.on_ack, packet.size, rtt, loss=False)
        self.pump()

    def on_loss(self, _packet: Packet) -> None:
        now = self.simulator.now
        self.inflight = max(0, self.inflight - 1)
        self.stats.packets_lost += 1
        self._pending_losses += 1
        self._interval_losses += 1
        # React to at most one loss per sRTT (fast-recovery semantics).
        last = self._last_loss_reaction_us
        if last < 0 or now - last >= self._gap():
            self._last_loss_reaction_us = now
            self._update(self.controller.on_loss, 0, self.srtt_us, loss=True)
        self.pump()


class ReferenceSimulator(NetworkSimulator):
    """A :class:`NetworkSimulator` run by :class:`ReferenceFlow` s on a
    :class:`ReferenceLink`, one handler call per event."""

    def __init__(self, config=None):
        super().__init__(config)
        self.link = ReferenceLink(self)

    def call_at(self, delay_us: int, handler, arg) -> None:
        """Schedule ``handler(arg)`` ``delay_us`` from now, numbered in turn."""
        heappush(self._heap, (self.now + delay_us, self._next_number, handler, arg, 0))
        self._next_number += 1

    def add_flow(self, controller, flow_id=None, start_at_s: float = 0.0) -> ReferenceFlow:
        fid = len(self._flows) if flow_id is None else flow_id
        flow = self._flows[fid] = ReferenceFlow(self, fid, controller)
        self.call_at(max(0, int(start_at_s * 1_000_000) - self.now), flow.pump, None)
        return flow

    def run_until(self, end_us: int, max_events=None) -> int:
        processed, self.truncated = 0, False
        while self._heap and self._heap[0][0] <= end_us:
            if max_events is not None and processed >= max_events:
                self.truncated = True
                break
            self.now, _number, handler, arg, _run = heappop(self._heap)
            handler(arg)
            processed += 1
            self.processed += 1
        self.now = max(self.now, end_us)
        return processed


def observe(simulator: NetworkSimulator, metrics: SimulationMetrics) -> Dict[str, Any]:
    """Everything a finished run exposes that a netsim change could move."""
    link = simulator.link.stats
    return {
        "metrics": dataclasses.asdict(metrics),
        "events_processed": simulator.processed,
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
