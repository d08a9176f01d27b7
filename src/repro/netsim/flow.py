"""TCP-like flows driven by pluggable congestion controllers.

A :class:`Flow` keeps a congestion window (in packets), transmits while the
window allows, measures RTTs from acknowledgements, and delegates window
updates to a :class:`CongestionController`.  Loss is signalled when the
bottleneck queue drops a packet; detection is delayed by roughly one RTT to
model duplicate-ACK detection without simulating the full fast-retransmit
machinery (the dynamics that matter to a congestion controller -- multiplicative
reaction after about an RTT -- are preserved).

Burst rule: a window that outgrows BDP + buffer has thousands of packets
tail-dropped per RTT, all at one instant with one fate and one detection
time.  The flow offers them to the link in one call, hears of the refused
ones as a count, and schedules *one* loss-detection event for the run (see
:mod:`repro.netsim.events` for how a run keeps every other event's place).
Firing a run of n equals n per-packet detections each followed by a
``_pump``: within one instant the queue only fills and sRTT does not move,
so "loss, send, loss, send" and "n losses, send" offer the link the same
packets in the same order.

The controller also receives *history arrays*: per-RTT-interval summaries of
delivered bytes, average RTT and losses over the last 10 intervals, matching
the paper's cong_control Template (§5.0.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Protocol

from repro.netsim.events import EventQueue
from repro.netsim.link import DropTailLink
from repro.netsim.packet import DEFAULT_MSS, Packet


@dataclass
class HistoryInterval:
    """Smoothed metrics over one RTT-sized interval (the Template's history)."""

    delivered_bytes: int
    avg_rtt_us: int
    losses: int


@dataclass
class CCSignals:
    """Everything a congestion controller may look at when updating cwnd.

    All values are integers (microseconds, bytes, packets) so that
    kernel-style integer-only controllers can be expressed directly.
    """

    now_us: int
    cwnd_pkts: int
    mss: int
    acked_bytes: int
    inflight_pkts: int
    inflight_bytes: int
    rtt_us: int
    min_rtt_us: int
    srtt_us: int
    loss: bool
    losses_since_last_ack: int
    delivered_bytes: int
    history: List[HistoryInterval] = field(default_factory=list)


class CongestionController(Protocol):
    """Window-update policy attached to a flow."""

    def initial_cwnd(self) -> int:  # pragma: no cover - protocol
        ...

    def on_ack(self, signals: CCSignals) -> int:  # pragma: no cover - protocol
        """Return the new congestion window (in packets) after an ACK."""
        ...

    def on_loss(self, signals: CCSignals) -> int:  # pragma: no cover - protocol
        """Return the new congestion window (in packets) after a loss."""
        ...


@dataclass
class FlowStats:
    """Per-flow counters."""

    packets_sent: int = 0
    packets_acked: int = 0
    packets_lost: int = 0
    bytes_acked: int = 0
    rtt_samples_us: List[int] = field(default_factory=list)
    cwnd_trace: List[tuple] = field(default_factory=list)  # (time_us, cwnd)

    def mean_rtt_ms(self) -> float:
        if not self.rtt_samples_us:
            return 0.0
        return sum(self.rtt_samples_us) / len(self.rtt_samples_us) / 1000.0

    def throughput_bps(self, duration_us: int) -> float:
        if duration_us <= 0:
            return 0.0
        return self.bytes_acked * 8 * 1_000_000 / duration_us


class Flow:
    """A long-running (bulk-transfer) flow through a bottleneck link."""

    MIN_CWND = 2
    MAX_CWND = 4096

    def __init__(
        self,
        flow_id: int,
        events: EventQueue,
        link: DropTailLink,
        controller: CongestionController,
        mss: int = DEFAULT_MSS,
        ack_delay_us: Optional[int] = None,
        history_length: int = 10,
    ):
        self.flow_id = flow_id
        self.events = events
        self.link = link
        self.controller = controller
        self.mss = mss
        # ACKs return over an uncongested reverse path with the same
        # propagation delay as the forward path unless told otherwise.
        self.ack_delay_us = (
            ack_delay_us if ack_delay_us is not None else link.config.one_way_delay_us
        )
        self.stats = FlowStats()

        self.cwnd = max(self.MIN_CWND, int(controller.initial_cwnd()))
        self.inflight = 0
        self.next_seq = 0
        self.min_rtt_us = 0
        self.srtt_us = 0
        self.delivered_bytes = 0
        self.running = False

        self._pending_losses = 0
        self._last_loss_reaction_us = -1

        # History-array bookkeeping.
        self._history: Deque[HistoryInterval] = deque(maxlen=history_length)
        self._history_list: List[HistoryInterval] = []  # rebuilt when an interval closes
        self._interval_start_us = 0
        self._interval_delivered = 0
        self._interval_rtt_sum = 0
        self._interval_rtt_count = 0
        self._interval_losses = 0

    # -- lifecycle -------------------------------------------------------------------

    def start(self, at_us: int = 0) -> None:
        self.running = True
        self.events.schedule(max(at_us, self.events.now), lambda _now: self._pump())

    def stop(self) -> None:
        self.running = False

    # -- transmission ------------------------------------------------------------------

    def _pump(self) -> None:
        """Offer the link every packet the congestion window allows, in one call."""
        if not self.running:
            return
        count = self.cwnd - self.inflight
        if count <= 0:
            return
        first = self.next_seq
        self.next_seq += count
        self.inflight += count
        self.stats.packets_sent += count
        self.link.send_burst(self.flow_id, first, self.mss, count, self._on_drops)

    # -- signal plumbing (called by the simulator and the link) ------------------------------

    def handle_delivery(self, packet: Packet, now: int) -> None:
        """A data packet reached the receiver; its acknowledgement is one event."""
        self.events.call_at(now + self.ack_delay_us, self._on_ack, packet)

    def _on_drops(self, count: int) -> None:
        """The bottleneck refused ``count`` packets in a row; detect them one RTT later."""
        detection_delay = self.srtt_us or (2 * self.link.config.one_way_delay_us)
        self.events.call_at(
            self.events.now + detection_delay, self._on_losses_detected, None, run=count
        )

    # -- ACK / loss processing ----------------------------------------------------------------

    def _signals(self, acked_bytes: int, rtt_us: int, loss: bool) -> CCSignals:
        return CCSignals(
            now_us=self.events.now,
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
            history=self._history_list,
        )

    def _apply_cwnd(self, new_cwnd: int) -> None:
        try:
            value = int(new_cwnd)
        except (TypeError, ValueError):
            value = self.cwnd
        self.cwnd = max(self.MIN_CWND, min(self.MAX_CWND, value))
        self.stats.cwnd_trace.append((self.events.now, self.cwnd))

    def _on_ack(self, packet: Packet) -> None:
        """The ACK of delivered ``packet`` arrived (ACKs are not packets of their own)."""
        if not self.running:
            return
        now = self.events.now
        size = packet.size
        rtt = max(1, now - packet.sent_at)
        self.inflight = max(0, self.inflight - 1)
        self.stats.packets_acked += 1
        self.stats.bytes_acked += size
        self.stats.rtt_samples_us.append(rtt)
        self.delivered_bytes += size
        if self.min_rtt_us == 0 or rtt < self.min_rtt_us:
            self.min_rtt_us = rtt
        self.srtt_us = rtt if self.srtt_us == 0 else (7 * self.srtt_us + rtt) // 8
        self._interval_delivered += size
        self._interval_rtt_sum += rtt
        self._interval_rtt_count += 1
        self._roll_history()

        signals = self._signals(acked_bytes=size, rtt_us=rtt, loss=False)
        self._pending_losses = 0
        self._apply_cwnd(self.controller.on_ack(signals))
        self._pump()

    def _on_losses_detected(self, count: int) -> None:
        """``count`` packets of one refused run are detected lost at this instant."""
        if not self.running:
            return
        # React to at most one loss event per RTT (fast-recovery semantics):
        # a burst of drops from one congestion episode causes one window
        # reduction, not one per packet.
        reaction_gap = self.srtt_us or (2 * self.link.config.one_way_delay_us)
        now = self.events.now
        while count:
            reacts = (
                self._last_loss_reaction_us < 0
                or now - self._last_loss_reaction_us >= reaction_gap
            )
            # A loss that may react is taken alone; after it nothing reacts
            # until the gap has passed, so the rest go in one step (a zero
            # gap lets every loss react: one at a time).
            lost = 1 if reacts else count
            count -= lost
            self.inflight = max(0, self.inflight - lost)
            self.stats.packets_lost += lost
            self._pending_losses += lost
            self._interval_losses += lost
            if reacts:
                self._last_loss_reaction_us = now
                signals = self._signals(acked_bytes=0, rtt_us=self.srtt_us, loss=True)
                self._apply_cwnd(self.controller.on_loss(signals))
            self._pump()

    # -- history arrays ------------------------------------------------------------------------

    def _roll_history(self) -> None:
        """Close the current RTT interval when it has lasted at least one sRTT."""
        interval = self.srtt_us or (2 * self.link.config.one_way_delay_us)
        if self.events.now - self._interval_start_us < interval:
            return
        avg_rtt = (
            self._interval_rtt_sum // self._interval_rtt_count
            if self._interval_rtt_count
            else self.srtt_us
        )
        self._history.append(
            HistoryInterval(
                delivered_bytes=self._interval_delivered,
                avg_rtt_us=avg_rtt,
                losses=self._interval_losses,
            )
        )
        self._history_list = list(self._history)
        self._interval_start_us = self.events.now
        self._interval_delivered = 0
        self._interval_rtt_sum = 0
        self._interval_rtt_count = 0
        self._interval_losses = 0
