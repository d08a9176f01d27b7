"""TCP-like flows driven by pluggable congestion controllers.

A :class:`Flow` keeps a congestion window (in packets), transmits while the
window allows, measures RTTs from acknowledgements, and delegates window
updates to a :class:`CongestionController`.  Loss is signalled when the
bottleneck queue drops a packet; detection is delayed by roughly one RTT to
model duplicate-ACK detection without simulating the full fast-retransmit
machinery (the dynamics that matter to a congestion controller -- multiplicative
reaction after about an RTT -- are preserved), and a flow reacts to at most
one loss per sRTT (fast-recovery semantics).

The controller also receives *history arrays*: per-RTT-interval summaries of
delivered bytes, average RTT and losses over the last 10 intervals, matching
the paper's cong_control Template (§5.0.1).

:class:`Flow` holds a flow's state; the event loop of
:mod:`repro.netsim.fused` applies these rules to it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Protocol


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
    """A long-running (bulk-transfer) flow's state through a bottleneck link."""

    MIN_CWND = 2
    MAX_CWND = 4096
    HISTORY_LENGTH = 10

    def __init__(self, flow_id: int, controller: CongestionController):
        self.flow_id = flow_id
        self.controller = controller
        self.stats = FlowStats()

        self.cwnd = max(self.MIN_CWND, int(controller.initial_cwnd()))
        self.inflight = 0
        self.next_seq = 0
        self.min_rtt_us = 0
        self.srtt_us = 0
        self.delivered_bytes = 0
        self._pending_losses = 0
        self._last_loss_reaction_us = -1

        # History-array bookkeeping.
        self._history: Deque[HistoryInterval] = deque(maxlen=self.HISTORY_LENGTH)
        self._history_list: List[HistoryInterval] = []  # rebuilt when an interval closes
        self._interval_start_us = 0
        self._interval_delivered = 0
        self._interval_rtt_sum = 0
        self._interval_rtt_count = 0
        self._interval_losses = 0
