"""Bottleneck link with a drop-tail queue.

The link models what Mahimahi's ``mm-link`` emulates for the paper's §5
experiments: a fixed-rate bottleneck (12 Mbps), a one-way propagation delay
(10 ms each way for a 20 ms RTT), and a finite FIFO buffer that drops
arriving packets when full.

Serialisation is modelled exactly: each packet occupies the transmitter for
``size * 8 / rate`` seconds, and the queueing delay of a packet is the time
between its arrival and the moment it starts being serialised.

Burst rule: a flow offers a whole window's worth of packets in one
:meth:`DropTailLink.send_burst` call; the link applies the per-packet admit
rule in order (one loss-RNG draw per offered packet) but builds only the
packets it admits and reports the refused ones as counts, one count per run
of drops between which the link scheduled nothing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro.netsim.events import EventQueue
from repro.netsim.packet import Packet

#: Callback invoked when a packet pops out of the far end of the link.
DeliveryCallback = Callable[[Packet, int], None]
#: Callback invoked when the queue drops a packet offered through ``send``.
DropCallback = Callable[[Packet, int], None]


@dataclass
class LinkConfig:
    """Static parameters of a bottleneck link.

    ``loss_rate`` adds random (non-congestive) loss: each arriving packet is
    independently dropped with this probability *before* it reaches the
    queue, emulating a lossy last hop (wireless, long-haul).  The loss
    process is driven by the link's own ``random.Random(loss_seed)`` so runs
    are deterministic and no module-global RNG state is shared across
    workers.
    """

    rate_bps: int = 12_000_000          # 12 Mbps, as in §5.0.3
    one_way_delay_us: int = 10_000      # 10 ms each way -> 20 ms RTT
    queue_bytes: int = 60_000           # ~1.6 bandwidth-delay products
    loss_rate: float = 0.0              # random loss probability in [0, 1)
    loss_seed: int = 0                  # seed of the link-local loss RNG

    def serialization_us(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire, in microseconds."""
        return int(round(size_bytes * 8 * 1_000_000 / self.rate_bps))

    def bdp_bytes(self, rtt_us: Optional[int] = None) -> int:
        """Bandwidth-delay product for ``rtt_us`` (defaults to 2x one-way delay)."""
        rtt = rtt_us if rtt_us is not None else 2 * self.one_way_delay_us
        return int(self.rate_bps * rtt / 8 / 1_000_000)


@dataclass
class LinkStats:
    """Counters accumulated by a link over a run."""

    enqueued_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0
    queueing_delays_us: List[int] = field(default_factory=list)
    busy_us: int = 0

    def mean_queueing_delay_ms(self) -> float:
        if not self.queueing_delays_us:
            return 0.0
        return sum(self.queueing_delays_us) / len(self.queueing_delays_us) / 1000.0

    def queueing_delay_percentiles_ms(self, *fractions: float) -> List[float]:
        """The delay at each of ``fractions`` of the samples, from one sort."""
        if not self.queueing_delays_us:
            return [0.0] * len(fractions)
        ordered = sorted(self.queueing_delays_us)
        last = len(ordered) - 1
        return [ordered[min(last, int(f * len(ordered)))] / 1000.0 for f in fractions]

    def utilization(self, rate_bps: int, duration_us: int) -> float:
        if duration_us <= 0:
            return 0.0
        capacity_bytes = rate_bps * duration_us / 8 / 1_000_000
        if capacity_bytes <= 0:
            return 0.0
        return min(1.0, self.delivered_bytes / capacity_bytes)

    def loss_rate(self) -> float:
        total = self.enqueued_packets + self.dropped_packets
        if total == 0:
            return 0.0
        return self.dropped_packets / total


class DropTailLink:
    """FIFO bottleneck link bound to an :class:`EventQueue`."""

    def __init__(
        self,
        events: EventQueue,
        config: Optional[LinkConfig] = None,
        on_delivery: Optional[DeliveryCallback] = None,
        on_drop: Optional[DropCallback] = None,
        name: str = "bottleneck",
    ):
        self.events = events
        self.config = config or LinkConfig()
        if not 0.0 <= self.config.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1), got {self.config.loss_rate}"
            )
        self.name = name
        self.stats = LinkStats()
        self._on_delivery = on_delivery
        self._on_drop = on_drop
        self._queue: Deque[Packet] = deque()
        self._queued_bytes = 0
        self._transmitting = False
        # Link-local RNG: every simulator instance replays the same loss
        # pattern for its seed, independent of any global random state.
        self._loss_rng: Optional[random.Random] = (
            random.Random(self.config.loss_seed) if self.config.loss_rate > 0 else None
        )

    # -- wiring -------------------------------------------------------------------

    def set_delivery_callback(self, callback: DeliveryCallback) -> None:
        self._on_delivery = callback

    def set_drop_callback(self, callback: DropCallback) -> None:
        self._on_drop = callback

    # -- datapath --------------------------------------------------------------------

    def _refuses(self, size: int) -> bool:
        """The admit rule: one random-loss draw per arriving packet, then drop-tail."""
        if self._loss_rng is not None and self._loss_rng.random() < self.config.loss_rate:
            return True
        return self._queued_bytes + size > self.config.queue_bytes

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link at the current simulation time.

        Returns False (and reports a drop) if the buffer cannot hold it.
        """
        if self._refuses(packet.size):
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            if self._on_drop is not None:
                self._on_drop(packet, self.events.now)
            return False
        self._enqueue(packet)
        return True

    def send_burst(
        self,
        flow_id: int,
        sequence: int,
        size: int,
        count: int,
        on_drops: Callable[[int], None],
    ) -> None:
        """Offer ``count`` back-to-back ``size``-byte packets of one flow.

        Equal to ``count`` :meth:`send` calls in sequence order, with drops
        reported as ``on_drops(n)`` for ``n`` refusals in a row.  Only an
        admitted packet that finds the transmitter idle schedules an event,
        so the drops before it are reported first.  Without random loss the
        queue only fills within an instant: after the first refusal the rest
        of the burst is one tail-drop run, at no per-packet cost.
        """
        now = self.events.now
        dropped = 0
        for offset in range(count):
            if self._refuses(size):
                if self._loss_rng is None:
                    dropped = count - offset
                    break
                dropped += 1
                continue
            if dropped and not self._transmitting:
                self._report_drops(dropped, size, on_drops)
                dropped = 0
            self._enqueue(Packet(flow_id, sequence + offset, size, now))
        if dropped:
            self._report_drops(dropped, size, on_drops)

    def _report_drops(self, count: int, size: int, on_drops: Callable[[int], None]) -> None:
        self.stats.dropped_packets += count
        self.stats.dropped_bytes += count * size
        on_drops(count)

    def _enqueue(self, packet: Packet) -> None:
        packet.enqueued_at = self.events.now
        self._queue.append(packet)
        self._queued_bytes += packet.size
        self.stats.enqueued_packets += 1
        if not self._transmitting:
            self._start_transmission()

    def _start_transmission(self) -> None:
        if not self._queue:
            self._transmitting = False
            return
        self._transmitting = True
        packet = self._queue[0]
        now = self.events.now
        packet.dequeued_at = now
        serialization = self.config.serialization_us(packet.size)
        self.stats.busy_us += serialization
        self.events.call_at(now + serialization, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self._queue.popleft()
        self._queued_bytes -= packet.size
        self.stats.queueing_delays_us.append(packet.queueing_delay_us())
        self.events.call_at(
            self.events.now + self.config.one_way_delay_us, self._deliver, packet
        )
        self._start_transmission()

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size
        if self._on_delivery is not None:
            self._on_delivery(packet, self.events.now)
