"""Bottleneck link with a drop-tail queue.

The link models what Mahimahi's ``mm-link`` emulates for the paper's §5
experiments: a fixed-rate bottleneck (12 Mbps), a one-way propagation delay
(10 ms each way for a 20 ms RTT), and a finite FIFO buffer that drops
arriving packets when full.

Serialisation is modelled exactly: each packet occupies the transmitter for
``size * 8 / rate`` seconds (rounded to whole microseconds), and the queueing
delay of a packet is the time between its arrival and the moment it starts
being serialised.  :class:`DropTailLink` holds the link's state; the event
loop of :mod:`repro.netsim.fused` moves packets through it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.netsim.packet import Packet


@dataclass
class LinkConfig:
    """Static parameters of a bottleneck link, checked when built.

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

    def __post_init__(self) -> None:
        if not self.rate_bps > 0:
            raise ValueError(f"rate_bps must be positive, got {self.rate_bps!r}")
        delay = self.one_way_delay_us
        if type(delay) is not int or delay < 0:
            raise ValueError(f"one_way_delay_us must be an int >= 0, got {delay!r}")
        if not self.queue_bytes >= 0:
            raise ValueError(f"queue_bytes must be >= 0, got {self.queue_bytes!r}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate!r}")

    def serialization_us(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire, rounded to whole
        microseconds; the loop clocks the link at this rounded time."""
        return int(round(size_bytes * 8 * 1_000_000 / self.rate_bps))

    def bdp_bytes(self, rtt_us: Optional[int] = None) -> int:
        """Bandwidth-delay product for ``rtt_us`` (defaults to 2x one-way delay)
        at the nominal rate; the loop clocks the rounded :meth:`serialization_us`."""
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
        """Delivered over nominal capacity; the loop clocks the rounded
        :meth:`LinkConfig.serialization_us`, so a busy link may read below 1.0."""
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
    """A FIFO bottleneck's state: the queue (head on the wire), its bytes, the loss RNG.

    The transmitter is busy exactly while the queue holds a packet.
    """

    def __init__(self, config: Optional[LinkConfig] = None):
        self.config = config or LinkConfig()
        self.stats = LinkStats()
        self._queue: Deque[Packet] = deque()
        self._queued_bytes = 0
        # Link-local RNG: every simulator instance replays the same loss
        # pattern for its seed, independent of any global random state.
        self._loss_rng: Optional[random.Random] = (
            random.Random(self.config.loss_seed) if self.config.loss_rate > 0 else None
        )
