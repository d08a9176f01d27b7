"""Packets exchanged between flows and links."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Packet:
    """A data packet (its acknowledgement is an event, not a packet of its own).

    Attributes
    ----------
    flow_id:
        Which flow the packet belongs to (links are shared).
    sequence:
        Per-flow sequence number of the data packet.
    size:
        Payload + header size in bytes.
    sent_at:
        Time the packet left the sender, in microseconds.
    enqueued_at / dequeued_at:
        Set by the link; their difference is the packet's queueing delay.
    """

    flow_id: int
    sequence: int
    size: int
    sent_at: int
    enqueued_at: int = 0
    dequeued_at: int = 0


#: Conventional Ethernet-ish maximum segment size used by the flows.
DEFAULT_MSS = 1448
