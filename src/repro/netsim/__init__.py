"""Discrete-event network simulator (the Mahimahi / testbed stand-in).

The congestion-control case study (§5 of the paper) evaluates candidates on
an emulated 12 Mbps, 20 ms link.  This package provides the equivalent
simulation substrate:

* :mod:`repro.netsim.packet` -- packets (an ACK is an event, not a packet),
* :mod:`repro.netsim.link` -- a bottleneck link with a drop-tail queue,
  serialisation delay, propagation delay and optional random loss,
* :mod:`repro.netsim.flow` -- TCP-like senders driven by a pluggable
  congestion controller,
* :mod:`repro.netsim.fused` -- the event loop that runs them, one Python
  frame per run, and the event-ordering rules it keeps,
* :mod:`repro.netsim.simulator` -- wiring plus per-run metrics (utilisation,
  mean/percentile queueing delay, throughput, losses).

Time is measured in integer microseconds throughout, which keeps the
kernel-style (integer-only) congestion controllers honest.
"""

from repro.netsim.packet import Packet
from repro.netsim.link import DropTailLink, LinkConfig
from repro.netsim.flow import CongestionController, Flow, FlowStats
from repro.netsim.simulator import NetworkSimulator, SimulationConfig, SimulationMetrics

__all__ = [
    "Packet",
    "DropTailLink",
    "LinkConfig",
    "CongestionController",
    "Flow",
    "FlowStats",
    "NetworkSimulator",
    "SimulationConfig",
    "SimulationMetrics",
]
