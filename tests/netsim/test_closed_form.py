"""The netsim against closed forms, not against itself.

Every other netsim test compares the simulator with a recording of itself
(``golden_netsim.json``) or with a per-packet re-implementation of the same
rules (``oracle.py``); a rule both share would pass them all.  These checks
compute their expectation from queueing theory and TCP modelling instead:

* **Little's law.**  A fixed window of ``W`` packets above the
  bandwidth-delay product, on a buffer deep enough never to drop, keeps the
  link busy and parks ``W * mss - BDP`` bytes in the queue, so every packet
  waits ``backlog / rate`` -- less the one serialisation time the packet
  ahead of it spends on the wire (``rate`` being the rate at which the link
  clocks whole-microsecond serialisations).
* **Mathis et al. (1997).**  Reno under independent random loss ``p`` sends
  ``(mss / RTT) * sqrt(3 / (2 p))`` on average.  The law ignores slow start,
  timeouts and the loss-detection delay, so the simulator is held to a band
  stated here, before any run: 0.9x to 1.3x of the law (measured 1.08x to
  1.12x on the links below; a Reno that backs off to 0.7 instead of 0.5
  reads about 1.43x).
"""

from __future__ import annotations

import math

import pytest

from repro.cc.policies import FixedWindowController, RenoController
from repro.netsim.link import LinkConfig
from repro.netsim.simulator import NetworkSimulator, SimulationConfig

MSS = 1448
MATHIS_BAND = (0.9, 1.3)


@pytest.mark.parametrize(
    "window,rate_bps,one_way_delay_us",
    [(60, 12_000_000, 10_000), (200, 100_000_000, 5_000), (30, 2_000_000, 40_000)],
)
def test_steady_queueing_delay_is_backlog_over_rate(window, rate_bps, one_way_delay_us):
    link = LinkConfig(rate_bps=rate_bps, one_way_delay_us=one_way_delay_us, queue_bytes=10**7)
    simulator = NetworkSimulator(SimulationConfig(link=link, duration_s=2.0, mss=MSS))
    simulator.add_flow(FixedWindowController(window))
    metrics = simulator.run()
    assert metrics.loss_rate == 0.0 and metrics.utilization > 0.97

    # Time is whole microseconds: the link clocks one packet per rounded
    # serialisation time, so the queue drains at mss / serialisation_us.  In
    # those units the BDP is 2 * one_way_delay_us of draining, and the
    # backlog takes window * serialization_us - BDP to drain.
    serialization_us = round(MSS * 8e6 / rate_bps)
    assert window * serialization_us > 1.5 * 2 * one_way_delay_us
    backlog_us = window * serialization_us - 2 * one_way_delay_us
    delays = simulator.link.stats.queueing_delays_us
    steady = delays[len(delays) // 2 :]
    assert len(steady) > 100
    assert all(abs(delay - backlog_us) <= serialization_us for delay in steady)


def test_reno_under_random_loss_follows_the_mathis_law():
    """Three loss seeds per rate, 10 s each on a 1 Gb/s, 20 ms, never-full link."""
    for loss_rate in (0.002, 0.02):
        sent_bps = law_bps = 0.0
        for seed in range(3):
            link = LinkConfig(
                rate_bps=1_000_000_000,
                one_way_delay_us=10_000,
                queue_bytes=10**8,
                loss_rate=loss_rate,
                loss_seed=seed,
            )
            simulator = NetworkSimulator(SimulationConfig(link=link, duration_s=10.0, mss=MSS))
            simulator.add_flow(RenoController())
            (flow,) = simulator.run().flows
            assert flow.packets_lost > 10
            sent_bps += flow.throughput_bps
            law_bps += MSS * 8 / (flow.mean_rtt_ms / 1e3) * math.sqrt(3 / (2 * loss_rate))
        low, high = MATHIS_BAND
        assert low <= sent_bps / law_bps <= high, (loss_rate, sent_bps / law_bps)
