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
* **RFC 8312.**  After a loss, CUBIC steers its window to
  ``W(t) = C (t - K)^3 + W_max`` with ``K = cbrt((W_max - cwnd) / C)``.
  The controller's target is held to that curve at sampled points, within
  its integer rounding; its window is held to the one departure its
  docstring describes.
"""

from __future__ import annotations

import math

import pytest

from repro.cc.policies import CubicController, FixedWindowController, RenoController
from repro.netsim.flow import CCSignals
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


CUBIC_C = 0.4
CUBIC_BETA = 0.7


def _acked(now_us: int, cwnd: int) -> CCSignals:
    return CCSignals(
        now_us=now_us,
        cwnd_pkts=cwnd,
        mss=MSS,
        acked_bytes=MSS,
        inflight_pkts=cwnd,
        inflight_bytes=cwnd * MSS,
        rtt_us=20_000,
        min_rtt_us=20_000,
        srtt_us=20_000,
        loss=False,
        losses_since_last_ack=0,
        delivered_bytes=0,
    )


def _cubic_after_loss(w_max: int, at_us: int):
    """A controller cut at ``w_max`` whose epoch starts at ``at_us``; its window."""
    cubic = CubicController()
    cwnd = cubic.on_loss(_acked(at_us, w_max))
    cwnd = cubic.on_ack(_acked(at_us, cwnd))  # the first ACK starts the epoch
    return cubic, cwnd


@pytest.mark.parametrize("w_max", [100, 1_000, 10_000])
def test_cubic_target_follows_the_cubic_curve_with_the_docstrings_k(w_max):
    start_us = 1_000_000
    cubic, _ = _cubic_after_loss(w_max, start_us)
    reduced = int(w_max * CUBIC_BETA)
    # The docstring states RFC 8312's K: 4.2 s at W_max = 100, 19.6 s at 10 000.
    k_s = ((w_max - reduced) / CUBIC_C) ** (1 / 3)
    # The epoch started at the first ACK after the cut, so reading the
    # target below does not restart it.
    for t_s in (0.0, 0.05, k_s, 0.5, 1.0, 2.0, 5.0, 10.0):
        target = cubic._cubic_target(start_us + round(t_s * 1e6), reduced)
        curve = CUBIC_C * (t_s - k_s) ** 3 + w_max
        # One packet of floor, plus K and t each truncated to whole ms.
        slack = 1 + 3 * CUBIC_C * (t_s - k_s) ** 2 * 2e-3
        assert abs(target - max(2.0, curve)) <= slack, (t_s, target, curve)


def test_cubic_window_departs_from_the_curve_where_its_docstring_says():
    """ACK-clocked at 20 ms: one packet per RTT from the cut on, never below
    the curve, and far above its plateau by the time the curve reaches it."""
    w_max, rtt_us, now_us = 400, 20_000, 1_000_000
    cubic, cwnd = _cubic_after_loss(w_max, now_us)
    k_s = ((w_max - cwnd) / CUBIC_C) ** (1 / 3)  # 6.7 s
    windows, targets = [], []
    for _ in range(round(k_s * 1e6 / rtt_us) + 10):
        for _ack in range(cwnd):
            now_us += rtt_us // cwnd
            cwnd = cubic.on_ack(_acked(now_us, cwnd))
        windows.append(cwnd)
        targets.append(cubic._cubic_target(now_us, cwnd))
    growth = [after - before for before, after in zip(windows, windows[1:])]
    assert set(growth) == {1}, growth
    assert all(window >= target for window, target in zip(windows, targets))
    # Past K the curve sits at W_max; the window is a packet per RTT above it.
    assert targets[-1] == w_max and windows[-1] > w_max + 200
