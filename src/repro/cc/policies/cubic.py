"""CUBIC-style congestion control with integer arithmetic.

Follows the shape of the kernel implementation: after a loss the window is
reduced by the CUBIC beta (0.7), and during congestion avoidance the window
steers towards ``W(t) = C * (t - K)^3 + W_max``, where RFC 8312's
``K = cbrt((W_max - cwnd) / C)`` is the time at which the window would
regrow to ``W_max``.  All arithmetic is scaled-integer, like in the kernel
(which cannot use floating point).

Where it departs from RFC 8312 (``tests/netsim/test_closed_form.py`` holds
it to the curve and to this departure): each ACK credits at least one packet
towards growth, so the window grows at least one packet per RTT whatever the
target, and sits above the curve wherever the curve grows more slowly.  The
RFC moves it towards ``W(t + RTT)`` instead, or along its TCP-friendly
estimate (about half a packet per RTT at beta 0.7) where that is larger.
"""

from __future__ import annotations

from repro.netsim.flow import CCSignals

#: CUBIC constant C, scaled by 1000 (C = 0.4).
_C_SCALED = 400
#: Beta, scaled by 10 (beta = 0.7).
_BETA_SCALED = 7


class CubicController:
    """Integer CUBIC window growth."""

    def __init__(self, initial_window: int = 10):
        self.initial_window = initial_window
        self._w_max = initial_window
        self._epoch_start_us = 0
        self._k_us = 0
        self._ssthresh = 1 << 20
        self._ack_credit = 0

    def initial_cwnd(self) -> int:
        return self.initial_window

    # -- helpers -----------------------------------------------------------------

    def _cube_root(self, value: int) -> int:
        """Integer cube root (binary search), as the kernel does."""
        if value <= 0:
            return 0
        low, high = 0, max(1, value)
        while low < high:
            mid = (low + high + 1) // 2
            if mid * mid * mid <= value:
                low = mid
            else:
                high = mid - 1
        return low

    def _cubic_target(self, now_us: int, cwnd: int) -> int:
        if self._epoch_start_us == 0:
            self._epoch_start_us = now_us
            w_diff = max(0, self._w_max - cwnd)
            # K = cbrt((W_max - cwnd) / C) in ms: K_ms^3 = w_diff * 1e9 / C,
            # and 1 / C is 1000 / _C_SCALED.
            k_cubed_ms3 = (w_diff * 1000 * 1000 * 1000 * 1000) // _C_SCALED
            self._k_us = self._cube_root(k_cubed_ms3) * 1000
        t_us = now_us - self._epoch_start_us
        delta_ms = (t_us - self._k_us) // 1000
        # C * delta^3, with C scaled by 1000 and delta in ms -> scale back.
        offset = (_C_SCALED * delta_ms * delta_ms * delta_ms) // (1000 * 1000 * 1000 * 1000)
        return max(2, self._w_max + offset)

    # -- CongestionController protocol ----------------------------------------------

    def on_ack(self, signals: CCSignals) -> int:
        cwnd = signals.cwnd_pkts
        if cwnd < self._ssthresh:
            return cwnd + 1
        target = self._cubic_target(signals.now_us, cwnd)
        # Kernel-style pacing towards the cubic target: roughly
        # (target - cwnd) / cwnd packets of growth per ACK, never less than
        # the TCP-friendly 1 packet per RTT.
        self._ack_credit += max(1, target - cwnd)
        if self._ack_credit >= cwnd:
            self._ack_credit = 0
            return cwnd + 1
        return cwnd

    def on_loss(self, signals: CCSignals) -> int:
        cwnd = signals.cwnd_pkts
        self._w_max = cwnd
        self._epoch_start_us = 0
        reduced = max(2, (cwnd * _BETA_SCALED) // 10)
        self._ssthresh = reduced
        return reduced
