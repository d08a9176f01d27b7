"""The netsim's event loop: a whole run in one Python frame.

:func:`run_until` applies the rules of :mod:`repro.netsim.flow` and
:mod:`repro.netsim.link` to a :class:`~repro.netsim.simulator.NetworkSimulator`'s
flows and link, the handlers inlined over locals.  Per event it enters at
most three frames: the ``Packet`` and ``CCSignals`` constructors and the
controller's ``on_ack`` / ``on_loss`` (the netsim counterpart of
:mod:`repro.cache.columnar`).  The firing flow's state lives in locals; it
is parked back on its :class:`~repro.netsim.flow.Flow`, and the next flow's
loaded, only when an event belongs to another flow, so a single-flow run
pays one comparison per event.

**Event order.**  Events fire in (time, number) order; every scheduled event
takes the next number.  Entries are ``(time, number, kind, arg, run)``: a
packet leaving the wire (``FINISH``) or reaching the receiver (``DELIVER``),
an ACK reaching its sender, a flow's start, and a *loss run* -- the ``n``
tail-drops or random losses one burst of sends had between two scheduled
events, all detected at one instant.  A loss run is one entry that takes
``n`` consecutive numbers and counts ``n`` events towards ``processed`` and
``max_events``, so every run is numbered, ordered and cut exactly as if each
loss were its own event (``tests/netsim/oracle.py`` fires them that way).
Firing a run equals ``n`` single detections each followed by a send: within
one instant the queue only fills and sRTT does not move, so after a loss that
may react, the rest (until the reaction gap has passed) go in one step.  The
``max_events`` valve stops inside a run too; the members that did not fire
stay queued under the numbers they held.  Without random loss, a burst's
first tail-drop makes the rest of it one run; with it, each offered packet
draws the link's RNG once, in sequence order, and the drops before a packet
that finds the transmitter idle are reported before its transmission is
scheduled.

Finished, cut, or stopped by a controller that raised, a run leaves the
flows, link, stats and queue as that many events left them, and the next
call carries on from there.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional

from repro.netsim.flow import CCSignals, Flow, HistoryInterval
from repro.netsim.packet import Packet

#: Entry kinds.
START, FINISH, DELIVER, ACK, LOSS = range(5)

#: A flow's loop-local state, in the order :func:`run_until` loads and parks it.
_FLOW = (
    "cwnd", "inflight", "next_seq", "delivered_bytes", "min_rtt_us", "srtt_us",
    "_pending_losses", "_last_loss_reaction_us", "_history_list", "_interval_start_us",
    "_interval_delivered", "_interval_losses", "_interval_rtt_sum", "_interval_rtt_count",
)  # fmt: skip
_STATS = ("packets_sent", "packets_acked", "packets_lost", "bytes_acked")
_load = attrgetter(
    *_FLOW,
    *(f"stats.{name}" for name in _STATS),
    "_history", "stats.rtt_samples_us", "stats.cwnd_trace",
    "controller.on_ack", "controller.on_loss",
)  # fmt: skip


def _park(flow: Flow, state: tuple) -> None:
    """Write a flow's loop-local state (``_FLOW`` then ``_STATS`` order) back to it."""
    vars(flow).update(zip(_FLOW, state))
    vars(flow.stats).update(zip(_STATS, state[len(_FLOW) :]))


def run_until(simulator, end_us: int, max_events: Optional[int] = None) -> int:
    """Fire ``simulator``'s events up to ``end_us``, at most ``max_events`` of them.

    Returns the number fired; ``simulator.truncated`` records whether the
    valve stopped the run short of ``end_us``.
    """
    link, flows, heap = simulator.link, simulator._flows, simulator._heap
    config, lstats, queue = link.config, link.stats, link._queue
    mss, owd, capacity = simulator.config.mss, config.one_way_delay_us, config.queue_bytes
    two_owd = 2 * owd
    serialization = config.serialization_us(mss)  # every packet is ``mss`` bytes
    draw = None if link._loss_rng is None else link._loss_rng.random
    loss_rate, delays = config.loss_rate, lstats.queueing_delays_us
    min_cwnd, max_cwnd = Flow.MIN_CWND, Flow.MAX_CWND
    limit = float("inf") if max_events is None else max_events
    number, now, processed, truncated = simulator._next_number, simulator.now, 0, False
    queued, enqueued, busy = link._queued_bytes, lstats.enqueued_packets, lstats.busy_us
    link_packets, link_bytes = lstats.delivered_packets, lstats.delivered_bytes
    flow = flow_id = None  # the flow whose state the locals hold
    # The loss run in progress: members left to fire, members it fires, reaction gap.
    lost_left = fired = gap = 0
    try:
        while True:
            if lost_left:  # one step of a loss run
                decide = last_reaction < 0 or now - last_reaction >= gap
                step = 1 if decide else lost_left
                lost_left -= step
                inflight = inflight - step if inflight > step else 0
                lost_total, pending = lost_total + step, pending + step
                iv_losses += step
                if decide:
                    last_reaction = now
                    loss, acked_bytes, rtt = True, 0, srtt
            else:
                if not heap or heap[0][0] > end_us:
                    break
                if processed >= limit:
                    truncated = True
                    break
                now, first_number, kind, arg, run = heappop(heap)
                if kind == FINISH:  # the head of the queue left the wire; start the next
                    queue.popleft()
                    queued -= mss
                    delay = arg.dequeued_at - arg.enqueued_at
                    delays.append(delay if delay > 0 else 0)
                    heappush(heap, (now + owd, number, DELIVER, arg, 0))
                    number += 1
                    if queue:
                        queue[0].dequeued_at = now
                        busy += serialization
                        heappush(heap, (now + serialization, number, FINISH, queue[0], 0))
                        number += 1
                    processed += 1
                    continue
                if kind == DELIVER:  # the ACK returns over the uncongested reverse path
                    link_packets, link_bytes = link_packets + 1, link_bytes + mss
                    heappush(heap, (now + owd, number, ACK, arg, 0))
                    number += 1
                    processed += 1
                    continue
                fid = arg.flow_id if kind == ACK else arg
                if fid != flow_id:  # another flow's event: park this one, load that one
                    if flow is not None:
                        # fmt: off
                        _park(flow, (cwnd, inflight, next_seq, delivered, min_rtt, srtt,
                                     pending, last_reaction, history_list, iv_start,
                                     iv_delivered, iv_losses, iv_rtt_sum, iv_rtt_count,
                                     sent, acked, lost_total, bytes_acked))
                        # fmt: on
                    flow_id, flow = fid, flows[fid]
                    # fmt: off
                    (cwnd, inflight, next_seq, delivered, min_rtt, srtt, pending, last_reaction,
                     history_list, iv_start, iv_delivered, iv_losses, iv_rtt_sum, iv_rtt_count,
                     sent, acked, lost_total, bytes_acked,
                     history, rtt_samples, cwnd_trace, on_ack, on_loss) = _load(flow)
                    # fmt: on
                if kind == LOSS:
                    fired = run if run <= limit - processed else limit - processed
                    if fired < run:
                        heappush(heap, (now, first_number + fired, LOSS, fid, run - fired))
                    gap = srtt or two_owd
                    lost_left = fired
                    continue
                step, decide = 1, kind == ACK  # otherwise START: the flow's first send
                if decide:  # the ACK: RTT sample, sRTT, and the history interval
                    acked_bytes = mss
                    rtt = now - arg.sent_at
                    if rtt < 1:
                        rtt = 1
                    inflight = inflight - 1 if inflight > 0 else 0
                    acked, bytes_acked, delivered = acked + 1, bytes_acked + mss, delivered + mss
                    rtt_samples.append(rtt)
                    if min_rtt == 0 or rtt < min_rtt:
                        min_rtt = rtt
                    srtt = (7 * srtt + rtt) // 8 if srtt else rtt
                    iv_delivered, iv_rtt_sum = iv_delivered + mss, iv_rtt_sum + rtt
                    iv_rtt_count += 1
                    if now - iv_start >= (srtt or two_owd):
                        average = iv_rtt_sum // iv_rtt_count
                        history.append(HistoryInterval(iv_delivered, average, iv_losses))
                        history_list = list(history)
                        iv_start = now
                        iv_delivered = iv_rtt_sum = iv_rtt_count = iv_losses = 0
                    loss = False
            if decide:  # the controller sets the window, clamped
                # fmt: off
                signals = CCSignals(now, cwnd, mss, acked_bytes, inflight, inflight * mss, rtt,
                                    min_rtt, srtt, loss, pending, delivered, history_list)
                # fmt: on
                if loss:
                    decision = on_loss(signals)
                else:
                    pending = 0
                    decision = on_ack(signals)
                try:
                    value = int(decision)
                except (TypeError, ValueError):
                    value = cwnd
                cwnd = min_cwnd if value < min_cwnd else max_cwnd if value > max_cwnd else value
                cwnd_trace.append((now, cwnd))
            processed += step
            # Send what the window allows, offering each packet to the link in turn.
            count = cwnd - inflight
            if count > 0:
                seq, next_seq = next_seq, next_seq + count
                inflight, sent = inflight + count, sent + count
                dropped = 0
                while seq < next_seq:
                    if draw is not None and draw() < loss_rate:
                        dropped += 1
                    elif queued + mss > capacity:
                        break
                    else:
                        packet = Packet(flow_id, seq, mss, now, now)
                        if not queue:  # the transmitter is idle
                            if dropped:  # the drops before it are reported first
                                lstats.dropped_packets += dropped
                                lstats.dropped_bytes += dropped * mss
                                detect = now + (srtt or two_owd)
                                heappush(heap, (detect, number, LOSS, flow_id, dropped))
                                number += dropped
                                dropped = 0
                            packet.dequeued_at = now
                            busy += serialization
                            heappush(heap, (now + serialization, number, FINISH, packet, 0))
                            number += 1
                        queue.append(packet)
                        queued, enqueued = queued + mss, enqueued + 1
                    seq += 1
                if seq < next_seq:  # the queue is full: it refuses the rest
                    if draw is not None:
                        for _ in range(next_seq - seq - 1):
                            draw()
                    dropped += next_seq - seq
                if dropped:
                    lstats.dropped_packets += dropped
                    lstats.dropped_bytes += dropped * mss
                    heappush(heap, (now + (srtt or two_owd), number, LOSS, flow_id, dropped))
                    number += dropped
    finally:
        if lost_left:  # the controller raised inside a loss run: the rest stay queued
            heappush(heap, (now, first_number + fired - lost_left, LOSS, flow_id, lost_left))
        if flow is not None:
            # fmt: off
            _park(flow, (cwnd, inflight, next_seq, delivered, min_rtt, srtt, pending,
                         last_reaction, history_list, iv_start, iv_delivered, iv_losses,
                         iv_rtt_sum, iv_rtt_count, sent, acked, lost_total, bytes_acked))
            # fmt: on
        simulator._next_number, simulator.now, simulator.truncated = number, now, truncated
        simulator.processed += processed
        link._queued_bytes = queued
        lstats.enqueued_packets, lstats.busy_us = enqueued, busy
        lstats.delivered_packets, lstats.delivered_bytes = link_packets, link_bytes
    simulator.now = max(now, end_us)
    return processed
