"""The fused event loop: a fresh single-flow drop-tail run in one Python frame.

The classic loop (:meth:`EventQueue.run_until` calling bound methods of
:class:`~repro.netsim.flow.Flow` and :class:`~repro.netsim.link.DropTailLink`)
enters some twenty frames per acknowledged packet.  For one bulk flow through
one loss-free drop-tail link -- what every default cc search scores --
:func:`run_until` fires the same events in the same order in one frame, the
handlers inlined over locals, leaving three: the ``Packet`` and ``CCSignals``
constructors and the controller (the netsim counterpart of
:mod:`repro.cache.columnar`).  Entries are ``(time, number, kind, arg, run)``,
numbered as :meth:`EventQueue.call_at` numbers them; ``Packet`` and
``CCSignals`` are built as the handlers build them; the controller is called
through ``on_ack`` / ``on_loss`` only; the ``max_events`` valve closes where
the classic one does, inside a loss run too.  Finished, cut or raised, the
run writes back the flow, link, stats and queue (entries in their classic
``(handler, arg)`` form), so the classic loop -- the general path and the
oracle -- can carry on from there.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.netsim.events import EventQueue
from repro.netsim.flow import CCSignals, Flow, HistoryInterval
from repro.netsim.link import DropTailLink
from repro.netsim.packet import Packet

#: Entry kinds; each is written back as the classic handler it stands for.
START, FINISH, DELIVER, ACK, LOSS = range(5)


def eligible(simulator) -> bool:
    """One plain :class:`Flow`, a plain :class:`DropTailLink` without random loss,
    and an :class:`EventQueue` that has fired nothing and holds the flow's start
    only (anything sent or scheduled besides would be a second entry).

    A rate or a delay the classic loop could not schedule keeps that loop.
    """
    if len(simulator._flows) != 1:
        return False
    (flow,) = simulator._flows.values()
    link, events = simulator.link, simulator.events
    config, heap = link.config, events._heap
    return (
        type(flow) is Flow
        and flow.running
        and type(link) is DropTailLink
        and link._loss_rng is None
        and link._on_delivery == simulator._on_delivery
        and type(events) is EventQueue
        and events.processed == 0
        and len(heap) == 1
        and config.rate_bps > 0
        and flow.mss > 0
        and all(type(d) is int and d >= 0 for d in (config.one_way_delay_us, flow.ack_delay_us))
    )


def run_until(simulator, end_us: int, max_events: Optional[int] = None) -> int:
    """``simulator.events.run_until(end_us, max_events)`` for an :func:`eligible` run."""
    events, link = simulator.events, simulator.link
    (flow,) = simulator._flows.values()
    config, stats, lstats = link.config, flow.stats, link.stats
    on_ack, on_loss = flow.controller.on_ack, flow.controller.on_loss
    flow_id, mss, ack_delay = flow.flow_id, flow.mss, flow.ack_delay_us
    owd, capacity = config.one_way_delay_us, config.queue_bytes
    two_owd = 2 * owd
    serialization = config.serialization_us(mss)  # every packet is ``mss`` bytes
    min_cwnd, max_cwnd = Flow.MIN_CWND, Flow.MAX_CWND
    queue, history, delays = link._queue, flow._history, lstats.queueing_delays_us
    rtt_samples, cwnd_trace = stats.rtt_samples_us, stats.cwnd_trace
    heap = events._heap
    start_time, start_number, start_handler, start_arg, _ = heap[0]
    heap[0] = (start_time, start_number, START, start_arg, 0)
    limit = float("inf") if max_events is None else max_events
    number, now, processed, truncated = events._next_number, events.now, 0, False
    cwnd, inflight, next_seq = flow.cwnd, flow.inflight, flow.next_seq
    delivered, min_rtt, srtt = flow.delivered_bytes, flow.min_rtt_us, flow.srtt_us
    pending, last_reaction = flow._pending_losses, flow._last_loss_reaction_us
    history_list, iv_start = flow._history_list, flow._interval_start_us
    iv_delivered, iv_losses = flow._interval_delivered, flow._interval_losses
    iv_rtt_sum, iv_rtt_count = flow._interval_rtt_sum, flow._interval_rtt_count
    sent, acked, lost_total = stats.packets_sent, stats.packets_acked, stats.packets_lost
    bytes_acked, queued = stats.bytes_acked, link._queued_bytes
    enqueued, busy = lstats.enqueued_packets, lstats.busy_us
    link_packets, link_bytes = lstats.delivered_packets, lstats.delivered_bytes
    # The loss run in progress: members left to fire, members it fires, reaction gap.
    lost_left = fired = gap = 0
    try:
        while True:
            if lost_left:  # one pass of Flow._on_losses_detected's loop
                decide = last_reaction < 0 or now - last_reaction >= gap
                lost = 1 if decide else lost_left
                lost_left -= lost
                inflight = inflight - lost if inflight > lost else 0
                lost_total, pending, iv_losses = lost_total + lost, pending + lost, iv_losses + lost
                if decide:
                    last_reaction = now
                    loss, acked_bytes, rtt = True, 0, srtt
                step = 0 if lost_left else fired
            else:
                if not heap or heap[0][0] > end_us:
                    break
                if processed >= limit:
                    truncated = True
                    break
                now, first_number, kind, arg, run = heappop(heap)
                if kind == FINISH:  # DropTailLink._finish_transmission
                    queue.popleft()
                    queued -= arg.size
                    delay = arg.dequeued_at - arg.enqueued_at
                    delays.append(delay if delay > 0 else 0)
                    heappush(heap, (now + owd, number, DELIVER, arg, 0))
                    number += 1
                    if queue:  # DropTailLink._start_transmission
                        queue[0].dequeued_at = now
                        busy += serialization
                        heappush(heap, (now + serialization, number, FINISH, queue[0], 0))
                        number += 1
                    processed += 1
                    continue
                if kind == DELIVER:  # DropTailLink._deliver, Flow.handle_delivery
                    link_packets, link_bytes = link_packets + 1, link_bytes + arg.size
                    heappush(heap, (now + ack_delay, number, ACK, arg, 0))
                    number += 1
                    processed += 1
                    continue
                if kind == LOSS:  # EventQueue.step of a run entry
                    fired = run if run <= limit - processed else limit - processed
                    if fired < run:
                        heappush(heap, (now, first_number + fired, LOSS, None, run - fired))
                    gap = srtt or two_owd
                    lost_left = fired
                    continue
                step, decide = 1, kind == ACK  # otherwise START: the flow's first pump
                if decide:  # Flow._on_ack and _roll_history
                    acked_bytes = arg.size
                    rtt = now - arg.sent_at
                    if rtt < 1:
                        rtt = 1
                    inflight = inflight - 1 if inflight > 0 else 0
                    acked, bytes_acked = acked + 1, bytes_acked + acked_bytes
                    delivered += acked_bytes
                    rtt_samples.append(rtt)
                    if min_rtt == 0 or rtt < min_rtt:
                        min_rtt = rtt
                    srtt = (7 * srtt + rtt) // 8 if srtt else rtt
                    iv_delivered, iv_rtt_sum = iv_delivered + acked_bytes, iv_rtt_sum + rtt
                    iv_rtt_count += 1
                    if now - iv_start >= (srtt or two_owd):
                        average = iv_rtt_sum // iv_rtt_count
                        history.append(HistoryInterval(iv_delivered, average, iv_losses))
                        history_list = list(history)
                        iv_start = now
                        iv_delivered = iv_rtt_sum = iv_rtt_count = iv_losses = 0
                    loss = False
            if decide:  # Flow._signals, the controller, Flow._apply_cwnd
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
            # Flow._pump and DropTailLink.send_burst: without random loss the
            # first refusal makes the rest of the burst one tail-drop run.
            count = cwnd - inflight
            if count > 0:
                seq, next_seq = next_seq, next_seq + count
                inflight, sent = inflight + count, sent + count
                while seq < next_seq and queued + mss <= capacity:
                    packet = Packet(flow_id, seq, mss, now, now)
                    if not queue:  # the transmitter is idle: DropTailLink._start_transmission
                        packet.dequeued_at = now
                        busy += serialization
                        heappush(heap, (now + serialization, number, FINISH, packet, 0))
                        number += 1
                    queue.append(packet)
                    queued, enqueued, seq = queued + mss, enqueued + 1, seq + 1
                if seq < next_seq:
                    drops = next_seq - seq
                    lstats.dropped_packets += drops
                    lstats.dropped_bytes += drops * mss
                    heappush(heap, (now + (srtt or two_owd), number, LOSS, None, drops))
                    number += drops
    finally:
        events._next_number, events.now, events.truncated = number, now, truncated
        events.processed += processed
        flow.cwnd, flow.inflight, flow.next_seq = cwnd, inflight, next_seq
        flow.delivered_bytes, flow.min_rtt_us, flow.srtt_us = delivered, min_rtt, srtt
        flow._pending_losses, flow._last_loss_reaction_us = pending, last_reaction
        flow._history_list, flow._interval_start_us = history_list, iv_start
        flow._interval_delivered, flow._interval_losses = iv_delivered, iv_losses
        flow._interval_rtt_sum, flow._interval_rtt_count = iv_rtt_sum, iv_rtt_count
        stats.packets_sent, stats.packets_acked, stats.packets_lost = sent, acked, lost_total
        stats.bytes_acked, link._queued_bytes = bytes_acked, queued
        link._transmitting = bool(queue)  # the link transmits exactly while it holds packets
        lstats.enqueued_packets, lstats.busy_us = enqueued, busy
        lstats.delivered_packets, lstats.delivered_bytes = link_packets, link_bytes
        handlers = (start_handler, link._finish_transmission, link._deliver)
        handlers += (flow._on_ack, flow._on_losses_detected)
        heap[:] = [(time, n, handlers[kind], arg, run) for time, n, kind, arg, run in heap]
    events.now = max(now, end_us)
    return processed
