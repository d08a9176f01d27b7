"""Fused columnar fast path for the priority cache (every lowered run's loop).

The classic pipeline is layered for clarity: the simulator walks the trace,
the policy dispatches hook methods, every priority evaluation builds an
environment dict, and the DSL runner is invoked once per evaluation.  Those
layers dominate the runtime once the priority function itself is a compiled
kernel.  This module collapses them into one ordinary function,
:func:`_fused_loop`, that walks struct-of-arrays trace columns and calls the
candidate's kernel with a fixed ``(now, key, entry, table, hrecords, hget)``
signature.  Nothing but the kernel is generated per program:
:func:`~repro.cache.layout.cache_layout` turns each feature-column read into
a line of the kernel's prologue over those six arguments (``table`` is the
per-run list that :func:`_kernel_table` rewrites at every aggregate
refresh), so a priority evaluation is one Python frame.  The columns are the
three lists ``trace.columns()`` builds once per trace and every candidate's
run walks as they are; an eviction leaves a plain tuple in the
policy's history, in the field order of
:class:`~repro.cache.features.EvictedRecord` (the one representation the
classic loop writes too), so it enters no Python frame at all.

Why eager per-row scoring and not deferred numpy batches?  Both were built
and measured: a numpy lane evaluator was 3-4x faster than the scalar kernel
once feature columns already lived in numpy arrays, but inside the
simulator the features are inherently produced row-by-row as the cache
mutates, and the Python-value -> ndarray conversion alone costs more than
the scalar call.
Deferring evaluations to eviction decision points was measured slower than
this zero-layer loop at every realistic batch size, and eager scoring has
a stronger exactness story: every evaluation -- including one that raises
-- happens at the identical instant the classic loop would have evaluated.

Exactness contract: the fused run must be observationally identical to the
classic loop -- the returned :class:`SimulationResult`, every policy counter,
the final object table (including ``ps_gen``/``ps_score``), the heap, the
aggregates and the eviction history all match field-for-field, so tests and
downstream search code cannot tell which loop ran.  Only the object table is
deferred: the policy keeps the loop's final store and builds its
``CachedObject`` table from it on first read
(``PriorityFunctionCache.__getattr__``), so scoring a candidate, which
reads only the returned result, builds none.  Scores are bit-identical
(the kernel body is the one the compiled backend runs, and raises what it
would), heap pushes/pops happen in the classic order (even NaN scores leave
the heap in the same deterministic layout), and the kernel reads the policy's *real*
:class:`FeatureAggregates`/:class:`EvictionHistory` objects, so snapshot
staleness semantics are inherited rather than re-implemented.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.metrics import SimulationResult
from repro.cache.priority_cache import DslPriorityFunction, PriorityFunctionCache, as_score
from repro.dsl.compile import reraise_normalised
from repro.dsl.vectorize import VectorizedProgram

#: The resident set's column behind each aggregate, as its ``update`` takes it.
_AGGREGATE_COLUMNS = {
    "counts": lambda entries, now: [entry[0] for entry in entries],
    "ages": lambda entries, now: [(now - entry[1]) if now > entry[1] else 0 for entry in entries],
    "sizes": lambda entries, now: [entry[3] for entry in entries],
}


def _kernel_table(plan, policy: PriorityFunctionCache):
    """What a run of ``policy`` refreshes: the kernel's ``table``, the function
    rewriting its value slots after an aggregate refresh, and the ``(update,
    column)`` pairs of the aggregates the kernel reads and of all three."""
    aggregates = {"counts": policy._counts, "ages": policy._ages, "sizes": policy._sizes}
    table: List[Any] = []
    values: List[Tuple[int, Callable[..., Any], Tuple[Any, ...]]] = []
    for slot, (param, attr, args) in enumerate(plan):
        method = getattr(aggregates[param], attr)
        if args is None:
            table.append(method)
        else:
            table.append(0.0)  # the first request always refreshes
            values.append((slot, method, args))

    def refresh_table() -> None:
        for slot, method, args in values:
            table[slot] = method(*args)

    every = [(aggregates[name].update, column) for name, column in _AGGREGATE_COLUMNS.items()]
    read = {param for param, _attr, _args in plan}
    live = [pair for name, pair in zip(_AGGREGATE_COLUMNS, every) if name in read]
    return table, refresh_table, live, every


def _fused_loop(timestamps, keys, sizes, warmup, policy, kernel, table, refresh_table, live, every):
    """``CacheSimulator.run`` + ``PriorityFunctionCache`` for a fresh
    ``policy``, in one frame and in the classic order: refresh, lookup,
    hit / miss, bypass, evict-until-fits (lazy-deletion heap peek + history
    record), admit, and one scoring push.

    A fresh policy refreshes on request 0 and every ``refresh_interval``
    requests after it, so the trace is walked in chunks starting there and
    nothing the chunk bounds already say is counted per request.  Before the
    run ends only the kernel can see a snapshot: an aggregate it does not
    read (``live`` lists those it does) is refreshed at the trace's last
    refresh alone, which is the state the classic loop leaves it in.  The
    miss counters restart at the warmup boundary.
    """
    heappush = heapq.heappush
    heappop = heapq.heappop
    capacity = policy.capacity
    interval = policy.refresh_interval
    # record() mutates this dict in place and never rebinds it, so capturing
    # it once is safe for the whole run.
    hrecords = policy._history._records
    hget = hrecords.get
    hpop_oldest = hrecords.popitem
    hist_max = policy._history.max_entries
    store: Dict[int, list] = {}
    store_get = store.get
    entries = store.values()
    heap: List[Tuple[float, int, int]] = []
    used = 0
    evictions = 0
    generation = 0
    last_push_now = None
    admissions = 0
    total = len(timestamps)
    w = min(max(warmup, 0), total)
    last_refresh = (total - 1) // interval * interval
    requests = zip(timestamps, keys, sizes)
    for start, stop in ((0, w), (w, total)):
        warmup_admissions = admissions
        m_misses = m_bytes_missed = m_bypassed = 0
        while start < stop:
            if start % interval == 0:
                now = timestamps[start]
                for update, column in every if start == last_refresh else live:
                    update(column(entries, now))
                refresh_table()
            chunk = min(stop, start - start % interval + interval) - start
            start += chunk
            for now, key, size in islice(requests, chunk):
                entry = store_get(key)
                if entry is not None:
                    entry[0] += 1
                    entry[1] = now
                else:
                    m_misses += 1
                    m_bytes_missed += size
                    if size > capacity:
                        m_bypassed += 1
                        continue
                    while used + size > capacity:
                        victim_entry = None
                        while heap:
                            _score, gen, victim = heap[0]
                            candidate = store_get(victim)
                            if candidate is not None and candidate[4] == gen:
                                victim_entry = candidate
                                break
                            heappop(heap)
                        if victim_entry is None:
                            raise RuntimeError(
                                f"{policy.policy_name}: choose_victim returned invalid key None"
                            )
                        del store[victim]
                        used -= victim_entry[3]
                        evictions += 1
                        if victim in hrecords:
                            del hrecords[victim]
                        last = victim_entry[1]
                        age = (now - last) if now > last else 0
                        # EvictedRecord's field order.
                        hrecords[victim] = (victim, now, victim_entry[0], age, victim_entry[3])
                        while len(hrecords) > hist_max:
                            hpop_oldest(last=False)
                    entry = [1, now, now, size, 0, 0.0]
                    store[key] = entry
                    used += size
                    admissions += 1
                last_push_now = now
                generation += 1
                entry[4] = generation
                try:
                    value = kernel(now, key, entry, table, hrecords, hget)
                except Exception as exc:
                    reraise_normalised(exc)
                kind = type(value)
                score = value if kind is float else float(value) if kind is int else as_score(value)
                entry[5] = score
                heappush(heap, (score, generation, key))
    measured = {
        "requests": total - w,
        "bytes_requested": sum(sizes[w:]),
        "hits": total - w - m_misses,
        "misses": m_misses,
        "bytes_missed": m_bytes_missed,
        "bypassed": m_bypassed,
        "admissions": admissions - warmup_admissions,
        "evictions": evictions,
    }
    refresh_since = (total - 1) % interval if total else policy._requests_since_refresh
    return store, heap, used, generation, refresh_since, last_push_now, admissions, measured


def _policy_is_fresh(policy: PriorityFunctionCache) -> bool:
    return not (
        policy._objects
        or policy._used
        or policy.eviction_count
        or policy.admission_count
        or policy.priority_evaluations
        or policy._generation
        or policy._heap
        or policy._history.length()
        or policy._requests_since_refresh != policy.refresh_interval
    )


def fused_cache_run(simulator, policy, trace, warmup: int = 0) -> Optional[SimulationResult]:
    """Run ``policy`` over ``trace`` on the fused columnar path, or ``None``.

    ``None`` means "this run cannot be replicated exactly, use the classic
    loop" -- never an error.  (A program with feature columns outside the
    Table-1 vocabulary never gets a :class:`VectorizedProgram` runner at all.)
    """
    if simulator.check_invariants_every:
        return None
    if type(policy) is not PriorityFunctionCache:
        return None
    if policy._eviction_listeners:
        return None
    priority = policy._priority
    if not isinstance(priority, DslPriorityFunction):
        return None
    vp = priority._runner
    if not isinstance(vp, VectorizedProgram):
        return None
    if not _policy_is_fresh(policy):
        return None
    columns_of = getattr(trace, "columns", None)
    columns = columns_of() if callable(columns_of) else None
    if columns is None:
        return None

    store, heap, used, generation, refresh_since, last_push_now, admissions, measured = _fused_loop(
        *columns,  # timestamps, keys, sizes
        warmup,
        policy,
        vp.bound._fn,
        *_kernel_table(vp.binding.plan, policy),
    )

    if last_push_now is not None:
        policy._history._now = last_push_now

    result = SimulationResult(
        policy=policy.policy_name, trace=trace.name, cache_size=policy.capacity, **measured
    )

    # Leave the fused state on the policy so it is indistinguishable from one
    # that ran the classic loop (tests poke at all of these); the object table
    # stays the loop's store until someone reads it, which scoring never does.
    del policy._objects
    policy._fused_store = store
    policy._used = used
    policy.eviction_count = measured["evictions"]
    policy.admission_count = admissions
    # The classic loop scores exactly once per generation bump.
    policy.priority_evaluations = generation
    policy._generation = generation
    policy._requests_since_refresh = refresh_since
    policy._heap = heap
    return result
