"""Byte-LRU against theory: Mattson stack distances and the inclusion property.

LRU is a stack algorithm (Mattson, Gecsei, Slutz and Traiger, 1970): at any
capacity, the cache holds the most recently requested objects that fit.  So
a request hits exactly when the bytes of the distinct objects requested
since its key's previous request, its own included -- its byte stack
distance -- fit in the cache; an object larger than the cache is never
admitted and never enters the stack.  The reference below computes those
distances from the trace alone, and :class:`LRUCache` run through
:class:`CacheSimulator` must reproduce its counts exactly.  A stack
algorithm also has the inclusion property: a larger cache never misses more.
"""

from __future__ import annotations

import pytest

from repro.cache.policies.lru import LRUCache
from repro.cache.simulator import CacheSimulator
from repro.workloads.cache import build_trace

TRACES = [
    ("cloudphysics", 1),
    ("cloudphysics", 7),
    ("cloudphysics", 12),
    ("msr", 1),
    ("msr", 2),
    ("msr", 7),
]
#: Fractions of the footprint; at the smallest, some objects exceed the cache.
FRACTIONS = (0.01, 0.05, 0.2)


def _trace(dataset: str, index: int):
    return build_trace(f"caching/{dataset}", index=index, num_requests=2000)


def _mattson(trace, capacity: int):
    """Hits, misses, bypasses and missed bytes of byte-LRU at ``capacity``,
    from each request's byte stack distance."""
    keys, sizes = [], []  # the recency stack, most recent last
    hits = misses = bypassed = bytes_missed = 0
    for request in trace:
        if request.size > capacity:
            misses += 1
            bypassed += 1
            bytes_missed += request.size
            continue
        try:
            depth = keys.index(request.key)
        except ValueError:
            distance = None
        else:
            distance = sum(sizes[depth:])
            del keys[depth], sizes[depth]
        keys.append(request.key)
        sizes.append(request.size)
        if distance is not None and distance <= capacity:
            hits += 1
        else:
            misses += 1
            bytes_missed += request.size
    return hits, misses, bypassed, bytes_missed


@pytest.mark.parametrize("dataset, index", TRACES)
def test_lru_matches_mattson_stack_distances(dataset, index):
    trace = _trace(dataset, index)
    footprint = trace.footprint_bytes()
    for fraction in FRACTIONS:
        capacity = int(footprint * fraction)
        result = CacheSimulator().run(LRUCache(capacity), trace)
        expected = _mattson(trace, capacity)
        assert (result.hits, result.misses, result.bypassed, result.bytes_missed) == expected
        assert result.hits and result.misses > result.bypassed
    assert _mattson(trace, int(footprint * FRACTIONS[0]))[2], "no object exceeds the smallest cache"


@pytest.mark.parametrize("dataset, index", TRACES)
def test_lru_misses_never_rise_with_cache_size(dataset, index):
    trace = _trace(dataset, index)
    footprint = trace.footprint_bytes()
    misses = [
        CacheSimulator().run(LRUCache(int(footprint * fraction)), trace).misses
        for fraction in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 1.0)
    ]
    assert misses == sorted(misses, reverse=True)
    assert misses[0] > misses[-1]
