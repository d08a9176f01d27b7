"""Every policy against Belady's MIN: no policy misses less than the optimum.

With unit-size objects, Belady's MIN with bypass (Belady 1966) is the
fewest misses any policy can take: on a miss it keeps, among the cached
objects and the requested one, those requested again soonest, and does
not admit the requested object when it is the one requested last.  A
bypassed request is still a miss.  MIN in turn misses at least once per
distinct object.  The reference below computes MIN from the trace alone;
the fourteen baselines and the shipped evolved heuristics (which take the
fused loop) run through :class:`CacheSimulator` on unit-size variants of
corpus traces and must never miss less.
"""

from __future__ import annotations

import heapq

import pytest

from repro.cache import columnar
from repro.cache.policies import BASELINES
from repro.cache.policies.evolved import EVOLVED_HEURISTICS, evolved_policy_factories
from repro.cache.request import Request, Trace
from repro.cache.simulator import simulate_many
from repro.workloads.cache import build_trace

TRACES = [
    ("cloudphysics", 1),
    ("cloudphysics", 7),
    ("cloudphysics", 12),
    ("msr", 1),
    ("msr", 2),
    ("msr", 7),
]
#: Cache sizes as fractions of the footprint (in objects, sizes being 1).
FRACTIONS = (0.01, 0.05, 0.2)
POLICIES = {**BASELINES, **evolved_policy_factories()}


def _unit_size(dataset: str, index: int) -> Trace:
    trace = build_trace(f"caching/{dataset}", index=index, num_requests=400)
    return Trace([Request(r.timestamp, r.key, 1) for r in trace], name=f"{trace.name}-unit")


def _belady_min(keys, capacity: int):
    """Misses and bypasses of MIN with bypass on unit-size ``keys``."""
    never = len(keys)
    next_use = [never] * len(keys)
    seen = {}
    for position in range(len(keys) - 1, -1, -1):
        next_use[position] = seen.get(keys[position], never)
        seen[keys[position]] = position
    cached = {}  # key -> its next use
    farthest = []  # (-next use, key), stale entries skipped lazily
    misses = bypassed = 0
    for position, key in enumerate(keys):
        upcoming = next_use[position]
        if key not in cached:
            misses += 1
            if len(cached) >= capacity:
                while -farthest[0][0] != cached.get(farthest[0][1]):
                    heapq.heappop(farthest)
                if -farthest[0][0] <= upcoming:
                    bypassed += 1
                    continue
                del cached[heapq.heappop(farthest)[1]]
        cached[key] = upcoming
        heapq.heappush(farthest, (-upcoming, key))
    return misses, bypassed


@pytest.mark.parametrize("dataset, index", TRACES)
def test_no_policy_misses_less_than_belady_min(dataset, index, monkeypatch):
    fused = []
    fused_cache_run = columnar.fused_cache_run

    def counting_run(*args):
        result = fused_cache_run(*args)
        fused.append(result is not None)
        return result

    monkeypatch.setattr(columnar, "fused_cache_run", counting_run)
    trace = _unit_size(dataset, index)
    keys = [request.key for request in trace]
    distinct = len(set(keys))
    for fraction in FRACTIONS:
        capacity = max(1, int(trace.footprint_bytes() * fraction))
        optimum, bypassed = _belady_min(keys, capacity)
        assert distinct <= optimum and bypassed > 0
        results = simulate_many(POLICIES, trace, cache_size=capacity)
        assert len(results) == len(BASELINES) + len(EVOLVED_HEURISTICS) == 22
        assert all(result.misses >= optimum for result in results.values()), (
            fraction,
            optimum,
            {name: result.misses for name, result in results.items()},
        )
        assert min(result.misses for result in results.values()) < len(keys)
    # The evolved heuristics ran on the fused loop, the baselines on the classic one.
    assert fused.count(True) == len(FRACTIONS) * len(EVOLVED_HEURISTICS)
