"""Event-driven cache simulation loop (the libCacheSim stand-in).

The simulator is deliberately tiny: it walks the trace, consults the policy,
and keeps counters.  All policy behaviour -- including admission control and
eviction -- lives in the policy objects so that synthesized and baseline
policies are measured by exactly the same loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Protocol, Union

from repro.cache.metrics import SimulationResult
from repro.cache.policies.base import EvictionPolicy
from repro.cache.request import Request

PolicyLike = Union[EvictionPolicy, Callable[[int], EvictionPolicy]]


class TraceLike(Protocol):
    """Anything the simulator can walk: an in-memory :class:`Trace` or a
    constant-memory :class:`~repro.traces.streaming.StreamingTrace` -- a
    named, re-iterable source of requests exposing ``footprint_bytes()``."""

    name: str

    def __iter__(self) -> Iterator[Request]: ...

    def footprint_bytes(self) -> int: ...

#: Default cache size as a fraction of the trace footprint (§4.1.4).
DEFAULT_CACHE_FRACTION = 0.10


def cache_size_for(trace: TraceLike, fraction: float = DEFAULT_CACHE_FRACTION) -> int:
    """Cache capacity used throughout the paper: a fraction of the footprint."""
    return max(1, int(trace.footprint_bytes() * fraction))


class CacheSimulator:
    """Runs eviction policies over request traces and collects metrics."""

    def __init__(self, check_invariants_every: int = 0):
        """``check_invariants_every`` > 0 makes the simulator assert policy
        byte-accounting consistency every N requests (used in tests; costs a
        little time so it is off by default)."""
        self.check_invariants_every = check_invariants_every

    def run(
        self,
        policy: EvictionPolicy,
        trace: TraceLike,
        warmup: int = 0,
    ) -> SimulationResult:
        """Simulate ``policy`` over ``trace``.

        ``warmup`` requests at the start of the trace are executed but not
        counted in the reported metrics (the cache still fills), matching the
        usual methodology for short traces.

        When ``policy`` is a :class:`~repro.cache.priority_cache.
        PriorityFunctionCache` whose DSL program bound a kernel, the
        simulation is delegated to the fused columnar loop
        (:func:`repro.cache.columnar.fused_cache_run`), which produces an
        identical result and identical final policy state, just faster; it
        declines (returns ``None``) whenever exact replication is not
        guaranteed, and this loop runs as before.
        """
        from repro.cache.columnar import fused_cache_run

        fused = fused_cache_run(self, policy, trace, warmup)
        if fused is not None:
            return fused
        result = SimulationResult(
            policy=policy.policy_name,
            trace=trace.name,
            cache_size=policy.capacity,
        )
        check_every = self.check_invariants_every
        for index, request in enumerate(trace):
            counted = index >= warmup
            if counted:
                result.requests += 1
                result.bytes_requested += request.size
            if policy.lookup(request):
                if counted:
                    result.hits += 1
            else:
                if counted:
                    result.misses += 1
                    result.bytes_missed += request.size
                if request.size > policy.capacity or not policy.should_admit(request):
                    if counted:
                        result.bypassed += 1
                else:
                    policy.admit(request)
                    if counted:
                        result.admissions += 1
            if check_every and (index + 1) % check_every == 0:
                policy.check_invariants()
        result.evictions = policy.eviction_count
        return result


def simulate(
    policy_factory: PolicyLike,
    trace: TraceLike,
    cache_size: Optional[int] = None,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
    warmup: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build the policy for the trace and run it.

    ``policy_factory`` is either an already-built policy (used as-is) or a
    callable ``capacity -> policy``; in the latter case the capacity defaults
    to ``cache_fraction`` of the trace footprint as in the paper.
    """
    if isinstance(policy_factory, EvictionPolicy):
        policy = policy_factory
    else:
        size = cache_size if cache_size is not None else cache_size_for(trace, cache_fraction)
        policy = policy_factory(size)
    return CacheSimulator().run(policy, trace, warmup=warmup)


def simulate_many(
    policies: Dict[str, Callable[[int], EvictionPolicy]],
    trace: TraceLike,
    cache_size: Optional[int] = None,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
) -> Dict[str, SimulationResult]:
    """Run every policy in ``policies`` over ``trace`` with the same capacity.

    The batched path: the trace's struct-of-arrays columns are decoded once
    up front and shared by every candidate, so one pass of column extraction
    amortises over the whole candidate set (each candidate still owns its
    simulation loop -- cache states diverge from the first eviction, so the
    per-candidate loops cannot be fused further without changing results).
    """
    size = cache_size if cache_size is not None else cache_size_for(trace, cache_fraction)
    columns_of = getattr(trace, "columns", None)
    if callable(columns_of):
        columns_of()  # warm the cached columnar form once for all candidates
    results: Dict[str, SimulationResult] = {}
    for name, factory in policies.items():
        policy = factory(size)
        policy.policy_name = name
        results[name] = CacheSimulator().run(policy, trace)
    return results
