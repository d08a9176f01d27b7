"""Fused columnar cache-loop tests.

The fused loop (:func:`repro.cache.columnar.fused_cache_run`) must be an
*exact* replacement for the classic simulator loop: identical
:class:`SimulationResult`, identical final policy state (resident objects,
heap, eviction history, counters), identical exceptions -- for the same
bound kernel, under either spelling of a lowered run (``vectorized`` or
``compiled``).  When exact replication is not guaranteed it must decline
(return ``None``) so the classic loop runs instead.

A reference here must not be able to take the fused loop itself: it is the
classic loop forced by a never-firing invariant check (:func:`_classic`), or
the interpreter, whose runner has no kernel to bind.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.columnar import fused_cache_run
from repro.cache.policies.fifo import FIFOCache
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.search import caching_feature_spec
from repro.cache.simulator import CacheSimulator
from repro.dsl.errors import DslError
from repro.dsl.grammar import random_program
from repro.dsl.parser import parse

from tests.conftest import make_trace

_SIG = "def f(now, obj_id, obj_info, counts, ages, sizes, history)"

PROGRAMS = {
    "lru-like": f"{_SIG} {{ return 0 - (now - obj_info.last_accessed) }}",
    "aggregates": f"""{_SIG} {{
        score = obj_info.count * 10
        if (obj_info.size > sizes.percentile(0.75)) {{ score = score - 100 }}
        if (obj_info.count > counts.mean()) {{ score = score + ages.maximum() }}
        return score - sizes.minimum() / 10
    }}""",
    "history": f"""{_SIG} {{
        score = obj_info.count * 30
        if (history.contains(obj_id)) {{
            score = score + history.count_of(obj_id) * 20
            score = score - history.time_since_eviction(obj_id) / 50
        }}
        return score + history.length() - (now - obj_info.last_accessed) / 200
    }}""",
    "param-arg-aggregate": f"{_SIG} {{ return counts.percentile(now) + ages.percentile(obj_id) }}",
    "bool-return": f"{_SIG} {{ return obj_info.count > 2 }}",
}


def _workload_trace(seed=0, n=600, keys=40):
    rng = random.Random(seed)
    return make_trace(
        [(t, rng.randint(1, keys), rng.choice([50, 80, 120, 200])) for t in range(n)],
        name=f"workload-{seed}",
    )


def _policy(source, capacity=1_000, backend="vectorized", **kwargs):
    return PriorityFunctionCache(
        capacity, parse(source), name="candidate", backend=backend, **kwargs
    )


def _state(policy):
    """Full observable end state of a priority cache."""
    return {
        "objects": [
            (k, o.size, o.insert_time, o.last_access_time, o.access_count, dict(o.extra))
            for k, o in policy._objects.items()
        ],
        "used": policy._used,
        "evictions": policy.eviction_count,
        "admissions": policy.admission_count,
        "priority_evaluations": policy.priority_evaluations,
        "generation": policy._generation,
        "since_refresh": policy._requests_since_refresh,
        "heap": list(policy._heap),
        # The stored tuples under their keys, and the named view over them.
        "history": list(policy.history._records.items()),
        "history_records": [
            (r.key, r.evicted_at, r.access_count, r.age_at_eviction, r.size)
            for r in policy.history.records()
        ],
        "history_now": policy.history._now,
        "aggregates": [
            (list(a._sorted), a._sum) for a in (policy._counts, policy._ages, policy._sizes)
        ],
    }


#: The two spellings of a lowered run; both take the fused loop.
LOWERED = ("vectorized", "compiled")


def _classic(policy, trace, warmup=0):
    """``policy`` run by the classic loop whatever its runner could bind: a
    never-firing invariant check makes ``fused_cache_run`` decline, so the
    scores come from ``run(env)`` -- a pure control oracle."""
    return CacheSimulator(check_invariants_every=10**9).run(policy, trace, warmup=warmup)


def _run_pair(source, trace, warmup=0, capacity=1_000, **kwargs):
    """(fused result+state, classic result+state) for the same program."""
    fused_policy = _policy(source, capacity, **kwargs)
    fused = fused_cache_run(CacheSimulator(), fused_policy, trace, warmup)
    assert fused is not None, "expected the fused loop to take this run"
    classic_policy = _policy(source, capacity, **kwargs)
    classic = _classic(classic_policy, trace, warmup)
    return (fused, _state(fused_policy)), (classic, _state(classic_policy))


def _assert_exact(source, trace, **kwargs):
    """The fused run equals the classic one, result and full policy state,
    under both spellings; returns the (one) fused result."""
    for backend in LOWERED:
        (fused, fused_state), (classic, classic_state) = _run_pair(
            source, trace, backend=backend, **kwargs
        )
        assert fused == classic, backend
        assert fused_state == classic_state, backend
    return fused


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("warmup", [0, 100])
def test_fused_matches_classic_exactly(name, warmup):
    fused = _assert_exact(PROGRAMS[name], _workload_trace(), warmup=warmup)
    assert fused.evictions > 0, "workload too easy to exercise eviction"


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fused_matches_classic_beyond_int64(name):
    """Timestamps and keys past 2**63: the columns are the requests' own
    ints, so such a trace runs the fused loop like any other (a separate
    test so the ids above stay what they were)."""
    rng = random.Random(1)
    trace = make_trace(
        [(2**63 + t, 2**64 + rng.randint(1, 40), rng.choice([50, 80, 120, 200])) for t in range(600)],
        name="beyond-int64",
    )
    assert _assert_exact(PROGRAMS[name], trace, warmup=100).evictions > 0


def test_fused_matches_classic_warmup_beyond_trace():
    trace = _workload_trace(n=50)
    assert _assert_exact(PROGRAMS["lru-like"], trace, warmup=500).requests == 0


@pytest.mark.parametrize("name", ["lru-like", "aggregates"])
@pytest.mark.parametrize(
    "n, warmup, interval",
    [(1, 0, 64), (64, 0, 64), (65, 64, 64), (128, 64, 64), (129, 500, 64), (300, 0, 1), (300, 7, 7)],
)
def test_fused_refreshes_where_the_classic_loop_does(name, n, warmup, interval):
    """The fused loop walks the trace in refresh-interval chunks and skips
    snapshots the kernel never reads: the aggregates and the refresh
    countdown must still end where the classic loop leaves them, wherever
    the trace end and the warmup boundary fall relative to a refresh."""
    _assert_exact(PROGRAMS[name], _workload_trace(n=n), warmup=warmup, refresh_interval=interval)


def test_fused_matches_compiled_backend_scores():
    """Cross-backend contract: the scalar compiled program behind the classic
    loop (``run(env)``, what a ``compiled`` run was before it could bind) and
    the interpreter give the fused run's result."""
    trace = _workload_trace(seed=3)
    for name in ("aggregates", "history"):
        fused = fused_cache_run(CacheSimulator(), _policy(PROGRAMS[name]), trace, 0)
        assert fused is not None and fused.evictions > 0
        assert fused == _classic(_policy(PROGRAMS[name], backend="compiled"), trace)
        assert fused == CacheSimulator().run(_policy(PROGRAMS[name], backend="interpreter"), trace)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_every_backend_simulates_grammar_programs_identically(seed):
    """What the search relies on: whatever the generator writes, a run under
    either lowered spelling (fused where the program binds), the same
    lowering behind the classic loop and the interpreter oracle end in the
    same result and policy state, or in the same error."""
    program = random_program(caching_feature_spec(), random.Random(seed))
    trace = _workload_trace(seed=seed % 7, n=300)

    def outcome(backend, run=CacheSimulator().run):
        policy = PriorityFunctionCache(1_000, program, name="candidate", backend=backend)
        try:
            return "ok", run(policy, trace, warmup=20), _state(policy)
        except DslError as exc:
            return "error", type(exc), str(exc)

    reference = outcome("interpreter")
    assert outcome("vectorized") == reference
    assert outcome("compiled") == reference
    assert outcome("compiled", _classic) == reference


def test_huge_integer_literal_runs_fused_and_scores_like_the_interpreter():
    """The kernel computes on Python ints, so a literal beyond 2**53 needs no
    fallback: exact-integer arithmetic on it decides the score here."""
    body = f"(obj_info.count * {2**60} + obj_info.size) % 1000 - obj_info.count"
    source = f"{_SIG} {{ return {body} }}"
    trace = _workload_trace(seed=5)
    fused_policy = _policy(source)
    assert fused_policy._priority.backend == "vectorized"
    fused = fused_cache_run(CacheSimulator(), fused_policy, trace, 0)
    assert fused is not None
    oracle_policy = _policy(source, backend="interpreter")
    assert CacheSimulator().run(oracle_policy, trace) == fused
    assert _state(oracle_policy) == _state(fused_policy)  # heap scores included
    assert fused.evictions > 0


def _assert_same_error(source):
    trace = _workload_trace()
    for backend in LOWERED:
        with pytest.raises(DslError) as fused_exc:
            fused_cache_run(CacheSimulator(), _policy(source, backend=backend), trace, 0)
        with pytest.raises(DslError) as classic_exc:
            _classic(_policy(source, backend=backend), trace)
        assert type(fused_exc.value) is type(classic_exc.value)
        assert str(fused_exc.value) == str(classic_exc.value)


def test_fused_raises_same_error_as_classic():
    _assert_same_error(f"{_SIG} {{ return 1 / (obj_info.count - 2) }}")


#: Raising evaluations that also read the other kinds of feature column: a
#: refreshed aggregate value, an inlined history method, a bound aggregate
#: method with a per-row argument -- and one that fails on a local.
RAISING = {
    "aggregate-constant": "return obj_info.size / (obj_info.count - 2) + counts.mean()",
    "history-method": "return history.length() // (obj_info.count - 2) + history.count_of(obj_id)",
    "param-arg-aggregate": "return counts.percentile(now) % (obj_info.count - 2)",
    "unbound-local": "if (obj_info.count > 1) { x = ages.maximum() }  return x",
}


@pytest.mark.parametrize("name", sorted(RAISING))
def test_fused_raises_same_error_whatever_columns_the_evaluation_reads(name):
    _assert_same_error(f"{_SIG} {{ {RAISING[name]} }}")


# -- gating: every ineligible shape must decline, not misbehave ----------------------


def test_declines_invariant_checking_simulator():
    sim = CacheSimulator(check_invariants_every=1)
    assert fused_cache_run(sim, _policy(PROGRAMS["lru-like"]), _workload_trace(), 0) is None


def test_declines_non_priority_policy():
    assert fused_cache_run(CacheSimulator(), FIFOCache(1_000), _workload_trace(), 0) is None


def test_declines_priority_cache_subclass():
    class Subclassed(PriorityFunctionCache):
        pass

    policy = Subclassed(1_000, parse(PROGRAMS["lru-like"]), backend="vectorized")
    assert fused_cache_run(CacheSimulator(), policy, _workload_trace(), 0) is None


def test_declines_eviction_listeners():
    policy = _policy(PROGRAMS["lru-like"])
    policy.add_eviction_listener(lambda obj, now: None)
    assert fused_cache_run(CacheSimulator(), policy, _workload_trace(), 0) is None


def test_vectorized_is_the_default_backend():
    policy = PriorityFunctionCache(1_000, parse(PROGRAMS["lru-like"]))
    assert policy._priority.backend == "vectorized"
    assert fused_cache_run(CacheSimulator(), policy, _workload_trace(), 0) is not None


def test_both_lowered_spellings_take_the_fused_loop():
    """The gate reads what the runner is, never the name it was asked by."""
    trace = _workload_trace()
    taken = {}
    for backend in LOWERED:
        policy = _policy(PROGRAMS["lru-like"], backend=backend)
        assert policy._priority.backend == backend
        taken[backend] = fused_cache_run(CacheSimulator(), policy, trace, 0)
        assert taken[backend] is not None
    assert taken["compiled"] == taken["vectorized"]
    oracle = _policy(PROGRAMS["lru-like"], backend="interpreter")
    assert fused_cache_run(CacheSimulator(), oracle, trace, 0) is None
    assert CacheSimulator().run(oracle, trace) == taken["compiled"]


def test_declines_unvectorizable_program():
    # Expression method-arg: outside the layout's vocabulary, so make_runner
    # hands back the scalar callable, reported as "compiled" under either
    # spelling, and the gate declines.
    source = f"{_SIG} {{ return counts.percentile(now % 1) }}"
    for backend in LOWERED:
        policy = _policy(source, backend=backend)
        assert policy._priority.backend == "compiled"
        assert fused_cache_run(CacheSimulator(), policy, _workload_trace(), 0) is None


def test_declines_used_policy():
    trace = _workload_trace()
    policy = _policy(PROGRAMS["lru-like"])
    assert fused_cache_run(CacheSimulator(), policy, trace, 0) is not None
    assert fused_cache_run(CacheSimulator(), policy, trace, 0) is None  # stateful now


def test_declines_trace_without_columns():
    class RowsOnly:
        name = "workload-0"  # match the wrapped trace so results compare equal

        def __init__(self, trace):
            self._trace = trace

        def __iter__(self):
            return iter(self._trace)

        def footprint_bytes(self):
            return self._trace.footprint_bytes()

    trace = _workload_trace()
    assert fused_cache_run(CacheSimulator(), _policy(PROGRAMS["lru-like"]), RowsOnly(trace), 0) is None
    # ...and the simulator still produces the right answer via the classic loop.
    classic = CacheSimulator().run(_policy(PROGRAMS["lru-like"]), RowsOnly(trace))
    fused = CacheSimulator().run(_policy(PROGRAMS["lru-like"]), trace)
    assert fused == classic


def test_simulator_run_uses_fused_path_transparently():
    """CacheSimulator.run on a vectorized policy equals an explicit fused run."""
    trace = _workload_trace(seed=7)
    via_run = CacheSimulator().run(_policy(PROGRAMS["history"]), trace, warmup=50)
    explicit = fused_cache_run(CacheSimulator(), _policy(PROGRAMS["history"]), trace, 50)
    assert via_run == explicit
