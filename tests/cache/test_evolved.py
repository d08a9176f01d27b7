"""Tests of the shipped evolved heuristics (Listing 1 and friends)."""

import pytest

from repro.cache.policies.evolved import (
    CLOUDPHYSICS_HEURISTICS,
    EVOLVED_HEURISTICS,
    HEURISTIC_A_SOURCE,
    LFU_SEED_SOURCE,
    LRU_SEED_SOURCE,
    MSR_HEURISTICS,
    evolved_policy_factories,
    policy_factory,
    program_for,
)
from repro.cache.priority_cache import TEMPLATE_PARAMS, PriorityFunctionCache
from repro.cache.simulator import simulate, simulate_many
from repro.dsl import analyze, parse


def test_eight_heuristics_shipped():
    assert len(EVOLVED_HEURISTICS) == 8
    assert set(CLOUDPHYSICS_HEURISTICS) == {
        "Heuristic A", "Heuristic B", "Heuristic C", "Heuristic D",
    }
    assert set(MSR_HEURISTICS) == {
        "Heuristic W", "Heuristic X", "Heuristic Y", "Heuristic Z",
    }


@pytest.mark.parametrize("name", sorted(EVOLVED_HEURISTICS))
def test_heuristics_parse_with_template_signature(name):
    program = program_for(name)
    assert program.name == "priority"
    assert tuple(program.params) == TEMPLATE_PARAMS
    facts = analyze(program)
    assert facts.has_return
    assert facts.free_names == []


def test_heuristic_a_matches_listing_1_structure():
    """Heuristic A must keep the feature usage of the paper's Listing 1."""
    facts = analyze(parse(HEURISTIC_A_SOURCE))
    # Listing 1 reads count, last access, size; queries history and all three
    # aggregate percentiles; and contains a ternary on the frequency percentile.
    assert {"count", "last_accessed", "size"} <= facts.feature_attributes()
    assert ("history", "contains") in facts.methods_called
    assert ("history", "count_of") in facts.methods_called
    assert ("history", "age_at_eviction") in facts.methods_called
    assert ("ages", "percentile") in facts.methods_called
    assert ("sizes", "percentile") in facts.methods_called
    assert ("counts", "percentile") in facts.methods_called


def test_seed_sources_are_one_liners():
    lru = parse(LRU_SEED_SOURCE)
    lfu = parse(LFU_SEED_SOURCE)
    assert len(lru.body) == 1 and len(lfu.body) == 1


def test_unknown_heuristic_name_raises():
    with pytest.raises(KeyError):
        program_for("Heuristic Q")


def test_policy_factories_run_on_trace(small_synthetic_trace):
    factories = evolved_policy_factories({"Heuristic A": EVOLVED_HEURISTICS["Heuristic A"],
                                          "Heuristic B": EVOLVED_HEURISTICS["Heuristic B"]})
    for name, factory in factories.items():
        result = simulate(factory, small_synthetic_trace, cache_fraction=0.08)
        assert 0 < result.miss_ratio < 1
        assert result.policy == name


def test_batched_scoring_of_every_heuristic_matches_the_interpreter(small_synthetic_trace):
    """``simulate_many`` over the shared columns scores each shipped heuristic
    as the interpreter oracle does, one by one."""

    def factories(backend):
        return {
            name: lambda capacity, program=program_for(name): PriorityFunctionCache(
                capacity, program, backend=backend
            )
            for name in sorted(EVOLVED_HEURISTICS)
        }

    lowered = simulate_many(factories("vectorized"), small_synthetic_trace)
    assert len(lowered) == len(EVOLVED_HEURISTICS)
    assert lowered == simulate_many(factories("interpreter"), small_synthetic_trace)


def test_evolved_heuristics_beat_fifo_on_average(small_synthetic_trace):
    from repro.cache.policies.fifo import FIFOCache

    fifo = simulate(FIFOCache, small_synthetic_trace, cache_fraction=0.08)
    improvements = []
    for name in ("Heuristic B", "Heuristic X"):
        result = simulate(policy_factory(name), small_synthetic_trace, cache_fraction=0.08)
        improvements.append(result.improvement_over(fifo))
    assert max(improvements) > 0
