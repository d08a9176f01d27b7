"""Tests of the domain table and the one-call ``build_search`` entry point."""

import pytest

from repro.cache.search import CachingDomain
from repro.core.checker import StructuralChecker
from repro.core.domain import (
    SearchDomain,
    SearchSetup,
    available_domains,
    build_search,
    get_domain,
)
from repro.core.engine import EngineConfig
from repro.core.search import SearchConfig


def test_builtin_domains_are_registered():
    names = available_domains()
    assert "caching" in names
    assert "cc" in names
    assert isinstance(get_domain("caching"), CachingDomain)


def test_unknown_domain_raises_with_known_names():
    with pytest.raises(KeyError, match="caching"):
        get_domain("quantum-scheduling")


def test_register_domain_requires_name():
    """Each table entry is a domain that declares the name it is listed under."""
    assert SearchDomain.name == ""
    for name in available_domains():
        domain = get_domain(name)
        assert isinstance(domain, SearchDomain) and domain.name == name


def test_build_search_assembles_all_layers(small_synthetic_trace):
    setup = build_search(
        "caching", trace=small_synthetic_trace, rounds=1, candidates_per_round=3
    )
    assert isinstance(setup, SearchSetup)
    assert setup.template.name == "cache-priority"
    assert isinstance(setup.checker, StructuralChecker)
    assert setup.context.name.startswith("caching/")
    assert setup.engine is setup.search.engine
    assert setup.domain.name == "caching"
    assert setup.search.config.rounds == 1


def test_caching_domain_requires_trace():
    with pytest.raises(ValueError, match="trace"):
        build_search("caching", rounds=1)


def test_misspelled_domain_kwargs_rejected(small_synthetic_trace):
    with pytest.raises(TypeError, match="duration"):
        build_search("cc", rounds=1, duration=3.0)  # typo for duration_s
    with pytest.raises(TypeError, match="cache_fracton"):
        build_search("caching", trace=small_synthetic_trace, cache_fracton=0.2)


def test_worker_pool_released_after_run(small_synthetic_trace):
    setup = build_search(
        "caching",
        trace=small_synthetic_trace,
        rounds=1,
        candidates_per_round=4,
        engine_config=EngineConfig(max_workers=2, executor="thread"),
    )
    setup.search.run()
    assert setup.engine._executor is None


def test_search_config_overrides_apply():
    setup = build_search("cc", rounds=2, candidates_per_round=5, repair_attempts=0)
    assert setup.search.config.rounds == 2
    assert setup.search.config.candidates_per_round == 5
    assert setup.search.config.repair_attempts == 0
    assert setup.search.engine.repair_attempts == 0


def test_explicit_search_config_is_used():
    config = SearchConfig(rounds=3, candidates_per_round=4, top_k_parents=1)
    setup = build_search("cc", search_config=config)
    assert setup.search.config is config


def test_build_search_matches_legacy_wrapper(small_synthetic_trace):
    """The paper's settings, which the removed caching wrapper
    spelled out, are the caching domain's defaults."""
    legacy = build_search(
        "caching",
        trace=small_synthetic_trace,
        rounds=2,
        candidates_per_round=5,
        seed=3,
        cache_fraction=0.10,
        llm_config=None,
    ).search.run()
    generic = build_search(
        "caching", trace=small_synthetic_trace, rounds=2, candidates_per_round=5, seed=3
    ).search.run()
    assert legacy.best_source() == generic.best_source()
    assert legacy.prompt_tokens == generic.prompt_tokens
    assert [c.score for c in legacy.candidates] == [c.score for c in generic.candidates]


def test_parallel_engine_preserves_fixed_seed_results(small_synthetic_trace):
    serial = build_search(
        "caching", trace=small_synthetic_trace, rounds=2, candidates_per_round=6, seed=5
    ).search.run()
    parallel = build_search(
        "caching",
        trace=small_synthetic_trace,
        rounds=2,
        candidates_per_round=6,
        seed=5,
        engine_config=EngineConfig(max_workers=4, executor="thread"),
    ).search.run()
    assert serial.best_source() == parallel.best_source()
    assert [c.score for c in serial.candidates] == [c.score for c in parallel.candidates]


def test_cache_hit_counters_surface_in_results(small_synthetic_trace):
    result = build_search(
        "caching", trace=small_synthetic_trace, rounds=3, candidates_per_round=8, seed=1
    ).search.run()
    assert result.eval_cache_lookups > 0
    # The synthetic LLM re-emits duplicates; some hits are effectively certain
    # across 3 rounds, and the rate is consistent with the counters.
    assert result.eval_cache_hits >= 0
    assert result.eval_cache_hit_rate() == pytest.approx(
        result.eval_cache_hits / result.eval_cache_lookups
    )
    round_lookups = sum(r.eval_cache_lookups for r in result.rounds)
    assert result.eval_cache_lookups >= round_lookups


def test_lineage_records_match_score_sorted_parents(small_synthetic_trace):
    result = build_search(
        "caching", trace=small_synthetic_trace, rounds=3, candidates_per_round=6, seed=8
    ).search.run()
    by_id = {c.candidate.candidate_id: c for c in result.candidates}
    for scored in result.candidates:
        if scored.candidate.round_index <= 1 or not scored.candidate.parent_ids:
            continue
        round_index = scored.candidate.round_index
        # Parents must be the top-scoring valid candidates from earlier rounds.
        earlier_valid = [
            c
            for c in result.candidates
            if c.valid and c.candidate.round_index < round_index
        ]
        earlier_valid.sort(key=lambda c: c.score, reverse=True)
        expected = [c.candidate.candidate_id for c in earlier_valid[:2]]
        assert scored.candidate.parent_ids == expected
        for parent_id in scored.candidate.parent_ids:
            assert by_id[parent_id].valid
