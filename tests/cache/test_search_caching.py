"""Tests of the caching PolicySmith instantiation (Template, Evaluator, search)."""

import pytest

from repro.cache.search import (
    CachingEvaluator,
    caching_archetypes,
    caching_seed_programs,
    caching_template,
)
from repro.core.checker import StructuralChecker
from repro.core.domain import build_search
from repro.dsl import parse

from tests.conftest import LISTING_1, PRIORITY_SIGNATURE


def test_template_structure():
    template = caching_template()
    assert template.name == "cache-priority"
    assert template.signature().startswith("def priority(now, obj_id, obj_info")
    assert len(template.seed_programs) == 2        # LRU and LFU seeds (§4.2.1)
    assert any("O(log N)" in c for c in template.constraints)
    assert "percentile" in template.description


def test_seed_programs_pass_checker():
    template = caching_template()
    checker = StructuralChecker(template)
    for source in template.seeds_as_source():
        assert checker.check(source).ok


def test_archetypes_pass_checker():
    template = caching_template()
    checker = StructuralChecker(template)
    for source in caching_archetypes():
        result = checker.check(source)
        assert result.ok, result.feedback


def test_listing_1_passes_checker():
    checker = StructuralChecker(caching_template())
    assert checker.check(LISTING_1).ok


def test_checker_rejects_unknown_feature():
    checker = StructuralChecker(caching_template())
    bad = f"{PRIORITY_SIGNATURE} {{ return obj_info.magic }}"
    result = checker.check(bad)
    assert not result.ok
    assert "unknown-feature" in result.issue_codes()


def test_evaluator_scores_lru_seed(small_synthetic_trace):
    evaluator = CachingEvaluator(small_synthetic_trace, cache_fraction=0.08)
    lru, lfu = caching_seed_programs()
    lru_result = evaluator.evaluate(lru)
    assert lru_result.valid
    assert -1.0 <= lru_result.score <= 0.0
    assert lru_result.details["miss_ratio"] == pytest.approx(-lru_result.score)


def test_evaluator_handles_broken_candidate(small_synthetic_trace):
    evaluator = CachingEvaluator(small_synthetic_trace, cache_fraction=0.08)
    broken = parse(f"{PRIORITY_SIGNATURE} {{ return 1 / (now - now) }}")
    result = evaluator.evaluate(broken)
    assert not result.valid
    assert result.score == evaluator.failure_score
    assert "runtime error" in result.error


def test_small_search_run_finds_valid_heuristic(small_synthetic_trace):
    setup = build_search(
        "caching", trace=small_synthetic_trace, rounds=2, candidates_per_round=5, seed=3
    )
    result = setup.search.run()
    assert result.total_candidates == 2 + 2 * 5    # seeds + 2 rounds
    assert result.best is not None
    # The winner can never be worse than the better of the two seeds.
    seed_scores = [c.score for c in result.candidates if c.candidate.origin == "seed"]
    assert result.best.score >= max(seed_scores)
    assert result.prompt_tokens > 0
    assert result.estimated_cost_usd > 0


def test_search_is_deterministic_per_seed(small_synthetic_trace):
    kwargs = dict(trace=small_synthetic_trace, rounds=1, candidates_per_round=4, seed=11)
    first = build_search("caching", **kwargs)
    second = build_search("caching", **kwargs)
    assert first.search.run().best_source() == second.search.run().best_source()
