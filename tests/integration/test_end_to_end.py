"""End-to-end integration tests: the full PolicySmith loop on both case
studies, plus the archive / context-shift workflow of §3.1."""

import pytest

from repro.cache.policies import BASELINES
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.simulator import CacheSimulator, cache_size_for, simulate_many
from repro.core.archive import HeuristicArchive
from repro.core.context import ContextShiftDetector
from repro.core.domain import build_search
from repro.dsl import parse
from repro.traces.synthetic import SyntheticWorkloadConfig, generate_trace


def test_caching_search_end_to_end_beats_seeds(small_synthetic_trace):
    """Template -> Generator -> Checker -> Evaluator -> archive, §4 style."""
    setup = build_search(
        "caching", trace=small_synthetic_trace, rounds=3, candidates_per_round=8, seed=2
    )
    result = setup.search.run()

    assert result.best is not None
    seed_best = max(
        c.score for c in result.candidates if c.candidate.origin == "seed"
    )
    assert result.best.score >= seed_best

    # The winner must be runnable as an actual cache policy.
    program = result.best_program()
    size = cache_size_for(small_synthetic_trace, 0.10)
    winner = CacheSimulator().run(
        PriorityFunctionCache(size, program, name="winner"), small_synthetic_trace
    )
    assert winner.miss_ratio == pytest.approx(-result.best.score, abs=1e-9)

    # Archive the winner under its context, reload, and re-parse.
    archive = HeuristicArchive()
    archive.add_candidate(setup.context, result.best, name="synthesized")
    entry = archive.best_for(setup.context.name)
    assert entry is not None
    assert parse(entry.source) == program


def test_caching_search_winner_competitive_with_baselines(small_synthetic_trace):
    """A modest search already lands in the upper half of the baseline field."""
    setup = build_search(
        "caching", trace=small_synthetic_trace, rounds=3, candidates_per_round=10, seed=4
    )
    result = setup.search.run()
    winner_miss = -result.best.score
    baseline_results = simulate_many(BASELINES, small_synthetic_trace, cache_fraction=0.10)
    baseline_misses = sorted(r.miss_ratio for r in baseline_results.values())
    median_baseline = baseline_misses[len(baseline_misses) // 2]
    assert winner_miss <= median_baseline + 1e-9


def test_cc_search_end_to_end_produces_safe_controller():
    """Kernel-constrained search: every valid candidate passed the verifier
    stand-in, and the winner performs sensibly on the emulated link."""
    setup = build_search("cc", rounds=2, candidates_per_round=8, seed=13, duration_s=2.0)
    result = setup.search.run()
    assert result.best is not None
    # Winner respects kernel constraints by construction.
    assert setup.checker.check(result.best_source()).ok
    details = result.best.evaluation.details
    assert details["utilization"] > 0.3
    assert details["mean_queueing_delay_ms"] < 45


def test_context_shift_triggers_resynthesis_workflow():
    """§3.1.2: drift detection -> re-synthesis -> a growing heuristic library."""
    stable = generate_trace(
        SyntheticWorkloadConfig(name="phase-a", num_requests=1200, num_objects=250,
                                seed=1, zipf_weight=0.8, scan_weight=0.05,
                                churn_weight=0.1, recent_weight=0.05)
    )
    shifted = generate_trace(
        SyntheticWorkloadConfig(name="phase-b", num_requests=1200, num_objects=900,
                                seed=2, zipf_weight=0.05, scan_weight=0.85,
                                churn_weight=0.05, recent_weight=0.05)
    )

    setup = build_search("caching", trace=stable, rounds=1, candidates_per_round=5, seed=5)
    first = setup.search.run()
    archive = HeuristicArchive()
    archive.add_candidate(setup.context, first.best, name="phase-a-heuristic")

    # Deploy the phase-A heuristic, monitor its hit rate across both phases.
    size = cache_size_for(stable, 0.10)
    cache = PriorityFunctionCache(size, first.best_program(), name="deployed")
    detector = ContextShiftDetector(window=50, reference_window=300, threshold=0.3,
                                    patience=5, higher_is_better=True)
    shift_seen = False
    hits = misses = 0
    for trace in (stable, shifted):
        for request in trace:
            if cache.lookup(request):
                hits += 1
                detector.observe(1.0)
            else:
                misses += 1
                shift_seen = detector.observe(0.0) or shift_seen
                if request.size <= cache.capacity:
                    cache.admit(request)
    assert hits > 0 and misses > 0
    assert shift_seen, "the workload change must be detected"

    # Re-synthesis for the new phase extends the library.
    resynth = build_search("caching", trace=shifted, rounds=1, candidates_per_round=5, seed=6)
    second = resynth.search.run()
    archive.add_candidate(resynth.context, second.best, name="phase-b-heuristic")
    assert len(archive) == 2
    assert len(archive.contexts()) == 2
