"""Tests of the batched evaluation engine (dedup, memoization, parallelism,
timeouts and crash isolation)."""

import time

import pytest

from repro.core.checker import StructuralChecker
from repro.core.engine import EngineConfig, EvaluationEngine
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.executors import ThreadExecutor
from repro.core.results import Candidate
from repro.core.template import Template
from repro.dsl import Interpreter, parse
from repro.dsl.grammar import FeatureSpec


def make_template():
    spec = FeatureSpec(function_name="f", params=["x"], scalar_params=["x"])
    return Template(
        name="toy",
        spec=spec,
        description="return a constant",
        seed_programs=[parse("def f(x) { return 1 }")],
    )


class CountingEvaluator(Evaluator):
    """Scores a program by its returned constant; counts evaluations.

    Scales trivially (a rung scores like the full run, on its own counter),
    so a fidelity ladder can be attached.
    """

    def __init__(self, delay_s: float = 0.0):
        self.calls = 0
        self.delay_s = delay_s

    def at_fidelity(self, fraction):
        return CountingEvaluator()

    def evaluate_program(self, program):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        value = Interpreter().run(program, {"x": 0})
        return EvaluationResult(score=float(value), valid=True)


def candidates(sources):
    return [
        Candidate(candidate_id=f"c{i}", source=source, round_index=1)
        for i, source in enumerate(sources, start=1)
    ]


def make_engine(evaluator=None, **config_kwargs):
    template = make_template()
    # In-process unless a test asks for workers: tests read the evaluator's
    # own counters, which a pool worker's copy would keep instead.
    return EvaluationEngine(
        StructuralChecker(template),
        evaluator or CountingEvaluator(),
        config=EngineConfig(**{"max_workers": 1, **config_kwargs}),
    )


def test_intra_batch_dedup_evaluates_unique_sources_once():
    evaluator = CountingEvaluator()
    engine = make_engine(evaluator)
    # Whitespace variants canonicalise to the same program.
    batch = engine.process_batch(
        candidates(
            [
                "def f(x) { return 7 }",
                "def f(x) {  return   7 }",
                "def f(x) { return 8 }",
            ]
        )
    )
    assert evaluator.calls == 2
    assert batch.stats.unique_evaluations == 2
    assert batch.stats.eval_cache_lookups == 3
    assert batch.stats.eval_cache_hits == 1
    assert [s.score for s in batch.scored] == [7.0, 7.0, 8.0]


def test_memoization_spans_batches():
    evaluator = CountingEvaluator()
    engine = make_engine(evaluator)
    engine.process_batch(candidates(["def f(x) { return 7 }"]))
    second = engine.process_batch(candidates(["def f(x) { return 7 }"]))
    assert evaluator.calls == 1
    assert second.stats.eval_cache_hits == 1
    assert second.scored[0].score == 7.0
    assert engine.cache_hits == 1 and engine.cache_lookups == 2


def test_check_failures_are_counted_not_evaluated():
    evaluator = CountingEvaluator()
    engine = make_engine(evaluator)
    batch = engine.process_batch(candidates(["def f(x) { return y }"]))
    assert evaluator.calls == 0
    assert not batch.scored[0].check_ok
    assert batch.stats.failure_codes.get("unknown-name") == 1


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_parallel_results_match_serial(executor):
    sources = [f"def f(x) {{ return {n} }}" for n in range(6)]
    serial = make_engine().process_batch(candidates(sources))
    parallel = make_engine(
        CountingEvaluator(), max_workers=3, executor=executor
    ).process_batch(candidates(sources))
    assert [s.score for s in parallel.scored] == [s.score for s in serial.scored]
    assert parallel.stats.unique_evaluations == 6


def test_timeout_produces_failure_result():
    evaluator = CountingEvaluator(delay_s=5.0)
    engine = make_engine(evaluator, max_workers=2, executor="thread", eval_timeout_s=0.1)
    batch = engine.process_batch(
        candidates(["def f(x) { return 1 }", "def f(x) { return 2 }"])
    )
    for scored in batch.scored:
        assert scored.evaluation is not None
        assert not scored.evaluation.valid
        assert "timed out" in scored.evaluation.error
    assert batch.stats.eval_timeouts == 2


def test_timeouts_are_not_memoized():
    """A transient failure must not poison the memo: once the slowdown
    clears, the same candidate is re-evaluated and gets its real score."""
    evaluator = CountingEvaluator(delay_s=5.0)
    engine = make_engine(evaluator, max_workers=2, executor="thread", eval_timeout_s=0.1)
    engine.process_batch(
        candidates(["def f(x) { return 1 }", "def f(x) { return 2 }"])
    )
    evaluator.delay_s = 0.0  # the load spike clears
    batch = engine.process_batch(
        candidates(["def f(x) { return 1 }", "def f(x) { return 2 }"])
    )
    assert [s.score for s in batch.scored] == [1.0, 2.0]
    assert all(s.evaluation.valid for s in batch.scored)


def test_executor_is_reused_across_batches():
    engine = make_engine(CountingEvaluator(), max_workers=2, executor="thread")
    engine.process_batch(candidates(["def f(x) { return 1 }", "def f(x) { return 2 }"]))
    executor = engine._executor
    assert type(executor) is ThreadExecutor
    pool = executor._pool
    assert pool is not None
    engine.process_batch(candidates(["def f(x) { return 3 }", "def f(x) { return 4 }"]))
    assert engine._executor is executor and executor._pool is pool
    engine.close()
    assert engine._executor is None


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_workers=0)
    with pytest.raises(ValueError):
        EngineConfig(executor="gpu")
    with pytest.raises(ValueError):
        EngineConfig(eval_timeout_s=0)


# -- static screening (rung "-1") ---------------------------------------------------


class ScreeningEvaluator(CountingEvaluator):
    """CountingEvaluator plus a declared input-interval contract."""

    def input_intervals(self):
        from repro.dsl.abstract import InputIntervals, Interval

        return InputIntervals(
            scalars={"x": Interval(0, 100)}, output_clamp=(0.0, 10.0)
        )


SCREEN_SOURCES = [
    "def f(x) { return 5 }",        # constant
    "def f(x) { return x + 1000 }",  # pinned above the output clamp
    "def f(x) { return x }",         # live: must still be evaluated
]


def test_static_screen_rejects_degenerates_at_zero_evaluator_cost():
    evaluator = ScreeningEvaluator()
    engine = make_engine(evaluator, static_screen=True)
    batch = engine.process_batch(candidates(SCREEN_SOURCES))
    assert evaluator.calls == 1  # only the live candidate reached evaluation
    assert batch.stats.screen_checks == 3
    assert batch.stats.screened == 2
    # Screened candidates never enter the dedup/memo pipeline.
    assert batch.stats.eval_cache_lookups == 1
    constant, pinned, live = batch.scored
    for item in (constant, pinned):
        assert item.evaluation is not None and not item.evaluation.valid
        assert item.evaluation.error.startswith("static-screen:")
        assert item.score == evaluator.failure_score
    assert "constant" in constant.evaluation.error
    assert "pinned-max" in pinned.evaluation.error
    assert live.evaluation.valid and live.score == 0.0
    assert engine.totals.screen_checks == 3 and engine.totals.screened == 2


def test_static_screen_is_off_by_default():
    evaluator = ScreeningEvaluator()
    batch = make_engine(evaluator).process_batch(candidates(SCREEN_SOURCES))
    assert evaluator.calls == 3
    assert batch.stats.screen_checks == 0 and batch.stats.screened == 0


def test_static_screen_noop_without_declared_intervals():
    evaluator = CountingEvaluator()  # no input_intervals() declaration
    engine = make_engine(evaluator, static_screen=True)
    batch = engine.process_batch(candidates(SCREEN_SOURCES))
    assert evaluator.calls == 3
    assert batch.stats.screen_checks == 0 and batch.stats.screened == 0


def test_static_screen_emits_events_and_tier():
    from repro.core.events import CandidateEvaluated, CandidateScreened

    engine = make_engine(ScreeningEvaluator(), static_screen=True)
    events = []
    engine.events.subscribe(events.append)
    engine.process_batch(candidates(SCREEN_SOURCES))
    screened = [e for e in events if isinstance(e, CandidateScreened)]
    assert [(e.candidate_id, e.reason) for e in screened] == [
        ("c1", "constant"),
        ("c2", "pinned-max"),
    ]
    evaluated = [e for e in events if isinstance(e, CandidateEvaluated)]
    tiers = {e.candidate_id: e.cache_tier for e in evaluated}
    assert tiers == {"c1": "screened", "c2": "screened", "c3": "fresh"}
    # "screened" is not a cache tier: the result was computed, not replayed.
    assert all(not e.cached for e in evaluated)


def test_static_screen_results_identical_when_nothing_screens():
    """With no degenerate candidate in the batch, the knob must not perturb
    scores or cache statistics (the result.json byte-identity guarantee)."""
    sources = ["def f(x) { return x }", "def f(x) { return x + 1 }"]
    plain = make_engine(CountingEvaluator()).process_batch(candidates(list(sources)))
    screening = make_engine(ScreeningEvaluator(), static_screen=True)
    screened = screening.process_batch(candidates(list(sources)))
    assert screened.stats.screen_checks == 2 and screened.stats.screened == 0
    assert [s.score for s in screened.scored] == [s.score for s in plain.scored]
    assert screened.stats.eval_cache_lookups == plain.stats.eval_cache_lookups
    assert screened.stats.unique_evaluations == plain.stats.unique_evaluations


def test_static_screen_verdicts_cached_across_batches():
    engine = make_engine(ScreeningEvaluator(), static_screen=True)
    engine.process_batch(candidates(["def f(x) { return 5 }"]))
    calls = {"n": 0}
    screener = engine._static_screener()
    original = screener.screen
    screener.screen = lambda program: (calls.__setitem__("n", calls["n"] + 1), original(program))[1]
    batch = engine.process_batch(candidates(["def f(x) { return 5 }"]))
    assert calls["n"] == 0  # verdict served from the canonical-key cache
    assert batch.stats.screened == 1  # but still counted per batch
    assert engine.totals.screened == 2


def test_static_screen_never_touches_store(tmp_path):
    from repro.core.store import EvaluationStore

    engine = make_engine(ScreeningEvaluator(), static_screen=True)
    engine.attach_store(EvaluationStore(tmp_path / "evalstore").bind("k" * 64))
    batch = engine.process_batch(candidates(["def f(x) { return 5 }"]))
    assert batch.stats.screened == 1
    assert engine.totals.store_lookups == 0 and engine.store_writes == 0


def test_a_screened_grammar_candidate_costs_no_evaluation_memo_or_store_traffic(tmp_path):
    """On a real evaluator: of 64 grammar-generated caching programs the
    screener rejects the one degenerate, and every other candidate is
    evaluated, looked up in the memo and the store, and written back --
    once each, at the ladder's cheapest rung."""
    import random

    from repro.cache.search import CachingEvaluator, caching_feature_spec, caching_template
    from repro.core.store import EvaluationStore
    from repro.dsl.codegen import to_source
    from repro.dsl.grammar import random_program
    from repro.workloads import build_trace

    spec = caching_feature_spec()
    sources = [to_source(random_program(spec, random.Random(seed))) for seed in range(64)]
    assert len(set(sources)) == 64
    trace = build_trace("caching/zipf-hot", num_requests=2000, num_objects=400)
    evaluator = CachingEvaluator(trace).at_fidelity(0.1)
    evaluated, evaluate_program = [], evaluator.evaluate_program

    def counting(program):
        evaluated.append(program)
        return evaluate_program(program)

    evaluator.evaluate_program = counting
    engine = EvaluationEngine(
        StructuralChecker(caching_template()),
        evaluator,
        config=EngineConfig(max_workers=1, static_screen=True),
    )
    engine.attach_store(EvaluationStore(tmp_path / "evalstore").bind("k" * 64))
    batch = engine.process_batch(candidates(sources))
    survivors = 64 - 1
    assert batch.stats.passed_check == batch.stats.screen_checks == 64
    assert batch.stats.screened == 1
    assert len(evaluated) == survivors
    assert batch.stats.eval_cache_lookups == survivors
    assert engine.totals.store_lookups == engine.store_writes == survivors


# -- the disk memo tier -------------------------------------------------------------


EVAL_KEY = "k" * 64

#: The disk tier is asked in one place whatever ladder is attached: none
#: (the tests' ``ladder=None`` default), a shadow ladder whose rung runs
#: (min_keep=1: one of two programs would go), and a screening ladder whose
#: pool of two is too small to eliminate from.
LADDERS = pytest.mark.parametrize(
    "ladder",
    [
        {"rungs": [0.5, 1.0], "min_keep": 1, "mode": "shadow"},
        {"rungs": [0.5, 1.0], "min_keep": 2, "mode": "screen"},
    ],
    ids=["shadow", "screen-small-pool"],
)


def make_store_engine(tmp_path, evaluator=None, ladder=None, **config_kwargs):
    from repro.core.fidelity import FidelitySchedule
    from repro.core.store import EvaluationStore

    engine = make_engine(evaluator, **config_kwargs)
    engine.attach_store(EvaluationStore(tmp_path / "evalstore").bind(EVAL_KEY))
    engine.attach_fidelity(FidelitySchedule.from_ref(ladder))
    return engine


def test_fresh_evaluations_are_persisted_and_warm_start(tmp_path):
    first_evaluator = CountingEvaluator()
    first = make_store_engine(tmp_path, first_evaluator)
    batch = first.process_batch(candidates(["def f(x) { return 7 }"]))
    assert first_evaluator.calls == 1
    assert first.store_writes == 1
    assert batch.stats.store_lookups == 1 and batch.stats.store_hits == 0

    # A brand-new engine (fresh process, cold memory) hits the disk tier.
    second_evaluator = CountingEvaluator()
    second = make_store_engine(tmp_path, second_evaluator)
    batch = second.process_batch(candidates(["def f(x) { return 7 }"]))
    assert second_evaluator.calls == 0
    assert batch.stats.store_hits == 1
    assert batch.stats.unique_evaluations == 1  # memory miss, same as cold
    assert batch.scored[0].score == 7.0


def test_disk_hit_fills_memory_tier(tmp_path):
    make_store_engine(tmp_path).process_batch(candidates(["def f(x) { return 7 }"]))
    engine = make_store_engine(tmp_path, evaluator := CountingEvaluator())
    engine.process_batch(candidates(["def f(x) { return 7 }"]))
    batch = engine.process_batch(candidates(["def f(x) { return 7 }"]))
    assert evaluator.calls == 0
    assert batch.stats.store_lookups == 0  # second batch is a memory hit
    assert batch.stats.eval_cache_hits == 1


def test_cache_tier_events(tmp_path, ladder=None):
    from repro.core.events import CandidateEvaluated

    make_store_engine(tmp_path, ladder=ladder).process_batch(
        candidates(["def f(x) { return 7 }"])
    )
    engine = make_store_engine(tmp_path, ladder=ladder)
    events = []
    engine.events.subscribe(events.append)
    engine.process_batch(
        candidates(
            [
                "def f(x) { return 7 }",   # disk hit
                "def f(x) {  return 7 }",  # canonical duplicate -> memory
                "def f(x) { return 8 }",   # fresh
            ]
        )
    )
    tiers = [e.cache_tier for e in events if isinstance(e, CandidateEvaluated)]
    assert tiers == ["disk", "memory", "fresh"]
    cached = [e.cached for e in events if isinstance(e, CandidateEvaluated)]
    assert cached == [True, True, False]


@LADDERS
def test_cache_tier_events_under_a_ladder(tmp_path, ladder):
    test_cache_tier_events(tmp_path, ladder)


def test_eval_cache_stats_identical_with_and_without_store(tmp_path, ladder=None):
    """The store must not perturb the deterministic round statistics -- nor
    the ladder's decisions, whose pool is every memory miss, warm or cold."""
    from repro.core.fidelity import FidelitySchedule

    sources = [
        "def f(x) { return 7 }",
        "def f(x) {  return 7 }",
        "def f(x) { return 8 }",
    ]
    plain_engine = make_engine()
    plain_engine.attach_fidelity(FidelitySchedule.from_ref(ladder))
    plain = plain_engine.process_batch(candidates(list(sources)))
    cold = make_store_engine(tmp_path, ladder=ladder).process_batch(candidates(list(sources)))
    warm = make_store_engine(tmp_path, ladder=ladder).process_batch(candidates(list(sources)))
    for batch in (cold, warm):
        assert batch.stats.eval_cache_lookups == plain.stats.eval_cache_lookups
        assert batch.stats.eval_cache_hits == plain.stats.eval_cache_hits
        assert batch.stats.unique_evaluations == plain.stats.unique_evaluations
        assert batch.stats.rung_promotions == plain.stats.rung_promotions
        assert batch.stats.rung_eliminations == plain.stats.rung_eliminations
        assert batch.stats.store_lookups == 2
    assert plain.stats.rung_eliminations == (1 if ladder and ladder["mode"] == "shadow" else 0)
    assert cold.stats.store_hits == 0
    assert warm.stats.store_hits == 2


@LADDERS
def test_eval_cache_stats_identical_under_a_ladder(tmp_path, ladder):
    test_eval_cache_stats_identical_with_and_without_store(tmp_path, ladder)


def test_store_get_is_called_once_per_program_still_due_a_full_evaluation(tmp_path, monkeypatch):
    """Counts, in the style of ``tests/integration/test_frontend_counts.py``:
    one ``EvaluationStore.get`` per first-occurrence memory miss, none for an
    in-batch repeat or a memory hit, none for a candidate the ladder
    eliminated."""
    from repro.core.store import EvaluationStore, fidelity_eval_key
    from repro.dsl.codegen import canonical_key

    asked = []
    original = EvaluationStore.get

    def counting_get(self, eval_key, program_key):
        asked.append((eval_key, program_key))
        return original(self, eval_key, program_key)

    monkeypatch.setattr(EvaluationStore, "get", counting_get)

    def full_fidelity_gets():
        return [program_key for eval_key, program_key in asked if eval_key == EVAL_KEY]

    sources = [f"def f(x) {{ return {n} }}" for n in (1, 2, 3, 4, 5, 6)]
    sources.insert(1, "def f(x) {  return 1 }")  # in-batch repeat of the first

    engine = make_store_engine(tmp_path / "plain")
    batch = engine.process_batch(candidates(sources))
    assert len(full_fidelity_gets()) == len(set(full_fidelity_gets())) == 6
    assert batch.stats.store_lookups == batch.stats.unique_evaluations == 6
    asked.clear()
    engine.process_batch(candidates(sources))  # all memory hits now
    assert asked == []

    # eta=3 keeps 2 of 6 after the 0.5 rung: only those two reach the disk tier.
    engine = make_store_engine(tmp_path / "ladder", ladder=[0.5, 1.0])
    batch = engine.process_batch(candidates(sources))
    assert batch.stats.rung_eliminations == 4 and batch.stats.unique_evaluations == 6
    kept = [canonical_key(s.program) for s in batch.scored if s.evaluation.full_fidelity]
    assert len(kept) == 2 and sorted(full_fidelity_gets()) == sorted(kept)
    assert batch.stats.store_lookups == 2
    rung_gets = [key for eval_key, key in asked if eval_key == fidelity_eval_key(EVAL_KEY, 0.5)]
    assert len(rung_gets) == len(set(rung_gets)) == 6


def test_transient_failures_not_written_to_store(tmp_path):
    evaluator = CountingEvaluator(delay_s=5.0)
    engine = make_store_engine(
        tmp_path, evaluator, max_workers=2, executor="thread", eval_timeout_s=0.1
    )
    engine.process_batch(candidates(["def f(x) { return 1 }"]))
    assert engine.store_writes == 0
    evaluator.delay_s = 0.0
    fresh = make_store_engine(tmp_path, evaluator)
    batch = fresh.process_batch(candidates(["def f(x) { return 1 }"]))
    assert batch.scored[0].evaluation.valid
    assert batch.scored[0].score == 1.0


def test_memo_snapshot_roundtrip():
    engine = make_engine()
    engine.process_batch(candidates(["def f(x) { return 7 }"]))
    snapshot = engine.memo_snapshot()
    assert len(snapshot) == 1
    fresh_evaluator = CountingEvaluator()
    fresh = make_engine(fresh_evaluator)
    fresh.restore_memo(snapshot)
    batch = fresh.process_batch(candidates(["def f(x) { return 7 }"]))
    assert fresh_evaluator.calls == 0
    assert batch.scored[0].score == 7.0
