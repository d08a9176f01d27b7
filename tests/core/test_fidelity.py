"""Tests of the multi-fidelity evaluation scheduler (successive halving)."""

import pytest

from repro.core.checker import StructuralChecker
from repro.core.engine import EngineConfig, EvaluationEngine
from repro.core.evaluator import EvaluationResult, Evaluator, FunctionEvaluator
from repro.core.events import CandidateEliminated, CandidatePromoted, EventBus
from repro.core.fidelity import DEFAULT_RUNGS, FidelitySchedule
from repro.core.results import Candidate
from repro.core.store import EvaluationStore, fidelity_eval_key
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


class ScalableEvaluator(Evaluator):
    """Full score = the program's constant; rung scores can lie.

    ``decoys`` maps a program constant to the score it receives at any
    sub-full fidelity, so tests can steer who survives screening.  All
    copies share one ``log`` of ``(fraction, value)`` evaluation records.
    """

    def __init__(self, fraction=1.0, decoys=None, log=None):
        self.fraction = fraction
        self.decoys = dict(decoys or {})
        self.log = log if log is not None else []

    def evaluate_program(self, program):
        value = float(Interpreter().run(program, {"x": 0}))
        self.log.append((self.fraction, value))
        score = value
        if self.fraction < 1.0 and value in self.decoys:
            score = self.decoys[value]
        return EvaluationResult(score=score, valid=True)

    def at_fidelity(self, fraction):
        if fraction == 1.0:
            return self
        return ScalableEvaluator(fraction, self.decoys, self.log)


def candidates(values):
    return [
        Candidate(
            candidate_id=f"c{i}",
            source=f"def f(x) {{ return {value} }}",
            round_index=1,
        )
        for i, value in enumerate(values, start=1)
    ]


def make_engine(evaluator, fidelity=None, events=None, **config_kwargs):
    template = make_template()
    # In-process unless a test asks for workers: tests read the evaluator's
    # own log, which a pool worker's copy would keep instead.
    return EvaluationEngine(
        StructuralChecker(template),
        evaluator,
        config=EngineConfig(**{"max_workers": 1, **config_kwargs}),
        events=events,
        fidelity=fidelity,
    )


# -- schedule validation and round-trip ---------------------------------------------


def test_schedule_defaults_are_valid():
    schedule = FidelitySchedule()
    assert schedule.rungs == DEFAULT_RUNGS
    assert schedule.mode == "screen"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rungs": ()},
        {"rungs": (0.5, 0.2, 1.0)},  # not ascending
        {"rungs": (0.5, 0.5, 1.0)},  # duplicate
        {"rungs": (0.1, 0.5)},  # last rung not 1.0
        {"rungs": (0.0, 1.0)},  # fraction out of range
        {"rungs": (0.1, 1.5)},  # fraction out of range
        {"eta": 1.0},
        {"min_keep": 0},
        {"mode": "turbo"},
    ],
)
def test_schedule_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        FidelitySchedule(**kwargs)


def test_schedule_from_ref_forms():
    assert FidelitySchedule.from_ref(None) is None
    from_list = FidelitySchedule.from_ref([0.25, 1.0])
    assert from_list.rungs == (0.25, 1.0)
    from_dict = FidelitySchedule.from_ref(
        {"rungs": [0.1, 1.0], "eta": 4, "min_keep": 3, "mode": "shadow"}
    )
    assert from_dict.eta == 4.0 and from_dict.min_keep == 3
    assert FidelitySchedule.from_ref(from_dict) is from_dict
    assert FidelitySchedule.from_ref(from_dict.to_ref()) == from_dict
    with pytest.raises(ValueError):
        FidelitySchedule.from_ref({"rungs": [0.1, 1.0], "keep": 2})
    # Malformed refs come from user-authored JSON: always ValueError, never
    # a bare TypeError the CLI would turn into a traceback.
    with pytest.raises(ValueError):
        FidelitySchedule.from_ref(0.5)
    with pytest.raises(ValueError):
        FidelitySchedule.from_ref("fast")
    with pytest.raises(ValueError):
        FidelitySchedule.from_ref({"rungs": 0.5})


def test_keep_count_and_survivor_selection():
    schedule = FidelitySchedule(rungs=(0.1, 1.0), eta=3.0, min_keep=2)
    assert schedule.keep_count(9) == 3
    assert schedule.keep_count(4) == 2  # min_keep floor
    assert schedule.keep_count(2) == 2
    assert schedule.keep_count(0) == 0
    # Ties break by submission order; survivors come back in submission order.
    assert schedule.select_survivors([1.0, 3.0, 3.0, 2.0, 0.0, 0.0]) == [1, 2]
    assert schedule.select_survivors([5.0, 5.0, 5.0]) == [0, 1]


def test_plan_skips_rungs_that_cannot_eliminate():
    schedule = FidelitySchedule(rungs=(0.1, 0.3, 1.0), eta=3.0, min_keep=2)
    assert schedule.plan(9) == [(0, 0.1, 9), (1, 0.3, 3), (2, 1.0, 2)]
    # A pool at or below min_keep never screens at all.
    assert schedule.plan(2) == [(2, 1.0, 2)]
    # A mid-ladder pool small enough to keep whole skips that rung but keeps
    # its original rung index for the next one.
    wide = FidelitySchedule(rungs=(0.1, 0.3, 1.0), eta=5.0, min_keep=2)
    assert wide.plan(10) == [(0, 0.1, 10), (2, 1.0, 2)]


# -- engine integration -------------------------------------------------------------


def test_screen_mode_evaluates_survivors_only_at_full_fidelity():
    log = []
    evaluator = ScalableEvaluator(log=log)
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, min_keep=2)
    engine = make_engine(evaluator, fidelity=schedule)
    batch = engine.process_batch(candidates(range(9)))

    rung_evals = [entry for entry in log if entry[0] == 0.5]
    full_evals = [entry for entry in log if entry[0] == 1.0]
    assert len(rung_evals) == 9
    assert len(full_evals) == 3  # ceil(9 / 3)
    # The honest rung ranks exactly like full fidelity: the top three
    # constants survive, everyone else records a rung-fidelity result.
    assert [value for _f, value in full_evals] == [6.0, 7.0, 8.0]
    screened = [item for item in batch.scored if not item.full_fidelity]
    assert len(screened) == 6
    assert all(item.evaluation.fidelity == 0.5 for item in screened)
    assert batch.stats.rung_evaluations == 9
    assert batch.stats.rung_promotions == 3
    assert batch.stats.rung_eliminations == 6
    assert batch.stats.unique_evaluations == 9  # memory-tier misses


def test_screen_mode_records_misleading_rung_scores_at_rung_fidelity():
    # Constant 0 scores 100.0 at the rung, so it steals a promotion slot.
    log = []
    evaluator = ScalableEvaluator(decoys={0.0: 100.0}, log=log)
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, min_keep=2)
    engine = make_engine(evaluator, fidelity=schedule)
    batch = engine.process_batch(candidates(range(9)))
    by_value = {item.candidate.source: item for item in batch.scored}
    decoy = by_value["def f(x) { return 0 }"]
    # The decoy was promoted and re-scored at full fidelity: 0.0, not 100.0.
    assert decoy.full_fidelity and decoy.score == 0.0
    # The true #3 (constant 6) was screened out; its recorded score is its
    # rung score, marked as sub-full fidelity.
    bumped = by_value["def f(x) { return 6 }"]
    assert not bumped.full_fidelity
    assert bumped.evaluation.fidelity == 0.5 and bumped.score == 6.0


def test_shadow_mode_evaluates_everyone_and_matches_ladder_off():
    log = []
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, mode="shadow")
    engine = make_engine(ScalableEvaluator(log=log), fidelity=schedule)
    shadow = engine.process_batch(candidates(range(9)))
    plain = make_engine(ScalableEvaluator()).process_batch(candidates(range(9)))
    assert [item.score for item in shadow.scored] == [
        item.score for item in plain.scored
    ]
    assert all(item.full_fidelity for item in shadow.scored)
    assert len([entry for entry in log if entry[0] == 1.0]) == 9
    # The decisions were still taken (telemetry mirrors screen mode).
    assert shadow.stats.rung_evaluations == 9
    assert shadow.stats.rung_eliminations == 6


def test_ladder_emits_promotion_and_elimination_events():
    received = []
    bus = EventBus([received.append])
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, min_keep=2)
    engine = make_engine(ScalableEvaluator(), fidelity=schedule, events=bus)
    engine.process_batch(candidates(range(9)))
    promoted = [e for e in received if isinstance(e, CandidatePromoted)]
    eliminated = [e for e in received if isinstance(e, CandidateEliminated)]
    assert len(promoted) == 3 and len(eliminated) == 6
    assert {e.fraction for e in promoted + eliminated} == {0.5}
    assert all(e.kept == 3 and e.pool == 9 for e in promoted)
    # Event ids name real candidates of the batch.
    assert {e.candidate_id for e in promoted} == {"c7", "c8", "c9"}


def test_rung_results_are_memoized_across_batches():
    log = []
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, min_keep=2)
    engine = make_engine(ScalableEvaluator(log=log), fidelity=schedule)
    engine.process_batch(candidates(range(9)))
    first_total = len(log)
    # The same batch again: the three survivors hit the plain memo, the six
    # screened-out programs re-enter the ladder (pool of 6, keep 2) but
    # every rung score comes from the rung memo -- only the two newly
    # promoted programs cost a fresh (full) evaluation.
    batch = engine.process_batch(candidates(range(9)))
    assert len(log) == first_total + 2
    assert batch.stats.rung_evaluations == 0


def test_small_pools_skip_the_ladder():
    log = []
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, min_keep=2)
    engine = make_engine(ScalableEvaluator(log=log), fidelity=schedule)
    engine.process_batch(candidates(range(2)))
    assert [fraction for fraction, _v in log] == [1.0, 1.0]


def test_attach_fidelity_rejects_unscalable_evaluators():
    engine = make_engine(FunctionEvaluator(lambda program: 1.0))
    # FunctionEvaluator scales (identity), so build a hostile one.

    class Rigid(Evaluator):
        def evaluate_program(self, program):
            return EvaluationResult(score=0.0)

    engine = EvaluationEngine(StructuralChecker(make_template()), Rigid())
    with pytest.raises(ValueError, match="scalable evaluator"):
        engine.attach_fidelity(FidelitySchedule())
    assert engine.fidelity is None


# -- store keying -------------------------------------------------------------------


def test_fidelity_eval_key_is_identity_at_full_fidelity():
    assert fidelity_eval_key("abc", 1.0) == "abc"
    low = fidelity_eval_key("abc", 0.1)
    assert low != "abc" and low != fidelity_eval_key("abc", 0.3)
    assert low == fidelity_eval_key("abc", 0.1)


def test_rung_results_persist_under_qualified_keys(tmp_path):
    store = EvaluationStore(tmp_path)
    bound = store.bind("e" * 64)
    rung = bound.at_fidelity(0.25)
    result = EvaluationResult(score=0.5, fidelity=0.25)
    assert rung.put("p" * 40, result)
    loaded = rung.at_fidelity(1.0).get("p" * 40)  # same view: 1.0 is identity
    assert loaded is not None and loaded.fidelity == 0.25
    # The plain view must not see the rung entry.
    assert bound.get("p" * 40) is None


def test_warm_store_does_not_change_screening_decisions(tmp_path):
    """The ladder pool is store-independent: a warm full-fidelity store
    serves the promoted pool but never shrinks the screening pool."""
    schedule = FidelitySchedule(rungs=(0.5, 1.0), eta=3.0, min_keep=2)
    store = EvaluationStore(tmp_path)

    def run_batch():
        log = []
        engine = make_engine(ScalableEvaluator(log=log), fidelity=schedule)
        engine.attach_store(store.bind("f" * 64))
        batch = engine.process_batch(candidates(range(9)))
        return batch, log

    cold, _cold_log = run_batch()
    warm, warm_log = run_batch()
    assert [item.score for item in warm.scored] == [
        item.score for item in cold.scored
    ]
    assert [item.evaluation.fidelity for item in warm.scored] == [
        item.evaluation.fidelity for item in cold.scored
    ]
    # Warm run evaluated nothing: rungs and finals all came from the store.
    assert warm_log == []
    assert warm.stats.store_hits == warm.stats.store_lookups == 3
