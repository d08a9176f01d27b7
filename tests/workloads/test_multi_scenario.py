"""Multi-scenario fitness: reducers, engine sharding, events and artifacts.

That a matrix run's bytes are the same on every rerun and under every pool
is asserted by the conformance matrix
(``tests/integration/test_golden_results.py``, its ``smoke_matrix`` and
``matrix_cc`` cells).
"""

import json

import pytest

from repro.core import artifacts
from repro.core.evaluator import EvaluationResult, FunctionEvaluator
from repro.core.events import CandidateEvaluated, RoundCompleted
from repro.core.scenarios import MultiScenarioEvaluator, ScoreReducer
from repro.core.spec import RunSpec, run

CACHING_MATRIX = [
    {"name": "caching/zipf-hot", "num_requests": 900, "num_objects": 250},
    {"name": "caching/scan-storm", "num_requests": 900, "num_objects": 250},
    {"name": "caching/adversarial-loop", "num_requests": 900, "num_objects": 250},
]

CC_MATRIX = [
    {"name": "cc/single-flow", "duration_s": 1.0},
    {"name": "cc/multi-flow", "duration_s": 1.0},
    {"name": "cc/lossy-link", "duration_s": 1.0},
]


def _matrix_spec(domain, matrix, engine=None, reducer="mean", seed=5):
    return RunSpec(
        domain=domain,
        name=f"{domain}-matrix",
        domain_kwargs={"workloads": matrix, "reducer": reducer},
        search={"rounds": 2, "candidates_per_round": 4},
        engine=engine or {},
        seed=seed,
    )


# -- reducers -----------------------------------------------------------------------


def test_reducer_kinds():
    scores = {"a": 1.0, "b": 0.0, "c": -1.0}
    assert ScoreReducer.from_ref("mean").reduce(scores) == pytest.approx(0.0)
    assert ScoreReducer.from_ref("worst").reduce(scores) == -1.0
    weighted = ScoreReducer.from_ref(
        {"kind": "weighted", "weights": {"a": 2.0, "b": 1.0, "c": 1.0}}
    )
    assert weighted.reduce(scores) == pytest.approx((2.0 - 1.0) / 4.0)


def test_reducer_validation():
    with pytest.raises(ValueError, match="unknown reducer kind"):
        ScoreReducer.from_ref("median")
    with pytest.raises(ValueError, match="weights"):
        ScoreReducer.create("weighted")
    with pytest.raises(ValueError, match="does not take weights"):
        ScoreReducer.create("mean", weights={"a": 1.0})
    reducer = ScoreReducer.create("weighted", weights={"a": 1.0})
    with pytest.raises(ValueError, match="cover the scenario matrix"):
        reducer.validate_names(["a", "b"])
    # Round trip through the declarative form.
    assert ScoreReducer.from_ref(reducer.to_ref()) == reducer
    assert ScoreReducer.from_ref("worst").to_ref() == "worst"


# -- MultiScenarioEvaluator ---------------------------------------------------------


def _constant_evaluators(values):
    return [
        (name, FunctionEvaluator(lambda _p, v=value: v, name=name))
        for name, value in values.items()
    ]


def test_combine_records_scenario_scores_and_details():
    from repro.dsl.parser import parse

    program = parse(
        "def priority(now, obj_id, obj_info, counts, ages, sizes, history) "
        "{\n    return 1\n}\n"
    )
    evaluator = MultiScenarioEvaluator(
        _constant_evaluators({"s1": 2.0, "s2": 4.0}), ScoreReducer.from_ref("mean")
    )
    result = evaluator.evaluate(program)
    assert result.valid
    assert result.score == pytest.approx(3.0)
    assert result.scenario_scores == {"s1": 2.0, "s2": 4.0}


def test_combine_invalid_when_any_scenario_fails():
    evaluator = MultiScenarioEvaluator(
        _constant_evaluators({"ok": 1.0, "bad": 0.0}), ScoreReducer.from_ref("mean")
    )
    results = [
        EvaluationResult(score=1.0, valid=True),
        EvaluationResult.failure("boom", score=-5.0),
    ]
    combined = evaluator.combine(results)
    assert not combined.valid
    assert "bad: boom" in combined.error
    assert combined.score == pytest.approx(-2.0)
    # Transient sub-failures poison memoization of the aggregate.
    results[1] = EvaluationResult.failure("timeout", score=-5.0, transient=True)
    assert evaluator.combine(results).transient


def test_duplicate_scenario_names_rejected():
    with pytest.raises(ValueError, match="duplicate scenario name"):
        MultiScenarioEvaluator(_constant_evaluators({"s": 1.0}) * 2)


def test_failure_score_reduces_over_scenarios():
    evaluator = MultiScenarioEvaluator(
        _constant_evaluators({"a": 0.0, "b": 0.0}), ScoreReducer.from_ref("worst")
    )
    assert evaluator.failure_score == float("-inf")


# -- engine sharding ----------------------------------------------------------------


@pytest.mark.parametrize("engine", [{"max_workers": 1}], ids=["serial"])
def test_matrix_results_identical_across_executors(engine):
    """In-process against the default pool, which shards the matrix: the
    conformance matrix has no caching-matrix cell pair that sets these two
    against each other at one digest (its thread and process cells are)."""
    baseline = run(_matrix_spec("caching", CACHING_MATRIX)).result
    result = run(_matrix_spec("caching", CACHING_MATRIX, engine=engine)).result
    assert artifacts.search_result_to_dict(result) == artifacts.search_result_to_dict(
        baseline
    )
    assert result.best.evaluation.scenario_scores.keys() == {
        "caching/zipf-hot",
        "caching/scan-storm",
        "caching/adversarial-loop",
    }


def test_worst_case_reducer_changes_fitness_not_scenarios():
    mean_run = run(_matrix_spec("caching", CACHING_MATRIX, reducer="mean")).result
    worst_run = run(_matrix_spec("caching", CACHING_MATRIX, reducer="worst")).result
    best = worst_run.best
    assert best.score == pytest.approx(min(best.evaluation.scenario_scores.values()))
    mean_best = mean_run.best
    assert mean_best.score == pytest.approx(
        sum(mean_best.evaluation.scenario_scores.values())
        / len(mean_best.evaluation.scenario_scores)
    )


# -- events / rounds / artifacts ----------------------------------------------------


def test_scenario_scores_flow_into_rounds_events_and_artifacts(tmp_path):
    events = []
    spec = _matrix_spec("cc", CC_MATRIX, seed=2)
    outcome = run(spec, store=tmp_path, subscribers=[events.append])
    names = {"cc/single-flow", "cc/multi-flow", "cc/lossy-link"}

    # RoundSummary carries per-scenario bests.
    for summary in outcome.result.rounds:
        if summary.evaluated:
            assert set(summary.scenario_best) == names

    # Events carry the breakdown.
    evaluated = [e for e in events if isinstance(e, CandidateEvaluated) and e.valid]
    assert evaluated and all(set(e.scenario_scores) == names for e in evaluated)
    rounds = [e for e in events if isinstance(e, RoundCompleted)]
    assert rounds and set(rounds[-1].scenario_best) == names

    # Artifacts: result.json and rounds.jsonl record the breakdown...
    stored = json.loads((outcome.artifact_dir / "result.json").read_text())
    best = next(
        c
        for c in stored["candidates"]
        if c["candidate"]["candidate_id"] == stored["best_candidate_id"]
    )
    assert set(best["evaluation"]["scenario_scores"]) == names
    rounds_lines = [
        json.loads(line)
        for line in (outcome.artifact_dir / "rounds.jsonl").read_text().splitlines()
    ]
    assert set(rounds_lines[-1]["scenario_best"]) == names
    # ... and events.jsonl too.
    event_lines = [
        json.loads(line)
        for line in (outcome.artifact_dir / "events.jsonl").read_text().splitlines()
    ]
    candidate_events = [
        e for e in event_lines if e["event"] == "candidate_evaluated" and e["valid"]
    ]
    assert candidate_events and set(candidate_events[0]["scenario_scores"]) == names


# -- spec / build_search validation -------------------------------------------------


def test_workloads_must_match_domain():
    spec = _matrix_spec("cc", [{"name": "caching/zipf-hot"}])
    with pytest.raises(ValueError, match="do not belong to domain"):
        run(spec)


def test_reducer_without_workloads_rejected():
    from repro.core.domain import build_search

    with pytest.raises(ValueError, match="reducer= only applies"):
        build_search("cc", reducer="mean", duration_s=1.0)


def test_single_scenario_kwargs_rejected_alongside_matrix():
    """Per-scenario kwargs must fail loudly in matrix mode, not be ignored."""
    from repro.core.domain import build_search

    with pytest.raises(TypeError, match="no effect alongside a workloads"):
        build_search(
            "caching", workloads=["caching/zipf-hot"], cache_fraction=0.02
        )
    with pytest.raises(TypeError, match="workload references"):
        build_search("cc", workloads=["cc/single-flow"], duration_s=1.0)
    # backend= stays meaningful (shared by every scenario evaluator).
    setup = build_search(
        "caching",
        workloads=[{"name": "caching/zipf-hot", "num_requests": 300}],
        backend="interpreter",
    )
    assert setup.evaluator.scenarios[0][1].backend == "interpreter"


def test_checkpointed_matrix_run_resumes_identically(tmp_path):
    spec = RunSpec(
        domain="caching",
        name="matrix-ckpt",
        domain_kwargs={"workloads": CACHING_MATRIX, "reducer": "mean"},
        search={"rounds": 3, "candidates_per_round": 3},
        checkpoint=True,
        seed=11,
    )
    full = run(spec, store=tmp_path / "full")

    # Interrupt after round 1 by running a 1-round copy into the resume dir,
    # then resume with the full spec.
    partial_spec = RunSpec.from_dict(
        {**spec.to_dict(), "search": {"rounds": 1, "candidates_per_round": 3}}
    )
    resume_dir = tmp_path / "resumed" / "run"
    run(partial_spec, run_dir=resume_dir)
    resumed = run(spec, run_dir=resume_dir)
    assert artifacts.search_result_to_dict(
        resumed.result
    ) == artifacts.search_result_to_dict(full.result)
