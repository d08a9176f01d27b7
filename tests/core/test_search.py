"""Evolutionary-search loop tests using controllable fake components."""

from typing import List, Optional

import pytest

from repro.core.checker import StructuralChecker
from repro.core.evaluator import EvaluationResult, Evaluator, FunctionEvaluator
from repro.core.search import EvolutionarySearch, SearchConfig
from repro.core.template import Template
from repro.dsl import parse
from repro.dsl.grammar import FeatureSpec


def make_template():
    spec = FeatureSpec(
        function_name="f",
        params=["x"],
        scalar_params=["x"],
    )
    return Template(
        name="toy",
        spec=spec,
        description="return a constant as large as possible",
        constraints=["return a number"],
        seed_programs=[parse("def f(x) { return 1 }")],
    )


class ScriptedGenerator:
    """Generator returning pre-scripted candidates; records what it saw."""

    def __init__(self, rounds: List[List[str]], repairs: Optional[dict] = None):
        self.rounds = rounds
        self.repairs = repairs or {}
        self.seen_parents: List[List[tuple]] = []
        self.repair_calls: List[str] = []

    def generate(self, parents, num_candidates):
        self.seen_parents.append(list(parents))
        if not self.rounds:
            return []
        return self.rounds.pop(0)[:num_candidates]

    def repair(self, source, feedback):
        self.repair_calls.append(source)
        return self.repairs.get(source)


class ConstantEvaluator(Evaluator):
    """Scores a program by the constant it returns (interpreted with x=0)."""

    def evaluate_program(self, program):
        from repro.dsl import Interpreter

        value = Interpreter().run(program, {"x": 0})
        return EvaluationResult(score=float(value), valid=True)


def run_search(generator, config=None):
    template = make_template()
    return EvolutionarySearch(
        template,
        generator,
        StructuralChecker(template),
        ConstantEvaluator(),
        config or SearchConfig(rounds=len(generator.rounds), candidates_per_round=4),
    ).run()


def test_seeds_are_evaluated_and_best_selected():
    generator = ScriptedGenerator([
        ["def f(x) { return 5 }", "def f(x) { return 3 }"],
        ["def f(x) { return 9 }"],
    ])
    result = run_search(generator)
    assert result.best.score == 9
    assert result.total_candidates == 1 + 2 + 1   # seed + round1 + round2
    assert [r.generated for r in result.rounds] == [2, 1]
    assert result.score_trajectory() == [5, 9]


def test_parents_are_top_k_across_all_rounds():
    generator = ScriptedGenerator([
        ["def f(x) { return 10 }", "def f(x) { return 7 }"],
        ["def f(x) { return 2 }"],
        ["def f(x) { return 1 }"],
    ])
    run_search(generator, SearchConfig(rounds=3, candidates_per_round=4, top_k_parents=2))
    # Round 1 sees only the seed; round 2 sees the two best so far (10, 7);
    # round 3 still sees (10, 7) because round 2 produced nothing better.
    assert [score for _s, score in generator.seen_parents[0]] == [1.0]
    assert [score for _s, score in generator.seen_parents[1]] == [10.0, 7.0]
    assert [score for _s, score in generator.seen_parents[2]] == [10.0, 7.0]


def test_invalid_candidates_trigger_repair_and_count_failures():
    broken = "def f(x) { return y }"          # unknown name
    fixed = "def f(x) { return 42 }"
    generator = ScriptedGenerator([[broken]], repairs={broken: fixed})
    result = run_search(generator, SearchConfig(rounds=1, candidates_per_round=4))
    assert result.best.score == 42
    assert generator.repair_calls == [broken]
    assert result.rounds[0].passed_after_repair == 1
    assert result.first_pass_check_rate() == 0.0
    assert result.repaired_check_rate() == 1.0


def test_failed_repair_keeps_candidate_invalid():
    broken = "def f(x) { return y }"
    generator = ScriptedGenerator([[broken]], repairs={broken: broken})
    result = run_search(generator, SearchConfig(rounds=1, candidates_per_round=4))
    assert result.best.score == 1               # only the seed is valid
    assert result.rounds[0].failure_codes.get("unknown-name", 0) >= 1


def test_repair_disabled():
    broken = "def f(x) { return y }"
    generator = ScriptedGenerator([[broken]], repairs={broken: "def f(x) { return 99 }"})
    result = run_search(
        generator, SearchConfig(rounds=1, candidates_per_round=4, repair_attempts=0)
    )
    assert generator.repair_calls == []
    assert result.best.score == 1


def test_search_without_seeds():
    generator = ScriptedGenerator([["def f(x) { return 4 }"]])
    template = make_template()
    result = EvolutionarySearch(
        template,
        generator,
        StructuralChecker(template),
        ConstantEvaluator(),
        SearchConfig(rounds=1, candidates_per_round=4, include_seeds=False),
    ).run()
    assert result.best.score == 4
    assert all(c.candidate.origin != "seed" for c in result.candidates)


def test_search_with_no_valid_candidates_returns_none():
    generator = ScriptedGenerator([["def f(x) { return y }"]])
    template = make_template()
    result = EvolutionarySearch(
        template,
        generator,
        StructuralChecker(template),
        ConstantEvaluator(),
        SearchConfig(rounds=1, candidates_per_round=4, include_seeds=False, repair_attempts=0),
    ).run()
    assert result.best is None
    with pytest.raises(ValueError):
        result.best_source()


def test_evaluator_failure_is_not_fatal():
    template = make_template()
    evaluator = FunctionEvaluator(lambda program: 1 / 0)   # always crashes
    generator = ScriptedGenerator([["def f(x) { return 2 }"]])
    result = EvolutionarySearch(
        template,
        generator,
        StructuralChecker(template),
        evaluator,
        SearchConfig(rounds=1, candidates_per_round=1, include_seeds=False),
    ).run()
    assert result.best is None
    assert not result.candidates[0].valid
    assert "ZeroDivisionError" in result.candidates[0].evaluation.error


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(rounds=0)
    with pytest.raises(ValueError):
        SearchConfig(candidates_per_round=0)
    with pytest.raises(ValueError):
        SearchConfig(top_k_parents=0)
    with pytest.raises(ValueError):
        SearchConfig(repair_attempts=-1)
    with pytest.raises(ValueError, match="search.rounds must be an integer, got str '3'"):
        SearchConfig(rounds="3")
