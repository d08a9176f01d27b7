"""The pluggable executor layer: registry and backend parity."""

import pytest

from repro.core.checker import StructuralChecker
from repro.core.engine import EngineConfig, EvaluationEngine
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.executors import (
    Executor,
    SerialExecutor,
    available_executors,
    create_executor,
    register_executor,
)
from repro.core.results import Candidate
from repro.core.scenarios import MultiScenarioEvaluator
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


class ConstEvaluator(Evaluator):
    def evaluate_program(self, program):
        value = Interpreter().run(program, {"x": 0})
        return EvaluationResult(score=float(value), valid=True)


def candidates(sources):
    return [
        Candidate(candidate_id=f"c{i}", source=source, round_index=1)
        for i, source in enumerate(sources, start=1)
    ]


def make_engine(evaluator=None, **config_kwargs):
    template = make_template()
    return EvaluationEngine(
        StructuralChecker(template),
        evaluator or ConstEvaluator(),
        config=EngineConfig(**config_kwargs) if config_kwargs else None,
    )


# -- registry -----------------------------------------------------------------------


def test_builtin_backends_registered():
    assert available_executors() == ["distributed", "process", "serial", "thread"]


def test_async_backend_is_gone_and_rejected_by_name():
    with pytest.raises(ValueError, match=r"unknown executor 'async'.*available: \["):
        EngineConfig(executor="async")


def test_engine_config_accepts_any_registered_backend():
    for name in available_executors():
        assert EngineConfig(executor=name).executor == name
    with pytest.raises(ValueError, match="unknown executor"):
        EngineConfig(executor="gpu")


def test_create_executor_unknown_name():
    with pytest.raises(KeyError, match="unknown executor"):
        create_executor("gpu", EngineConfig(), ConstEvaluator())


def test_custom_backend_plugs_in():
    class ReversedSerial(SerialExecutor):
        """Evaluates in reverse submission order (results still ordered)."""

        name = "reversed-serial"

        def run_units(self, units, stats):
            results = {}
            for unit in reversed(list(enumerate(units))):
                index, u = unit
                results[index] = self._run_inline(u)
            return [results[i] for i in range(len(units))]

    register_executor(ReversedSerial)
    try:
        assert "reversed-serial" in available_executors()
        engine = make_engine(max_workers=2, executor="reversed-serial")
        batch = engine.process_batch(
            candidates(["def f(x) { return 3 }", "def f(x) { return 4 }"])
        )
        assert [s.score for s in batch.scored] == [3.0, 4.0]
        engine.close()
    finally:
        from repro.core import executors as executors_module

        executors_module._EXECUTORS.pop("reversed-serial", None)


def test_executor_must_declare_a_name():
    class Anonymous(Executor):
        def run_units(self, units, stats):  # pragma: no cover - never runs
            return []

    with pytest.raises(ValueError, match="name"):
        register_executor(Anonymous)


# -- backend parity -----------------------------------------------------------------

SOURCES = [f"def f(x) {{ return {n} }}" for n in range(6)]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_backends_match_serial(executor):
    serial = make_engine().process_batch(candidates(SOURCES))
    parallel_engine = make_engine(max_workers=3, executor=executor)
    parallel = parallel_engine.process_batch(candidates(SOURCES))
    parallel_engine.close()
    assert [s.score for s in parallel.scored] == [s.score for s in serial.scored]
    assert parallel.stats.unique_evaluations == 6


@pytest.mark.parametrize("executor", ["thread"])
def test_backends_match_serial_under_scenario_sharding(executor):
    scenarios = [("a", ConstEvaluator()), ("b", ConstEvaluator())]
    serial = make_engine(MultiScenarioEvaluator(scenarios)).process_batch(
        candidates(SOURCES)
    )
    engine = make_engine(
        MultiScenarioEvaluator(scenarios), max_workers=3, executor=executor
    )
    parallel = engine.process_batch(candidates(SOURCES))
    engine.close()
    assert [s.score for s in parallel.scored] == [s.score for s in serial.scored]
    assert [
        s.evaluation.scenario_scores for s in parallel.scored
    ] == [s.evaluation.scenario_scores for s in serial.scored]


def test_single_worker_runs_serially_whatever_the_backend():
    engine = make_engine(max_workers=1, executor="process")
    engine.process_batch(candidates(["def f(x) { return 1 }"]))
    assert engine._executors[1.0].name == "serial"
    engine.close()
