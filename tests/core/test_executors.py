"""The executor layer: the pool table, backend parity, crash rescue."""

import os
from concurrent.futures import BrokenExecutor

import pytest

from pool_helpers import CrashOnceEvaluator, HangingEvaluator, InterpEvaluator
from repro.core import engine as engine_module
from repro.core.checker import StructuralChecker
from repro.core.engine import BatchStats, EngineConfig, EvaluationEngine
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.executors import (
    POOLS,
    EvalUnit,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
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
    # In-process unless a test asks for workers: tests read the evaluator's
    # own counters, which a pool worker's copy would keep instead.
    return EvaluationEngine(
        StructuralChecker(template),
        evaluator or ConstEvaluator(),
        config=EngineConfig(**{"max_workers": 1, **config_kwargs}),
    )


# -- the pool table -----------------------------------------------------------------


def test_builtin_backends_registered():
    """The two pools are a literal table; in-process is ``max_workers: 1``."""
    assert POOLS == {"thread": ThreadExecutor, "process": ProcessExecutor}


def test_async_backend_is_gone_and_rejected_by_name():
    with pytest.raises(ValueError, match=r"unknown executor 'async'.*available: \["):
        EngineConfig(executor="async")


def test_engine_config_accepts_any_registered_backend():
    for name in POOLS:
        assert EngineConfig(executor=name).executor == name
    with pytest.raises(ValueError, match="unknown executor"):
        EngineConfig(executor="gpu")
    with pytest.raises(ValueError, match="in-process evaluation is max_workers: 1"):
        EngineConfig(executor="serial")


def test_create_executor_unknown_name():
    """With no ``create_executor`` step, an unknown name fails where the
    config is built, naming the pools."""
    message = r"unknown executor 'gpu'; available: \['process', 'thread'\]"
    with pytest.raises(ValueError, match=message):
        EngineConfig(executor="gpu")


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
    assert type(engine._executor) is SerialExecutor
    engine.close()


# -- crash rescue -------------------------------------------------------------------

#: Unit 1 hard-kills its worker; the others are ordinary.  Enough programs
#: that each of the 4 x max_workers chunks holds several units.
CRASH_SOURCES = [f"def f(x) {{ return {n} }}" for n in (3, 1000, *range(7, 205, 11))]
TRIGGER = 1000.0


def crash_units(sharded):
    programs = [parse(source) for source in CRASH_SOURCES]
    if not sharded:
        return [EvalUnit(program=program) for program in programs]
    return [
        EvalUnit(program=program, scenario=index)
        for program in programs
        for index in range(2)
    ]


def crash_evaluators(marker, sharded):
    """(evaluator whose worker dies on the trigger, crash-free reference)."""
    crashing = CrashOnceEvaluator(marker, TRIGGER)
    if not sharded:
        return crashing, InterpEvaluator()
    return (
        MultiScenarioEvaluator([("a", InterpEvaluator()), ("b", crashing)]),
        MultiScenarioEvaluator([("a", InterpEvaluator()), ("b", InterpEvaluator())]),
    )


def record_submissions(monkeypatch):
    """Every ``(pool, chunk, future)`` the process executor submits, in order."""
    submitted = []
    submit = ProcessExecutor._submit

    def spy(self, pool, chunk):
        future = submit(self, pool, chunk)
        submitted.append((pool, chunk, future))
        return future

    monkeypatch.setattr(ProcessExecutor, "_submit", spy)
    return submitted


@pytest.mark.parametrize("sharded", [False, True], ids=["whole", "sharded"])
def test_killed_process_worker_costs_time_never_a_score(tmp_path, monkeypatch, sharded):
    """A worker that dies mid-chunk breaks the pool: every unit of the chunk
    it held and of every chunk still queued is evaluated inline by the
    coordinator, with the scores a serial run gives, and the next batch gets
    a fresh pool."""
    marker = tmp_path / "crashed-once"
    evaluator, reference = crash_evaluators(marker, sharded)
    units = crash_units(sharded)
    serial = SerialExecutor(EngineConfig(), reference).run_units(units, BatchStats())
    submitted = record_submissions(monkeypatch)
    executor = ProcessExecutor(EngineConfig(executor="process", max_workers=2), evaluator)
    stats = BatchStats()
    try:
        results = executor.run_units(units, stats)
        first = submitted[:]
        again = executor.run_units(units, BatchStats())
    finally:
        executor.close()

    assert marker.exists()  # a worker really died
    assert [r.score for r in results] == [r.score for r in serial]
    assert all(r.valid and not r.transient for r in results)
    assert stats.eval_timeouts == 0
    # A few strided chunks of several units each, covering every unit once.
    position = {id(unit): index for index, unit in enumerate(units)}
    future_of = {
        position[id(unit)]: future for _pool, chunk, future in first for unit in chunk
    }
    assert len(first) == 8 and min(len(chunk) for _pool, chunk, _future in first) >= 2
    assert sorted(future_of) == list(range(len(units)))
    coordinator = float(os.getpid())
    crashed = 3 if sharded else 1  # the trigger program's crashing unit
    assert isinstance(future_of[crashed].exception(), BrokenExecutor)
    for index, result in enumerate(results):
        future = future_of[index]
        lost = future.cancelled() or isinstance(future.exception(), BrokenExecutor)
        assert (result.details["pid"] == coordinator) == lost

    # The broken pool was discarded: the second batch ran on a new one,
    # entirely in workers, with the same scores.
    broken = first[0][0]
    assert all(pool is broken for pool, _chunk, _future in first)
    fresh = submitted[len(first)][0]
    assert fresh is not broken
    assert all(pool is fresh for pool, _chunk, _future in submitted[len(first):])
    assert [r.score for r in again] == [r.score for r in serial]
    assert coordinator not in {r.details["pid"] for r in again}


# -- timeouts -----------------------------------------------------------------------


def test_a_timeout_alone_is_enforced_on_a_multicore_box(tmp_path, monkeypatch):
    """A config that names ``eval_timeout_s`` but not ``max_workers`` gets a
    worker per usable CPU, so the timeout bounds the hung unit."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine_module, "_cgroup_cpu_quota", lambda: None)
    release = tmp_path / "release"
    engine = EvaluationEngine(
        StructuralChecker(make_template()),
        HangingEvaluator(release, trigger_score=3.0),
        config=EngineConfig(eval_timeout_s=2.0),
    )
    try:
        batch = engine.process_batch(candidates(SOURCES))
    finally:
        release.touch()
        engine.close()
    assert batch.stats.eval_timeouts == 1
    assert [s.evaluation.transient for s in batch.scored] == [False] * 3 + [True] + [False] * 2
    assert "timed out" in batch.scored[3].evaluation.error


def test_process_timeout_costs_only_the_hung_unit(tmp_path, monkeypatch):
    """With ``eval_timeout_s`` set each unit is a task of its own: one hung
    unit times out alone, and its batch-mates score as a serial run does."""
    release = tmp_path / "release"
    units = [EvalUnit(program=parse(source), failure_score=-1.0) for source in SOURCES]
    serial = SerialExecutor(EngineConfig(), InterpEvaluator()).run_units(units, BatchStats())
    executor = ProcessExecutor(
        EngineConfig(max_workers=2, eval_timeout_s=2.0),
        HangingEvaluator(release, trigger_score=3.0),
    )
    try:
        executor.run_units(units[:2], BatchStats())  # the pool is up before any wait
        submitted = record_submissions(monkeypatch)
        stats = BatchStats()
        results = executor.run_units(units, stats)
    finally:
        release.touch()
        executor.close()

    assert [len(chunk) for _pool, chunk, _future in submitted] == [1] * len(units)
    assert stats.eval_timeouts == 1
    hung = results.pop(3)
    assert not hung.valid and hung.transient and "timed out" in hung.error
    assert hung.score == -1.0
    del serial[3]
    assert [r.score for r in results] == [r.score for r in serial]
    assert all(r.valid and not r.transient for r in results)
