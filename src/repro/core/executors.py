"""Pluggable evaluation executors: how the engine fans evaluation work out.

The :class:`~repro.core.engine.EvaluationEngine` decides *what* to evaluate
(check/repair, dedup, memo and store tiers); an :class:`Executor` decides
*how* the surviving unique units of work actually run.  A unit
(:class:`EvalUnit`) is either one whole candidate evaluation or -- under
multi-scenario sharding -- one (candidate, scenario) pair.  Executors are
registered by name and selected through
:class:`~repro.core.engine.EngineConfig.executor`, so a new backend plugs in
without touching the engine:

``serial``
    In-process, in submission order.  No timeout or crash isolation (the
    DSL step budget still bounds candidate runtime); this is the reference
    trajectory every other backend must reproduce bit-for-bit.
``thread``
    A reused :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap fan-out
    for evaluators that release the GIL or are I/O-bound; per-unit timeouts
    (timed-out threads are abandoned, not killed).
``process``
    A reused :class:`~concurrent.futures.ProcessPoolExecutor` with the
    evaluator pickled once into each worker.  True parallelism plus hard
    crash isolation: a worker that dies takes neither the pool's results nor
    the search down.

Every backend returns results in submission order and reuses the engine's
failure/timeout conventions, which is what keeps a fixed seed byte-identical
across backends (asserted in the tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.scenarios import MultiScenarioEvaluator
from repro.dsl.ast import Program


@dataclass(frozen=True)
class EvalUnit:
    """One unit of evaluation work.

    ``scenario`` is ``None`` for a whole-candidate evaluation; an index
    selects one scenario of a :class:`MultiScenarioEvaluator` (the engine's
    sharded mode).  ``failure_score`` scores the unit when it times out.
    """

    program: Program
    scenario: Optional[int] = None
    failure_score: float = float("-inf")


# -- process-pool plumbing ----------------------------------------------------------
#
# Pickled callables must be module-level; the evaluator itself is shipped
# once per worker through the pool initializer.

_WORKER_EVALUATOR: Optional[Evaluator] = None


def _init_worker(evaluator: Evaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _evaluate_in_worker(program: Program) -> EvaluationResult:
    assert _WORKER_EVALUATOR is not None, "worker pool not initialised"
    return _WORKER_EVALUATOR.evaluate(program)


def _evaluate_scenario_in_worker(program: Program, index: int) -> EvaluationResult:
    assert _WORKER_EVALUATOR is not None, "worker pool not initialised"
    assert isinstance(_WORKER_EVALUATOR, MultiScenarioEvaluator)
    return _WORKER_EVALUATOR.evaluate_scenario(program, index)


# -- the executor protocol ----------------------------------------------------------


class Executor(ABC):
    """One evaluation backend; created per engine, reused across batches.

    ``config`` is the engine's :class:`~repro.core.engine.EngineConfig`
    (``max_workers``, ``eval_timeout_s``); ``evaluator`` the engine's
    evaluator.  ``run_units`` must return one result per unit, in unit
    order, and record timeouts on ``stats``.
    """

    #: Registry key (set by subclasses).
    name: str = ""

    def __init__(self, config, evaluator: Evaluator):
        self.config = config
        self.evaluator = evaluator

    @abstractmethod
    def run_units(self, units: List[EvalUnit], stats) -> List[EvaluationResult]:
        """Evaluate every unit; results in submission order."""

    def close(self) -> None:
        """Release any workers (the engine recreates the executor lazily)."""

    # -- shared helpers -----------------------------------------------------------

    def _run_inline(self, unit: EvalUnit) -> EvaluationResult:
        """Evaluate one unit in the calling process (fallback/reference path)."""
        if unit.scenario is None:
            return self.evaluator.evaluate(unit.program)
        assert isinstance(self.evaluator, MultiScenarioEvaluator)
        return self.evaluator.evaluate_scenario(unit.program, unit.scenario)


class SerialExecutor(Executor):
    """In-process, ordered evaluation -- the reference trajectory."""

    name = "serial"

    def run_units(self, units: List[EvalUnit], stats) -> List[EvaluationResult]:
        return [self._run_inline(unit) for unit in units]


class _PoolExecutor(Executor):
    """Shared submit/collect machinery for worker-pool backends.

    The pool is created lazily and reused across batches.  Collection walks
    futures in submission order with the configured per-unit timeout; once
    the pool is known-bad (a timeout or a dead worker), still-queued units
    are cancelled and rescued in-process instead of each being charged a
    full timeout, and the pool is discarded so the next batch starts fresh.
    """

    def __init__(self, config, evaluator: Evaluator):
        super().__init__(config, evaluator)
        self._pool = None

    def _make_pool(self):
        raise NotImplementedError

    def _submit(self, pool, unit: EvalUnit) -> Future:
        raise NotImplementedError

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _discard_pool(self, wait: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        self._discard_pool(wait=True)

    def run_units(self, units: List[EvalUnit], stats) -> List[EvaluationResult]:
        pool = self._ensure_pool()
        futures = [self._submit(pool, unit) for unit in units]
        results: List[EvaluationResult] = []
        abandon = False
        for unit, future in zip(units, futures):
            if abandon and future.cancel():
                results.append(self._run_inline(unit))
                continue
            result, healthy = self._collect(unit, future, stats)
            results.append(result)
            abandon = abandon or not healthy
        if abandon:
            # A timed-out or dead worker cannot be reclaimed; abandon the
            # pool rather than blocking the search (the DSL step budget
            # bounds any stray work) and let the next batch start fresh.
            self._discard_pool(wait=False)
        return results

    def _collect(self, unit: EvalUnit, future: Future, stats) -> tuple:
        """Collect one future; returns ``(result, pool_still_healthy)``."""
        timeout = self.config.eval_timeout_s
        try:
            return future.result(timeout=timeout), True
        except FutureTimeoutError:
            future.cancel()
            stats.eval_timeouts += 1
            return (
                EvaluationResult.failure(
                    f"evaluation timed out after {timeout}s",
                    unit.failure_score,
                    transient=True,
                ),
                False,
            )
        except BrokenExecutor:
            # Crash isolation: a worker died (e.g. a hard crash in a process
            # pool).  Re-evaluate this unit in-process, where
            # Evaluator.evaluate converts ordinary failures into invalid
            # results.
            return self._run_inline(unit), False
        except Exception as exc:  # noqa: BLE001 - worker boundary
            return (
                EvaluationResult.failure(
                    f"evaluation failed in worker: {type(exc).__name__}: {exc}",
                    unit.failure_score,
                    transient=True,
                ),
                True,
            )


class ThreadExecutor(_PoolExecutor):
    """Thread-pool fan-out (shared-memory evaluator, abandonable timeouts)."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.config.max_workers)

    def _submit(self, pool, unit: EvalUnit) -> Future:
        if unit.scenario is None:
            return pool.submit(self.evaluator.evaluate, unit.program)
        return pool.submit(self.evaluator.evaluate_scenario, unit.program, unit.scenario)


class ProcessExecutor(_PoolExecutor):
    """Process-pool fan-out (pickled evaluator, hard crash isolation)."""

    name = "process"

    def _make_pool(self):
        return ProcessPoolExecutor(
            max_workers=self.config.max_workers,
            initializer=_init_worker,
            initargs=(self.evaluator,),
        )

    def _submit(self, pool, unit: EvalUnit) -> Future:
        if unit.scenario is None:
            return pool.submit(_evaluate_in_worker, unit.program)
        return pool.submit(_evaluate_scenario_in_worker, unit.program, unit.scenario)


# -- registry -----------------------------------------------------------------------

_EXECUTORS: Dict[str, Type[Executor]] = {}


def register_executor(cls: Type[Executor]) -> Type[Executor]:
    """Register an executor backend under ``cls.name`` (last wins)."""
    if not cls.name:
        raise ValueError("an Executor must declare a non-empty name")
    _EXECUTORS[cls.name] = cls
    return cls


def available_executors() -> List[str]:
    """Names of every registered backend."""
    return sorted(_EXECUTORS)


def create_executor(name: str, config, evaluator: Evaluator) -> Executor:
    """Instantiate the backend ``name`` for one engine."""
    try:
        cls = _EXECUTORS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from exc
    return cls(config, evaluator)


for _cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
    register_executor(_cls)
