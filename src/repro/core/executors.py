"""Pluggable evaluation executors: how the engine fans evaluation work out.

The :class:`~repro.core.engine.EvaluationEngine` decides *what* to evaluate
(check/repair, dedup, memo and store tiers); an :class:`Executor` decides
*how* the surviving unique units of work actually run.  A unit
(:class:`EvalUnit`) is either one whole candidate evaluation or -- under
multi-scenario sharding -- one (candidate, scenario) pair, at the fidelity it
carries, so one executor per engine serves every rung of a fidelity ladder.
Executors are registered by name and selected through
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
    engine's evaluator pickled once into each worker, which derives each
    rung's scaled evaluator once and keeps it.  True parallelism plus hard
    crash isolation: a worker that dies takes neither the pool's results nor
    the search down.

A pool backend ships a batch as a few strided chunks of units (at most
``4 * max_workers``), one task each, so a sub-millisecond unit does not pay
for a task of its own; with ``eval_timeout_s`` set every chunk holds one
unit, so the timeout bounds each unit.  Every backend returns results in
unit order and reuses the engine's failure/timeout conventions, which is
what keeps a fixed seed byte-identical across backends (asserted in the
tests).
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
    sharded mode).  ``failure_score`` scores the unit when it times out;
    ``fidelity`` is the fraction of the evaluation budget it runs at.
    """

    program: Program
    scenario: Optional[int] = None
    failure_score: float = float("-inf")
    fidelity: float = 1.0


def evaluator_at(evaluator: Evaluator, scaled: Dict[float, Evaluator], fidelity: float) -> Evaluator:
    """``evaluator`` at ``fidelity``, derived once per ``scaled`` cache."""
    if fidelity == 1.0:
        return evaluator
    if fidelity not in scaled:
        scaled[fidelity] = evaluator.at_fidelity(fidelity)
    return scaled[fidelity]


def _evaluate(evaluator: Evaluator, scaled: Dict[float, Evaluator], unit: EvalUnit) -> EvaluationResult:
    evaluator = evaluator_at(evaluator, scaled, unit.fidelity)
    if unit.scenario is None:
        return evaluator.evaluate(unit.program)
    assert isinstance(evaluator, MultiScenarioEvaluator)
    return evaluator.evaluate_scenario(unit.program, unit.scenario)


def _worker_failure(unit: EvalUnit, exc: BaseException) -> EvaluationResult:
    message = f"evaluation failed in worker: {type(exc).__name__}: {exc}"
    return EvaluationResult.failure(message, unit.failure_score, transient=True)


def _run_chunk(
    evaluator: Evaluator, scaled: Dict[float, Evaluator], units: List[EvalUnit]
) -> List[EvaluationResult]:
    """One pool task: evaluate ``units`` in order; an exception costs only its unit."""
    results = []
    for unit in units:
        try:
            results.append(_evaluate(evaluator, scaled, unit))
        except Exception as exc:  # noqa: BLE001 - worker boundary
            results.append(_worker_failure(unit, exc))
    return results


# -- process-pool plumbing ----------------------------------------------------------
#
# Pickled callables must be module-level; the evaluator itself is shipped
# once per worker through the pool initializer.

_WORKER_EVALUATOR: Optional[Evaluator] = None
_WORKER_SCALED: Dict[float, Evaluator] = {}


def _init_worker(evaluator: Evaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator
    _WORKER_SCALED.clear()


def _run_chunk_in_worker(units: List[EvalUnit]) -> List[EvaluationResult]:
    assert _WORKER_EVALUATOR is not None, "worker pool not initialised"
    return _run_chunk(_WORKER_EVALUATOR, _WORKER_SCALED, units)


# -- the executor protocol ----------------------------------------------------------


class Executor(ABC):
    """One evaluation backend; created per engine, reused across batches.

    ``config`` is the engine's :class:`~repro.core.engine.EngineConfig`
    (``max_workers``, ``eval_timeout_s``); ``evaluator`` the engine's
    full-fidelity evaluator and ``scaled`` its cache of scaled ones (a unit
    below fidelity 1.0 runs on those).  ``run_units`` must return one result
    per unit, in unit order, and record timeouts on ``stats``.
    """

    #: Registry key (set by subclasses).
    name: str = ""

    def __init__(self, config, evaluator: Evaluator, scaled: Optional[Dict[float, Evaluator]] = None):
        self.config = config
        self.evaluator = evaluator
        self.scaled = {} if scaled is None else scaled

    @abstractmethod
    def run_units(self, units: List[EvalUnit], stats) -> List[EvaluationResult]:
        """Evaluate every unit; results in submission order."""

    def close(self) -> None:
        """Release any workers (the engine recreates the executor lazily)."""

    # -- shared helpers -----------------------------------------------------------

    def _run_inline(self, unit: EvalUnit) -> EvaluationResult:
        """Evaluate one unit in the calling process (fallback/reference path)."""
        return _evaluate(self.evaluator, self.scaled, unit)


class SerialExecutor(Executor):
    """In-process, ordered evaluation -- the reference trajectory."""

    name = "serial"

    def run_units(self, units: List[EvalUnit], stats) -> List[EvaluationResult]:
        return [self._run_inline(unit) for unit in units]


class _PoolExecutor(Executor):
    """Shared submit/collect machinery for worker-pool backends.

    The pool is created lazily and reused across batches.  A batch goes out
    as strided chunks, one task each; collection walks the chunks in
    submission order, waiting at most ``eval_timeout_s`` for each (which,
    when set, makes every chunk one unit).  Once the pool is known-bad (a
    timeout or a dead worker), still-queued chunks are cancelled and their
    units rescued in-process instead of each being charged a full timeout,
    a broken chunk's units likewise, and the pool is discarded so the next
    batch starts fresh.
    """

    _pool = None  # created lazily, per instance

    def _make_pool(self):
        raise NotImplementedError

    def _submit(self, pool, chunk: List[EvalUnit]) -> Future:
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
        count = len(units)
        if self.config.eval_timeout_s is None:
            count = min(count, 4 * self.config.max_workers)
        chunks = [units[start::count] for start in range(count)]
        futures = [self._submit(pool, chunk) for chunk in chunks]
        results: List[EvaluationResult] = [None] * len(units)  # type: ignore[list-item]
        abandon = False
        for start, (chunk, future) in enumerate(zip(chunks, futures)):
            if abandon and future.cancel():
                results[start::count] = [self._run_inline(unit) for unit in chunk]
                continue
            results[start::count], healthy = self._collect(chunk, future, stats)
            abandon = abandon or not healthy
        if abandon:
            # A timed-out or dead worker cannot be reclaimed; abandon the
            # pool rather than blocking the search (the DSL step budget
            # bounds any stray work) and let the next batch start fresh.
            self._discard_pool(wait=False)
        return results

    def _collect(self, chunk: List[EvalUnit], future: Future, stats) -> tuple:
        """Collect one chunk's future; returns ``(results, pool_still_healthy)``."""
        timeout = self.config.eval_timeout_s
        try:
            return future.result(timeout=timeout), True
        except FutureTimeoutError:
            future.cancel()
            stats.eval_timeouts += len(chunk)  # one unit: a timeout makes chunks of one
            why = f"evaluation timed out after {timeout}s"
            failed = [EvaluationResult.failure(why, u.failure_score, transient=True) for u in chunk]
            return failed, False
        except BrokenExecutor:
            # Crash isolation: a worker died (e.g. a hard crash in a process
            # pool).  Re-evaluate the chunk in-process, where
            # Evaluator.evaluate converts ordinary failures into invalid
            # results.
            return [self._run_inline(unit) for unit in chunk], False
        except Exception as exc:  # noqa: BLE001 - worker boundary
            return [_worker_failure(unit, exc) for unit in chunk], True


class ThreadExecutor(_PoolExecutor):
    """Thread-pool fan-out (shared-memory evaluator, abandonable timeouts)."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.config.max_workers)

    def _submit(self, pool, chunk: List[EvalUnit]) -> Future:
        return pool.submit(_run_chunk, self.evaluator, self.scaled, chunk)


class ProcessExecutor(_PoolExecutor):
    """Process-pool fan-out (pickled evaluator, hard crash isolation)."""

    name = "process"

    def _make_pool(self):
        return ProcessPoolExecutor(
            max_workers=self.config.max_workers,
            initializer=_init_worker,
            initargs=(self.evaluator,),
        )

    def _submit(self, pool, chunk: List[EvalUnit]) -> Future:
        return pool.submit(_run_chunk_in_worker, chunk)


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


def create_executor(
    name: str, config, evaluator: Evaluator, scaled: Optional[Dict[float, Evaluator]] = None
) -> Executor:
    """Instantiate the backend ``name`` for one engine (``scaled``: its
    cache of scaled evaluators, shared so inline runs reuse them)."""
    try:
        cls = _EXECUTORS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from exc
    return cls(config, evaluator, scaled)


for _cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
    register_executor(_cls)
