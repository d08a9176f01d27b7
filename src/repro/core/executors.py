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
``distributed``
    A spool-directory work queue (see :mod:`repro.core.queue`): the
    coordinator serializes units into ``<queue>/pending/``, worker
    *processes* -- spawned locally and/or launched on any host that shares
    the queue path via ``python -m repro worker`` -- claim them atomically
    with heartbeated leases, and results flow back through the queue (and
    the shared evaluation store, so concurrent runs warm-start each other).
    A SIGKILL'd worker's tasks are reclaimed on lease expiry; a queue with
    no live workers falls back to inline evaluation, so the search always
    terminates.

Every backend returns results in submission order and reuses the engine's
failure/timeout conventions, which is what keeps a fixed seed byte-identical
across backends (asserted in the tests).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import uuid
from abc import ABC, abstractmethod
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Type

from repro.core import queue as spool
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.events import TaskDispatched, TaskReclaimed, WorkerJoined
from repro.core.scenarios import MultiScenarioEvaluator
from repro.dsl.ast import Program
from repro.dsl.codegen import canonical_key, to_source


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
        #: Wired by the engine before each batch: the run's EventBus (or
        #: ``None``) and the store view matching this executor's evaluator
        #: (full-fidelity or rung-qualified).  Backends may ignore both; the
        #: distributed backend uses them for worker/task telemetry and
        #: cross-run result sharing.
        self.events = None
        self.bound_store = None

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


class DistributedExecutor(Executor):
    """Multi-host fan-out over a spool-directory work queue.

    The coordinator (this object) enqueues serialized units on a
    :class:`~repro.core.queue.SpoolQueue`, spawns ``worker_count`` local
    worker processes (``None`` -> ``max_workers``; ``0`` -> rely entirely on
    externally-launched ``python -m repro worker`` processes pointed at
    ``queue_dir``), and gathers results in submission order.  Fault model:

    * a worker that dies mid-task stops heartbeating; after ``lease_ttl_s``
      the coordinator renames the lease back into ``pending/`` (one
      :class:`~repro.core.events.TaskReclaimed` per reclaim) where a
      surviving worker re-claims it, and a coordinator-spawned worker is
      respawned;
    * a task reclaimed :data:`RESCUE_ATTEMPTS` times -- or any task while
      the queue has no live workers at all -- is evaluated inline by the
      coordinator, so the batch always completes;
    * ``eval_timeout_s`` (when set) is enforced coordinator-side from the
      task's first observed claim, producing the same transient timeout
      failure the pool backends produce.

    Without an explicit ``queue_dir`` the queue lives in a private temp
    directory torn down on :meth:`close`; an explicit path (typically on a
    shared mount, under the artifacts tree) is what lets other hosts join.
    """

    name = "distributed"

    #: Reclaims of one task before the coordinator evaluates it inline.
    RESCUE_ATTEMPTS = 3

    def __init__(self, config, evaluator: Evaluator):
        super().__init__(config, evaluator)
        self._queue: Optional[spool.SpoolQueue] = None
        self._pool: Optional[spool.LocalWorkerPool] = None
        self._private_root: Optional[Path] = None
        self._evaluator_id: Optional[str] = None
        self._nonce = uuid.uuid4().hex[:8]
        self._batch_seq = 0
        self._seen_workers: Dict[str, dict] = {}
        self._completed_by: Dict[str, int] = {}
        self.tasks_dispatched = 0
        self.tasks_reclaimed = 0
        self.tasks_rescued = 0

    # -- queue lifecycle ----------------------------------------------------------

    def _worker_count(self) -> int:
        count = getattr(self.config, "worker_count", None)
        return self.config.max_workers if count is None else count

    def _ensure_queue(self) -> spool.SpoolQueue:
        if self._queue is None:
            queue_dir = getattr(self.config, "queue_dir", None)
            if queue_dir is None:
                self._private_root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
                root = self._private_root
            else:
                root = Path(queue_dir)
            ttl = getattr(self.config, "lease_ttl_s", spool.DEFAULT_LEASE_TTL_S)
            self._queue = spool.SpoolQueue(root, lease_ttl_s=ttl)
            self._queue.write_config()
            count = self._worker_count()
            if count > 0:
                self._pool = spool.LocalWorkerPool(self._queue, count, self._nonce)
        if self._evaluator_id is None:
            self._evaluator_id = self._queue.publish_evaluator(self.evaluator)
        return self._queue

    def close(self) -> None:
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        if self._private_root is not None:
            shutil.rmtree(self._private_root, ignore_errors=True)
            self._private_root = None
        self._queue = None
        self._evaluator_id = None

    def fabric_stats(self) -> Optional[dict]:
        """Counters for the run's metadata record (``None`` before first use)."""
        if not self.tasks_dispatched:
            return None
        workers = {}
        for worker_id, info in sorted(self._seen_workers.items()):
            workers[worker_id] = {
                "host": info.get("host", ""),
                "pid": info.get("pid", 0),
                "completed": self._completed_by.get(worker_id, 0),
            }
        return {
            "queue": str(self._queue.root) if self._queue is not None else None,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_reclaimed": self.tasks_reclaimed,
            "tasks_rescued": self.tasks_rescued,
            "workers_joined": len(self._seen_workers),
            "workers": workers,
        }

    # -- dispatch/gather ----------------------------------------------------------

    def run_units(self, units: List[EvalUnit], stats) -> List[EvaluationResult]:
        if not units:
            return []
        queue = self._ensure_queue()
        self._batch_seq += 1
        store_ref = None
        if self.bound_store is not None:
            store_ref = {
                "root": str(self.bound_store.store.root),
                "eval_key": self.bound_store.eval_key,
            }
        task_ids: List[str] = []
        for index, unit in enumerate(units):
            task_id = f"{self._nonce}-b{self._batch_seq:04d}-{index:05d}"
            program_key = canonical_key(unit.program)
            queue.enqueue(
                task_id,
                spool.encode_task(
                    task_id,
                    unit.program,
                    evaluator_id=self._evaluator_id,
                    scenario=unit.scenario,
                    failure_score=unit.failure_score,
                    program_key=program_key,
                    source=to_source(unit.program),
                    store=store_ref if unit.scenario is None else None,
                ),
            )
            task_ids.append(task_id)
            self.tasks_dispatched += 1
            if self.events:
                self.events.emit(
                    TaskDispatched(
                        task_id=task_id,
                        program_key=program_key,
                        scenario=unit.scenario,
                    )
                )
        return self._gather(queue, units, task_ids, stats)

    def _gather(
        self,
        queue: spool.SpoolQueue,
        units: List[EvalUnit],
        task_ids: List[str],
        stats,
    ) -> List[EvaluationResult]:
        index_of = {task_id: i for i, task_id in enumerate(task_ids)}
        results: List[Optional[EvaluationResult]] = [None] * len(units)
        outstanding = set(task_ids)
        attempts = {task_id: 0 for task_id in task_ids}
        first_claim: Dict[str, float] = {}
        timeout = self.config.eval_timeout_s
        stall_grace = max(2.0 * queue.lease_ttl_s, 2.0)
        poll = 0.005
        last_progress = time.monotonic()
        while outstanding:
            progressed = False
            for task_id, payload in queue.collect(outstanding):
                results[index_of[task_id]] = spool.decode_result(payload)
                worker = payload.get("worker_id", "")
                self._completed_by[worker] = self._completed_by.get(worker, 0) + 1
                outstanding.discard(task_id)
                progressed = True
            # Poll registrations before the exit check: a fast worker can
            # register, claim and complete between two coordinator polls,
            # and its join must still be observed (events, fabric stats).
            self._poll_workers(queue)
            if not outstanding:
                break
            if self._pool is not None:
                self._pool.maintain()
            for task_id, holder in queue.reclaim_expired():
                if task_id not in outstanding:
                    continue
                attempts[task_id] += 1
                self.tasks_reclaimed += 1
                first_claim.pop(task_id, None)
                progressed = True
                if self.events:
                    self.events.emit(
                        TaskReclaimed(
                            task_id=task_id,
                            worker_id=holder,
                            attempt=attempts[task_id],
                        )
                    )
            now = time.monotonic()
            if timeout is not None:
                for task_id in queue.leased_tasks():
                    if task_id in outstanding and task_id not in first_claim:
                        first_claim[task_id] = now
                for task_id, since in list(first_claim.items()):
                    if task_id in outstanding and now - since > timeout:
                        stats.eval_timeouts += 1
                        index = index_of[task_id]
                        results[index] = EvaluationResult.failure(
                            f"evaluation timed out after {timeout}s",
                            units[index].failure_score,
                            transient=True,
                        )
                        outstanding.discard(task_id)
                        queue.forget(task_id)
                        progressed = True
            rescue_ids = [
                task_id
                for task_id in outstanding
                if attempts[task_id] >= self.RESCUE_ATTEMPTS
            ]
            if (
                not rescue_ids
                and self._no_live_workers(queue)
                and now - last_progress > stall_grace
            ):
                # Nobody left to do the work (and nobody joining): finish the
                # batch inline rather than hanging the search.
                rescue_ids = list(outstanding)
            for task_id in sorted(rescue_ids):
                if not self._claim_for_rescue(queue, task_id):
                    continue  # a worker beat us to it; let it run
                index = index_of[task_id]
                results[index] = self._run_inline(units[index])
                self.tasks_rescued += 1
                queue.forget(task_id)
                outstanding.discard(task_id)
                progressed = True
            if progressed:
                last_progress = time.monotonic()
                poll = 0.005
            else:
                time.sleep(poll)
                poll = min(poll * 2, 0.05)
        return results  # type: ignore[return-value]

    def _poll_workers(self, queue: spool.SpoolQueue) -> None:
        for worker_id, info in queue.worker_records().items():
            if worker_id in self._seen_workers:
                continue
            self._seen_workers[worker_id] = info
            if self.events:
                self.events.emit(
                    WorkerJoined(
                        worker_id=worker_id,
                        host=str(info.get("host", "")),
                        pid=int(info.get("pid", 0) or 0),
                    )
                )

    def _no_live_workers(self, queue: spool.SpoolQueue) -> bool:
        if self._pool is not None and self._pool.alive() > 0:
            return False
        return not queue.live_workers()

    @staticmethod
    def _claim_for_rescue(queue: spool.SpoolQueue, task_id: str) -> bool:
        try:
            os.replace(
                queue.pending_dir / f"{task_id}.json",
                queue.leases_dir / f"{task_id}.json",
            )
            return True
        except OSError:
            return False


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


for _cls in (SerialExecutor, ThreadExecutor, ProcessExecutor, DistributedExecutor):
    register_executor(_cls)
