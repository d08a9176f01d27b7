"""Batched candidate-evaluation engine: one path from a candidate to its score.

Every candidate of every search domain goes through
:meth:`EvaluationEngine.process_batch` -- step 1, then
:meth:`~EvaluationEngine.process_scored`, a straight sequence of steps each
taking what the previous one left unresolved:

1. **Check/repair** -- candidates are checked (and optionally repaired
   through the Generator) serially, in submission order.  This phase is cheap
   and must stay ordered: the synthetic LLM client is a seeded RNG, so the
   sequence of repair calls is part of the reproducible search trajectory.
   A record keeps only its canonical text; the checked trees ride along
   with the batch through the steps below and are dropped when it returns.
2. **Static screen** (rung "-1", ``static_screen`` on and an evaluator that
   declares input intervals) -- the interval abstract interpreter
   (:mod:`repro.dsl.abstract`) rejects the provably degenerate candidates --
   constant output, input-independent output, or output pinned to the
   evaluator's clamp -- with a sentinel failure result at zero evaluator
   cost.
3. **Canonical-key memo** -- a candidate's key is always the SHA-1 of its
   *canonical* source (the parsed program re-rendered by ``to_source``).  A
   key already in the in-memory memo (cross-round, same process) or already
   seen in this batch -- syntactic duplicates, which LLMs re-emit
   constantly -- is a ``"memory"`` hit; each remaining first occurrence is
   one unit of work.
4. **Fidelity ladder** (a no-op without a
   :class:`~repro.core.fidelity.FidelitySchedule`) -- the batch's units walk
   a successive-halving budget ladder: everyone is evaluated at the cheapest
   rung (a trace prefix / shortened netsim run), only the top ``1/eta``
   fraction is promoted, and the surviving pool goes on to full fidelity.
   Rung results are memoized and persisted under fidelity-qualified keys;
   ranking and selection only ever consume full-fidelity scores.
5. **Disk tier** (a :class:`~repro.core.store.BoundEvalStore` attached) --
   whatever is still due a full-fidelity evaluation is looked up, in this
   one place, in the persistent content-addressed store (cross-*process*:
   sweep seeds, ``repro resume`` and repeated runs warm-start from it).  It
   is asked after the ladder, so the ladder's pool never depends on what the
   store happens to contain.
6. **Fan-out** -- the rest runs in-process (``max_workers: 1``) or on the
   ``thread`` / ``process`` pool :class:`EngineConfig` names
   (:mod:`repro.core.executors`), with optional per-unit timeouts and crash
   isolation, and back-fills both memo tiers.  Under a
   :class:`~repro.core.scenarios.MultiScenarioEvaluator` and a pool the unit
   of work is one (candidate, scenario) pair
   (see :meth:`EvaluationEngine._evaluate_many_sharded`).

Each candidate that receives an evaluation result is announced as a
:class:`~repro.core.events.CandidateEvaluated` event on the engine's
:class:`~repro.core.events.EventBus`, after the batch's results are assigned
and in submission order; the event's ``cache_tier`` records where the result
came from (``"memory"`` / ``"disk"`` / ``"fresh"`` / ``"screened"``).

Evaluation is assumed deterministic and side-effect free per candidate
(true for both shipped domains), which is what makes reordering, dedup and
the memo tiers result-preserving: a fixed seed yields the same search
outcome with any engine configuration and any store state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.checker import Checker
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.events import (
    CandidateEliminated,
    CandidateEvaluated,
    CandidatePromoted,
    CandidateScreened,
    EventBus,
)
from repro.core.executors import POOLS, EvalUnit, SerialExecutor, evaluator_at
from repro.core.fidelity import FidelitySchedule
from repro.core.generator import Generator
from repro.core.results import BudgetCounters, Candidate, ScoredCandidate
from repro.core.scenarios import MultiScenarioEvaluator
from repro.core.store import BoundEvalStore
from repro.dsl.ast import Program
from repro.dsl.codegen import canonical_key
from repro.dsl.compile import BACKENDS as DSL_BACKENDS
from repro.typecheck import check_field_types


def _cgroup_cpu_max_path() -> str:
    """The ``cpu.max`` file of this process's cgroup v2 (its ``0::`` line)."""
    with open("/proc/self/cgroup") as lines:
        path = next(line[3:].strip() for line in lines if line.startswith("0::"))
    return f"/sys/fs/cgroup{path.rstrip('/')}/cpu.max"


def _cgroup_cpu_quota() -> Optional[int]:
    """CPUs the cgroup v2 quota ``cpu.max`` grants, rounded up; None for no limit
    (``max``, no cgroup v2, or a file that does not read as ``quota period``)."""
    try:
        with open(_cgroup_cpu_max_path()) as handle:
            quota, period = (int(value) for value in handle.read().split())
    except (OSError, StopIteration, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one,
    capped by a cgroup v2 CPU quota (a container's ``cpu.max``)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    return max(1, cpus if quota is None else min(cpus, quota))


@dataclass
class EngineConfig:
    """Where and how the engine's work runs; the path a candidate takes (see
    the module docstring) is fixed, and no field here changes a score.

    ``max_workers`` defaults to :func:`usable_cpus`, the CPUs this process
    may run on; above 1 it fans unique candidates out over the ``executor``
    pool (``"thread"``, or the default ``"process"``, the one that
    parallelises CPU-bound simulation), one pool per engine for every
    fidelity, a few tasks per batch.  ``max_workers=1`` (and a 1-CPU box)
    keeps evaluation serial and in-process: pin it to debug or profile a
    run, or for an evaluator that cannot be pickled.  ``eval_timeout_s``
    bounds how long the engine waits for one unit's evaluation (each unit
    then is a task of its own); a timed-out unit gets a failure result and
    its worker is abandoned (threads cannot be killed; the DSL step budget
    still bounds the stray work).  Timeouts and crash isolation require a worker pool: with
    ``max_workers=1`` evaluation runs in-process and ``eval_timeout_s`` has
    no effect.

    ``dsl_backend`` selects how candidate DSL programs execute during
    evaluation (``"interpreter"``, or lowered: ``"vectorized"``, also spelled
    ``"compiled"``); it is injected as the domain's ``backend`` kwarg by
    :func:`~repro.core.domain.build_search` unless the caller already set one
    explicitly.  ``None`` (the default) keeps the domain's own default,
    which is ``"vectorized"`` (:data:`repro.dsl.compile.DEFAULT_BACKEND`):
    each program's kernel compiled behind the call signature of its
    simulator's hot loop, falling back per program to the scalar callable and
    then the interpreter.  Scores are bit-identical either way -- pin
    ``"interpreter"`` to cross-check a result, never to change it.

    ``static_screen`` turns on the static screen (step 2 of the module
    docstring): a candidate it proves degenerate receives a sentinel failure
    result without ever touching the memo, the store or an executor.  A
    no-op when the evaluator declares no input intervals.  Off by default;
    with it on, a fixed-seed run in which nothing screens is byte-identical
    to the same run with it off.
    """

    max_workers: int = field(default_factory=usable_cpus)
    executor: str = "process"  # a key of executors.POOLS
    eval_timeout_s: Optional[float] = None
    dsl_backend: Optional[str] = None
    static_screen: bool = False

    def __post_init__(self) -> None:
        check_field_types(self, "engine")
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.executor == "serial":
            raise ValueError("executor 'serial' is gone: in-process evaluation is max_workers: 1")
        if self.executor not in POOLS:
            raise ValueError(f"unknown executor {self.executor!r}; available: {sorted(POOLS)}")
        if self.eval_timeout_s is not None and self.eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")
        if self.dsl_backend is not None and self.dsl_backend not in DSL_BACKENDS:
            raise ValueError(
                f"unknown dsl_backend {self.dsl_backend!r}; "
                f"available: {sorted(DSL_BACKENDS)}"
            )


@dataclass
class BatchStats(BudgetCounters):
    """What happened while processing one batch of candidates.

    ``unique_evaluations`` counts memory-tier misses whether they were then
    screened out by the ladder, satisfied from disk or evaluated fresh, so
    it is independent of the ladder's and the store's state; the inherited
    :class:`~repro.core.results.BudgetCounters` say which of those happened.
    """

    checked: int = 0
    passed_check: int = 0
    passed_after_repair: int = 0
    failure_codes: Dict[str, int] = field(default_factory=dict)
    eval_cache_lookups: int = 0
    eval_cache_hits: int = 0
    unique_evaluations: int = 0
    eval_timeouts: int = 0


@dataclass
class BatchResult:
    """Scored candidates (input order preserved) plus batch statistics."""

    scored: List[ScoredCandidate]
    stats: BatchStats


class EvaluationEngine:
    """Shared check/repair/evaluate pipeline used by every search domain."""

    def __init__(
        self,
        checker: Checker,
        evaluator: Evaluator,
        generator: Optional[Generator] = None,
        repair_attempts: int = 1,
        config: Optional[EngineConfig] = None,
        events: Optional[EventBus] = None,
        store: Optional[BoundEvalStore] = None,
        fidelity: Optional[FidelitySchedule] = None,
    ):
        self.checker = checker
        self.evaluator = evaluator
        self.generator = generator
        self.repair_attempts = repair_attempts
        self.config = config or EngineConfig()
        self.events = events if events is not None else EventBus()
        self.store = store
        self.fidelity: Optional[FidelitySchedule] = None
        self._memo: Dict[str, EvaluationResult] = {}
        self._scaled_evaluators: Dict[float, Evaluator] = {}
        # The lazily-created backend, reused across batches; units carry
        # their fidelity, so one executor (one pool) serves every rung.
        self._executor = None
        # Static screener (rung "-1"): built lazily from the evaluator's
        # declared input intervals; verdicts cached by canonical key so a
        # re-emitted duplicate is only analysed once per engine lifetime.
        self._screener = None
        self._screener_ready = False
        self._screen_verdicts: Dict[str, object] = {}
        # Cumulative counters across the engine's lifetime (``totals``: the
        # budget counters, summed over every batch).
        self.cache_lookups = 0
        self.cache_hits = 0
        self.unique_evaluations = 0
        self.store_writes = 0
        self.totals = BudgetCounters()
        # DSL backends resolved by fresh evaluations, read off their results
        # so pool workers' evaluations count too (metadata.json only).
        self.backends: Dict[str, int] = {}
        if fidelity is not None:
            self.attach_fidelity(fidelity)

    # -- memo management ----------------------------------------------------------

    def memo_snapshot(self) -> Dict[str, EvaluationResult]:
        """The memoized evaluations (used by checkpointing)."""
        return dict(self._memo)

    def restore_memo(self, memo: Dict[str, EvaluationResult]) -> None:
        """Preload memoized evaluations (used when resuming a search)."""
        self._memo.update(memo)

    def attach_store(self, store: Optional[BoundEvalStore]) -> None:
        """Attach (or detach, with ``None``) the persistent disk memo tier."""
        self.store = store

    def attach_fidelity(self, fidelity: Optional[FidelitySchedule]) -> None:
        """Attach (or detach, with ``None``) the multi-fidelity schedule.

        Attaching validates that the evaluator can scale (every screening
        rung needs an ``at_fidelity`` evaluator), so a misconfigured ladder
        fails here rather than mid-search.
        """
        self.fidelity = fidelity
        if fidelity is not None and fidelity.screening_rungs:
            try:
                self._scaled_evaluator(fidelity.screening_rungs[0])
            except NotImplementedError as exc:
                self.fidelity = None
                raise ValueError(
                    f"fidelity scheduling needs a scalable evaluator: {exc}"
                ) from exc

    def _scaled_evaluator(self, fraction: float) -> Evaluator:
        return evaluator_at(self.evaluator, self._scaled_evaluators, fraction)

    def _static_screener(self):
        """The interval screener, or ``None`` without declared intervals."""
        if not self._screener_ready:
            self._screener_ready = True
            intervals = self.evaluator.input_intervals()
            if intervals is not None:
                from repro.dsl.abstract import StaticScreener

                self._screener = StaticScreener(intervals)
        return self._screener

    # -- check/repair phase -------------------------------------------------------

    def check_candidate(self, candidate: Candidate) -> Tuple[ScoredCandidate, Optional[Program]]:
        """Check (and, on failure, repair) one candidate; no evaluation.  Returns
        the record and, if it passed, the tree its batch carries while in flight."""
        check = self.checker.check(candidate.source)
        issues = list(check.issues)
        if not check.ok and self.repair_attempts > 0 and self.generator is not None:
            for _attempt in range(self.repair_attempts):
                repaired_source = self.generator.repair(candidate.source, check.feedback)
                if repaired_source is None:
                    break
                recheck = self.checker.check(repaired_source)
                if recheck.ok:
                    candidate.source = repaired_source
                    candidate.repaired = True
                    candidate.origin = "generated"
                    check = recheck
                    break
                check = recheck
                issues.extend(recheck.issues)
        program = check.program if check.ok else None
        issues = issues if not check.ok else []
        return ScoredCandidate(candidate, program, check.ok, issues), program

    # -- evaluation phase ---------------------------------------------------------

    def process_batch(self, candidates: List[Candidate]) -> BatchResult:
        """Run the full pipeline over ``candidates``; preserves input order."""
        return self.process_scored(
            [self.check_candidate(candidate) for candidate in candidates]
        )

    def process_scored(
        self, checked: List[Tuple[ScoredCandidate, Optional[Program]]]
    ) -> BatchResult:
        """Run the evaluation pipeline over :meth:`check_candidate`'s pairs."""
        scored = [item for item, _program in checked]
        stats = BatchStats(checked=len(scored))
        for item in scored:
            if item.check_ok and not item.candidate.repaired:
                stats.passed_check += 1
            elif item.check_ok and item.candidate.repaired:
                stats.passed_after_repair += 1
            else:
                for issue in item.check_issues:
                    stats.failure_codes[issue.code] = (
                        stats.failure_codes.get(issue.code, 0) + 1
                    )

        tiers: Dict[str, str] = {}  # candidate_id -> "memory"|"disk"|"fresh"|"screened"

        # Static screening (rung "-1"): reject provably-degenerate candidates
        # before they can enter the dedup/memo pipeline, let alone cost an
        # evaluation.  Verdicts are cached by canonical key, so screening a
        # duplicate is a dict lookup.
        screen_events: List[object] = []
        if self.config.static_screen:
            screener = self._static_screener()
            if screener is not None:
                for item, program in checked:
                    if program is None:
                        continue
                    stats.screen_checks += 1
                    key = canonical_key(program)
                    verdict = self._screen_verdicts.get(key)
                    if verdict is None:
                        verdict = screener.screen(program)
                        self._screen_verdicts[key] = verdict
                    if not verdict.screened:
                        continue
                    stats.screened += 1
                    item.evaluation = EvaluationResult(
                        score=self.evaluator.failure_score,
                        valid=False,
                        error=verdict.error,
                    )
                    tiers[item.candidate.candidate_id] = "screened"
                    screen_events.append(
                        CandidateScreened(
                            candidate_id=item.candidate.candidate_id,
                            round_index=item.candidate.round_index,
                            reason=verdict.reason,
                            detail=verdict.detail,
                        )
                    )

        # Group evaluable candidates by canonical key: a key the memo holds
        # or an earlier candidate of this batch already claimed is a memory
        # hit; each first occurrence is one unit of work for the steps below.
        pending: Dict[str, List[ScoredCandidate]] = {}
        order: List[Tuple[str, Program]] = []
        for item, program in checked:
            if program is None:
                continue
            if item.evaluation is not None:
                continue  # statically screened: never costs a cache lookup
            stats.eval_cache_lookups += 1
            key = canonical_key(program)
            if key in self._memo:
                item.evaluation = self._memo[key]
            elif key in pending:
                pending[key].append(item)
            else:
                pending[key] = [item]
                order.append((key, program))
                tiers[item.candidate.candidate_id] = "fresh"
                continue
            stats.eval_cache_hits += 1
            tiers[item.candidate.candidate_id] = "memory"
        # Every memory miss counts, however the steps below serve it, so the
        # eval-cache statistics are identical whatever the store contains.
        stats.unique_evaluations = len(order)

        # The fidelity ladder (when attached) screens the fresh unique
        # programs at cheap rungs first; only the promoted pool goes on to
        # full fidelity (in shadow mode everyone does).
        final_order, ladder_events = self._screen_ladder(order, pending, stats)
        # The disk tier is asked here and nowhere else: after the ladder, so
        # the ladder's pool cannot depend on the store's state.
        if self.store is not None:
            final_order = self._resolve_from_store(final_order, pending, tiers, stats)

        results = self._evaluate_many([program for _key, program in final_order], stats)
        fresh = [(key, result) for (key, _program), result in zip(final_order, results)]
        for key, result in fresh:
            # Transient failures (timeouts, dead workers) are not the
            # candidate's fault; never memoize or persist them (the store
            # skips them itself).
            if not result.transient:
                self._memo[key] = result
            for item in pending[key]:
                item.evaluation = result
        if self.store is not None:
            self.store_writes += self.store.put_many(fresh)

        self.cache_lookups += stats.eval_cache_lookups
        self.cache_hits += stats.eval_cache_hits
        self.unique_evaluations += stats.unique_evaluations
        self.totals.add(stats)

        if self.events:
            for event in (*screen_events, *ladder_events):
                self.events.emit(event)
            for item in scored:
                if item.evaluation is None:
                    continue
                tier = tiers.get(item.candidate.candidate_id, "fresh")
                self.events.emit(
                    CandidateEvaluated(
                        candidate_id=item.candidate.candidate_id,
                        round_index=item.candidate.round_index,
                        origin=item.candidate.origin,
                        valid=item.valid,
                        score=item.evaluation.score,
                        cached=tier not in ("fresh", "screened"),
                        cache_tier=tier,
                        scenario_scores=dict(item.evaluation.scenario_scores),
                    )
                )
        return BatchResult(scored=scored, stats=stats)

    # -- fidelity ladder ----------------------------------------------------------

    def _screen_ladder(
        self,
        order: List[Tuple[str, Program]],
        pending: Dict[str, List[ScoredCandidate]],
        stats: BatchStats,
    ) -> Tuple[List[Tuple[str, Program]], List[object]]:
        """Successive halving over the batch's fresh unique programs.

        Walks the schedule's screening rungs: evaluate the surviving pool at
        the rung's fidelity, keep the top ``keep_count`` (score descending,
        submission order breaking ties), repeat.  A screened-out candidate's
        recorded result is its highest-rung evaluation (fidelity < 1.0); it
        never enters the plain-key memo or store, so it can never masquerade
        as a full-fidelity score.  Returns the ``(key, program)`` pairs still
        due a full-fidelity evaluation and the promotion/elimination events
        to publish.  In ``shadow`` mode the decisions (and their telemetry)
        are identical but every program is returned for full evaluation and
        nothing is screened out.
        """
        schedule = self.fidelity
        if schedule is None or not schedule.screening_rungs or len(order) <= 1:
            return order, []
        pool = list(range(len(order)))
        events: List[object] = []
        # plan() owns the rung-skip rule (a rung that cannot eliminate is
        # pure overhead, in shadow mode too); the final full-fidelity step
        # is ours to execute below, not here.
        for rung_index, fraction, _pool_size in schedule.plan(len(order))[:-1]:
            rung_results = self._evaluate_rung(
                fraction, [order[index] for index in pool], stats
            )
            scores = [result.score for result in rung_results]
            survivors = set(schedule.select_survivors(scores))
            stats.rung_promotions += len(survivors)
            stats.rung_eliminations += len(pool) - len(survivors)
            next_pool: List[int] = []
            for position, order_index in enumerate(pool):
                key = order[order_index][0]
                representative = pending[key][0].candidate
                promoted = position in survivors
                event_cls = CandidatePromoted if promoted else CandidateEliminated
                events.append(
                    event_cls(
                        candidate_id=representative.candidate_id,
                        round_index=representative.round_index,
                        rung=rung_index,
                        fraction=fraction,
                        score=scores[position],
                        kept=len(survivors),
                        pool=len(pool),
                    )
                )
                if promoted:
                    next_pool.append(order_index)
                elif schedule.mode == "screen":
                    for item in pending[key]:
                        item.evaluation = rung_results[position]
            pool = next_pool
        if schedule.mode == "shadow":
            return order, events
        return [order[index] for index in pool], events

    def _evaluate_rung(
        self,
        fraction: float,
        subset: List[Tuple[str, Program]],
        stats: BatchStats,
    ) -> List[EvaluationResult]:
        """Evaluate ``subset`` at one screening rung, through the memo tiers.

        Rung results live under fidelity-qualified keys -- in the in-memory
        memo (``<key>@f=<fraction>``) and, when a store is attached, under
        :meth:`~repro.core.store.BoundEvalStore.at_fidelity` -- so partial
        scores are reused across rounds and processes exactly like full ones
        without ever colliding with them.
        """
        rung_store = self._store_at(fraction)
        results: List[Optional[EvaluationResult]] = [None] * len(subset)
        fresh: List[int] = []
        for position, (key, _program) in enumerate(subset):
            memo_key = f"{key}@f={fraction!r}"
            if memo_key in self._memo:
                results[position] = self._memo[memo_key]
                continue
            if rung_store is not None:
                stored = rung_store.get(key)
                if stored is not None:
                    self._memo[memo_key] = stored
                    results[position] = stored
                    continue
            fresh.append(position)
        fresh_results = self._evaluate_many(
            [subset[position][1] for position in fresh], stats, fraction
        )
        stats.rung_evaluations += len(fresh)
        for position, result in zip(fresh, fresh_results):
            result.fidelity = fraction
            if not result.transient:
                self._memo[f"{subset[position][0]}@f={fraction!r}"] = result
            results[position] = result
        if rung_store is not None:
            self.store_writes += rung_store.put_many(
                [(subset[position][0], results[position]) for position in fresh]
            )
        return results

    # -- disk tier ----------------------------------------------------------------

    def _resolve_from_store(
        self,
        order: List[Tuple[str, Program]],
        pending: Dict[str, List[ScoredCandidate]],
        tiers: Dict[str, str],
        stats: BatchStats,
    ) -> List[Tuple[str, Program]]:
        """Serve programs still due a full evaluation from the disk tier.

        ``order`` is what the ladder left (every memory miss without one);
        returns the pairs the store could not serve.
        """
        still_fresh: List[Tuple[str, Program]] = []
        for key, program in order:
            stats.store_lookups += 1
            stored = self.store.get(key)
            if stored is None:
                still_fresh.append((key, program))
                continue
            self._memo[key] = stored
            stats.store_hits += 1
            for item in pending[key]:
                item.evaluation = stored
            # Only the first occurrence cost the lookup; duplicates that
            # joined its group keep their "memory" tier.
            tiers[pending[key][0].candidate.candidate_id] = "disk"
        return still_fresh

    def _store_at(self, fraction: float) -> Optional[BoundEvalStore]:
        """The attached store's view at ``fraction`` fidelity (``None`` without one)."""
        if self.store is None or fraction == 1.0:
            return self.store
        return self.store.at_fidelity(fraction)

    # -- executors ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down the executor backend (recreated lazily on next use)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def _evaluate_many(
        self,
        programs: List[Program],
        stats: BatchStats,
        fraction: float = 1.0,
    ) -> List[EvaluationResult]:
        """Evaluate ``programs`` at ``fraction`` fidelity on the configured
        backend (a rung's units run its scaled evaluator)."""
        if not programs:
            return []
        evaluator = self._scaled_evaluator(fraction)
        pooled = self.config.max_workers > 1
        if self._executor is None:
            # A single worker cannot fan out: it runs in-process whatever the
            # pool (no timeout, no pool startup cost) -- the reference path.
            cls = POOLS[self.config.executor] if pooled else SerialExecutor
            self._executor = cls(self.config, self.evaluator, self._scaled_evaluators)
        executor = self._executor
        # Note: single-program batches still go through the pool -- an
        # in-process shortcut would silently drop the timeout and crash
        # isolation.
        if pooled and isinstance(evaluator, MultiScenarioEvaluator):
            results = self._evaluate_many_sharded(programs, evaluator, executor, stats, fraction)
        else:
            units = [
                EvalUnit(program=program, failure_score=evaluator.failure_score, fidelity=fraction)
                for program in programs
            ]
            results = executor.run_units(units, stats)
        for result in results:
            for name, count in result.backends.items():
                self.backends[name] = self.backends.get(name, 0) + count
            # Tallied: the memo and the finished search keep the result, not
            # its telemetry.
            result.backends = {}
        return results

    def _evaluate_many_sharded(
        self,
        programs: List[Program],
        evaluator: MultiScenarioEvaluator,
        executor,
        stats: BatchStats,
        fraction: float,
    ) -> List[EvaluationResult]:
        """Fan candidate x scenario units over the executor, then recombine.

        Sharding at scenario granularity keeps the backend busy even for
        small batches (one slow scenario no longer serialises the others) and
        makes the per-candidate timeout a per-*scenario* timeout, preserving
        crash isolation at the finer grain.  ``combine`` is the same
        aggregation the serial path uses, so results are
        configuration-independent.
        """
        units = [
            EvalUnit(
                program=programs[program_index],
                scenario=scenario_index,
                failure_score=evaluator.scenario_failure_score(scenario_index),
                fidelity=fraction,
            )
            for program_index in range(len(programs))
            for scenario_index in range(evaluator.scenario_count)
        ]
        flat = executor.run_units(units, stats)
        count = evaluator.scenario_count
        return [
            evaluator.combine(flat[start : start + count])
            for start in range(0, len(flat), count)
        ]
