"""Evaluators: context-specific scoring of candidate heuristics.

An Evaluator runs a candidate in the deployment context (a trace through the
cache simulator, an emulated link in the network simulator, ...) and returns
a single numeric score -- *higher is better* by convention, so miss ratios
and delays are negated by the case-study evaluators.

Evaluators must be robust to arbitrarily broken candidates: a candidate that
raises at runtime is reported as invalid with the failure message rather
than crashing the search.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.dsl.ast import Program
from repro.dsl.errors import DslError

#: What a candidate may raise at run time: :meth:`Evaluator.evaluate` scores
#: these as the candidate's failure instead of ending the search.
RUNTIME_ERRORS = (DslError, ValueError, TypeError, ZeroDivisionError, OverflowError)


@dataclass(slots=True)
class EvaluationResult:
    """Outcome of evaluating one candidate in one context.

    ``transient`` marks failures caused by the execution environment (a
    worker timeout, a dead pool) rather than by the candidate itself; the
    engine never memoizes transient results, so the candidate is re-evaluated
    if it ever comes up again.

    ``scenario_scores`` is filled by multi-scenario evaluation (see
    :mod:`repro.core.scenarios`): one score per named workload scenario, with
    ``score`` holding the reduced aggregate.  Single-scenario evaluation
    leaves it empty.

    ``fidelity`` records the fraction of the full evaluation budget this
    result was produced at (see :mod:`repro.core.fidelity`).  ``1.0`` -- the
    default, and the only value ordinary evaluation ever produces -- marks a
    full-fidelity score; anything smaller is a screening-rung score, which
    ranking and selection must never consume.

    ``backends`` counts the DSL backends ``make_runner`` resolved for the
    simulations behind a fresh result (one per scenario run, failed runs
    included), so the engine can tally them wherever the evaluation ran.
    Telemetry only: it is never persisted and takes no part in comparisons,
    and the engine empties it once tallied.

    The record is slotted (no per-instance ``__dict__``): a finished search
    keeps one per unique program it scored.
    """

    score: float
    valid: bool = True
    error: Optional[str] = None
    wall_time_s: float = 0.0
    details: Dict[str, float] = field(default_factory=dict)
    transient: bool = False
    scenario_scores: Dict[str, float] = field(default_factory=dict)
    fidelity: float = 1.0
    backends: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def full_fidelity(self) -> bool:
        return self.fidelity >= 1.0

    @classmethod
    def failure(
        cls, error: str, score: float = float("-inf"), transient: bool = False
    ) -> "EvaluationResult":
        return cls(score=score, valid=False, error=error, transient=transient)


class Evaluator(ABC):
    """Base class: implement :meth:`evaluate_program`, get robustness for free."""

    #: Score assigned to candidates that crash during evaluation.
    failure_score: float = float("-inf")

    @abstractmethod
    def evaluate_program(self, program: Program) -> EvaluationResult:
        """Score ``program``; may raise -- :meth:`evaluate` handles errors."""

    def input_intervals(self):
        """Value ranges of the Template's inputs, for static screening.

        Returns an :class:`~repro.dsl.abstract.InputIntervals` declaring the
        interval every scalar parameter / feature attribute / feature method
        result can take in this deployment context, or ``None`` when the
        evaluator cannot bound its inputs (which disables the engine's
        static-screening rung and ``repro certify`` for the run).
        """
        return None

    def at_fidelity(self, fraction: float) -> "Evaluator":
        """A reduced-budget copy of this evaluator (fidelity scheduling).

        ``fraction`` is in ``(0, 1]``; the returned evaluator scores
        candidates on that fraction of the evaluation budget (a trace
        prefix, a shortened simulation, ...).  Evaluators that cannot scale
        raise, which the engine turns into a configuration error at
        schedule-attach time rather than a surprise mid-search.
        """
        if fraction == 1.0:
            return self
        raise NotImplementedError(
            f"{type(self).__name__} does not support fidelity scaling"
        )

    def evaluate(self, program: Program) -> EvaluationResult:
        """Score ``program``, converting runtime failures into invalid results."""
        start = time.perf_counter()
        try:
            result = self.evaluate_program(program)
        except RUNTIME_ERRORS as exc:
            kind = "runtime error" if isinstance(exc, DslError) else type(exc).__name__
            result = EvaluationResult.failure(f"{kind}: {exc}", self.failure_score)
            # A program that raised still ran on a backend; the evaluator
            # tags the exception with it (see EvaluationResult.backends).
            result.backends = getattr(exc, "backends", {})
        result.wall_time_s = time.perf_counter() - start
        return result


class FunctionEvaluator(Evaluator):
    """Wrap a plain scoring function ``program -> float`` as an Evaluator.

    Useful for tests and for simple objectives where building a dedicated
    Evaluator class would be ceremony.
    """

    def __init__(self, fn: Callable[[Program], float], name: str = "function"):
        self._fn = fn
        self.name = name

    def evaluate_program(self, program: Program) -> EvaluationResult:
        score = float(self._fn(program))
        return EvaluationResult(score=score, valid=True)

    def at_fidelity(self, fraction: float) -> "FunctionEvaluator":
        # A plain function has no budget to scale: rung scores equal full
        # scores, which makes this the exact-ranking reference in tests.
        return self
