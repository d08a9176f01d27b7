"""Multi-scenario fitness: score candidates across a workload matrix.

The paper's search scores a candidate against *one* deployment context; the
ROADMAP's north star is robustness across "as many scenarios as you can
imagine".  This module provides the domain-agnostic half of that:

* :class:`ScoreReducer` -- a pluggable, JSON-serializable aggregation of
  per-scenario scores into the single fitness the search optimises
  (``mean``, ``worst`` -- the maximin robustness objective -- or
  ``weighted``);
* :class:`MultiScenarioEvaluator` -- an :class:`~repro.core.evaluator.Evaluator`
  wrapping one named sub-evaluator per scenario.  Evaluating a candidate runs
  every scenario (serially here; the
  :class:`~repro.core.engine.EvaluationEngine` shards candidate x scenario
  tasks over its worker pool instead) and :meth:`combine`\\ s the per-scenario
  results into one :class:`~repro.core.evaluator.EvaluationResult` whose
  ``scenario_scores`` records the full breakdown.

``combine`` is the single definition of the aggregation, shared by the
serial and the sharded path, so a fixed seed yields byte-identical results
under any engine configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.dsl.ast import Program

#: Prefix used for per-scenario metric details (":" never occurs in
#: workload names, which allows unambiguous parsing).
SCENARIO_DETAIL_SEP = ":"

REDUCER_KINDS = ("mean", "worst", "weighted")


@dataclass(frozen=True)
class ScoreReducer:
    """Aggregates per-scenario scores into the search's fitness value.

    ``mean`` rewards average-case performance, ``worst`` optimises the
    weakest scenario (maximin robustness), ``weighted`` takes a scenario-name
    keyed convex combination.  The reducer round-trips through JSON (a bare
    kind string or ``{"kind": ..., "weights": {...}}``) so a
    :class:`~repro.core.spec.RunSpec` can declare it.
    """

    kind: str = "mean"
    weights: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in REDUCER_KINDS:
            raise ValueError(
                f"unknown reducer kind {self.kind!r}; available: {list(REDUCER_KINDS)}"
            )
        if self.kind == "weighted":
            if not self.weights:
                raise ValueError("a weighted reducer needs a non-empty weights map")
            total = sum(w for _name, w in self.weights)
            if total <= 0:
                raise ValueError("weighted reducer weights must sum to a positive value")
            if any(w < 0 for _name, w in self.weights):
                raise ValueError("weighted reducer weights must be non-negative")
        elif self.weights:
            raise ValueError(f"reducer kind {self.kind!r} does not take weights")

    @classmethod
    def create(
        cls, kind: str = "mean", weights: Optional[Mapping[str, float]] = None
    ) -> "ScoreReducer":
        items = tuple(sorted((k, float(v)) for k, v in weights.items())) if weights else None
        return cls(kind=kind, weights=items)

    @classmethod
    def from_ref(cls, ref: Union[str, Mapping, "ScoreReducer", None]) -> "ScoreReducer":
        """Build a reducer from its declarative reference (string or dict)."""
        if ref is None:
            return cls()
        if isinstance(ref, ScoreReducer):
            return ref
        if isinstance(ref, str):
            return cls.create(kind=ref)
        if isinstance(ref, Mapping):
            extra = set(ref) - {"kind", "weights"}
            if extra:
                raise ValueError(
                    f"unknown reducer key(s) {sorted(extra)}; allowed: ['kind', 'weights']"
                )
            return cls.create(kind=ref.get("kind", "mean"), weights=ref.get("weights"))
        raise TypeError(f"cannot build a ScoreReducer from {type(ref).__name__}")

    def to_ref(self) -> Union[str, dict]:
        """The declarative form stored in specs (inverse of :meth:`from_ref`)."""
        if self.weights is None:
            return self.kind
        return {"kind": self.kind, "weights": {k: v for k, v in self.weights}}

    def validate_names(self, names: Sequence[str]) -> None:
        """A weighted reducer must name exactly the scenarios it scores."""
        if self.kind != "weighted":
            return
        missing = set(names) - {k for k, _ in self.weights}
        unknown = {k for k, _ in self.weights} - set(names)
        if missing or unknown:
            raise ValueError(
                f"weighted reducer must cover the scenario matrix exactly; "
                f"missing weights for {sorted(missing)}, "
                f"weights for unknown scenarios {sorted(unknown)}"
            )

    def reduce(self, scores: Mapping[str, float]) -> float:
        if not scores:
            raise ValueError("cannot reduce an empty score map")
        if self.kind == "worst":
            return min(scores.values())
        if self.kind == "weighted":
            weights = dict(self.weights)
            total = sum(weights[name] for name in scores)
            return sum(score * weights[name] for name, score in scores.items()) / total
        return sum(scores.values()) / len(scores)


class MultiScenarioEvaluator(Evaluator):
    """Evaluator scoring candidates across a named scenario matrix.

    ``scenarios`` is an ordered list of ``(name, evaluator)`` pairs; names
    must be unique (they key ``scenario_scores``, events and reports).  The
    engine detects this class (via ``scenario_count``) and fans
    candidate x scenario tasks out over its worker pool with per-scenario
    timeouts and crash isolation; without a pool, :meth:`evaluate_program`
    runs the scenarios in order.
    """

    def __init__(
        self,
        scenarios: Sequence[Tuple[str, Evaluator]],
        reducer: Optional[ScoreReducer] = None,
    ):
        if not scenarios:
            raise ValueError("a MultiScenarioEvaluator needs at least one scenario")
        names = [name for name, _evaluator in scenarios]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate scenario name(s) {duplicates}; give grid variants a "
                "distinct 'label' (e.g. 'w89@5%')"
            )
        if any(not name for name in names):
            raise ValueError("every scenario needs a non-empty name")
        self.scenarios: List[Tuple[str, Evaluator]] = list(scenarios)
        self.reducer = reducer or ScoreReducer()
        self.reducer.validate_names(names)

    # -- engine protocol ----------------------------------------------------------

    @property
    def scenario_count(self) -> int:
        return len(self.scenarios)

    @property
    def scenario_names(self) -> List[str]:
        return [name for name, _evaluator in self.scenarios]

    def scenario_failure_score(self, index: int) -> float:
        return self.scenarios[index][1].failure_score

    @property
    def failure_score(self) -> float:  # type: ignore[override]
        return self.reducer.reduce(
            {name: evaluator.failure_score for name, evaluator in self.scenarios}
        )

    def evaluate_scenario(self, program: Program, index: int) -> EvaluationResult:
        """Score ``program`` on one scenario (the engine's unit of sharding)."""
        return self.scenarios[index][1].evaluate(program)

    @property
    def backend(self) -> Optional[str]:
        """The DSL backend the scenarios request (``None`` for non-DSL ones)."""
        return getattr(self.scenarios[0][1], "backend", None)

    def input_intervals(self):
        """Hull of the per-scenario input declarations.

        A bound must hold in *every* scenario to be usable, so the matrix
        declaration is the pointwise interval join; any scenario that cannot
        bound its inputs disables screening for the whole matrix.
        """
        declared = [
            evaluator.input_intervals() for _name, evaluator in self.scenarios
        ]
        if any(d is None for d in declared):
            return None
        joined = declared[0]
        for other in declared[1:]:
            joined = joined.join(other)
        return joined

    def at_fidelity(self, fraction: float) -> "MultiScenarioEvaluator":
        """Scale every scenario of the matrix to ``fraction`` of its budget."""
        if fraction == 1.0:
            return self
        return MultiScenarioEvaluator(
            [
                (name, evaluator.at_fidelity(fraction))
                for name, evaluator in self.scenarios
            ],
            self.reducer,
        )

    # -- aggregation --------------------------------------------------------------

    def combine(self, results: Sequence[EvaluationResult]) -> EvaluationResult:
        """Fold per-scenario results (in scenario order) into one result.

        The aggregate is valid only when *every* scenario succeeded -- a
        candidate that crashes anywhere in the matrix is not a robust policy.
        Failed scenarios still contribute their (failure) score to the
        reduction so invalid candidates remain comparable, and any transient
        sub-failure marks the aggregate transient so it is never memoized.
        """
        if len(results) != len(self.scenarios):
            raise ValueError(
                f"expected {len(self.scenarios)} scenario results, got {len(results)}"
            )
        scores: Dict[str, float] = {}
        details: Dict[str, float] = {}
        backends: Dict[str, int] = {}
        errors: List[str] = []
        for (name, _evaluator), result in zip(self.scenarios, results):
            scores[name] = result.score
            for backend, count in result.backends.items():
                backends[backend] = backends.get(backend, 0) + count
            for key, value in result.details.items():
                details[f"{name}{SCENARIO_DETAIL_SEP}{key}"] = value
            if not result.valid:
                errors.append(f"{name}: {result.error or 'invalid'}")
        return EvaluationResult(
            score=self.reducer.reduce(scores),
            valid=not errors,
            error="; ".join(errors) or None,
            wall_time_s=sum(r.wall_time_s for r in results),
            details=details,
            transient=any(r.transient for r in results),
            scenario_scores=scores,
            backends=backends,
        )

    def evaluate_program(self, program: Program) -> EvaluationResult:
        return self.combine(
            [evaluator.evaluate(program) for _name, evaluator in self.scenarios]
        )

    def evaluate(self, program: Program) -> EvaluationResult:
        # Sub-evaluators already convert their own failures into invalid
        # results; the base-class wrapper would only time the loop again.
        return self.evaluate_program(program)
