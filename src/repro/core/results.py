"""Result records produced by the evolutionary search."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.core.checker import CheckIssue
from repro.core.evaluator import EvaluationResult
from repro.dsl.ast import Program
from repro.dsl.codegen import to_source
from repro.dsl.parser import parse


@dataclass(slots=True)
class Candidate:
    """One candidate heuristic emitted by the Generator.

    The record is slotted (no per-instance ``__dict__``): a finished search
    keeps one per candidate it scored.
    """

    candidate_id: str
    source: str
    round_index: int
    parent_ids: List[str] = field(default_factory=list)
    repaired: bool = False
    origin: str = "generated"  # "seed" | "generated" | "repaired"


@dataclass(init=False, slots=True)
class ScoredCandidate:
    """A candidate together with its check and evaluation outcomes.

    A checked candidate keeps its canonical source text, not its tree: the
    ``program`` passed in is rendered and dropped (a search scores thousands
    of candidates), and :attr:`program` re-parses the text through the
    :func:`~repro.dsl.parser.parse` memo -- read-only, and off the hot path.
    The record is slotted (no per-instance ``__dict__``) for the same reason.
    """

    candidate: Candidate
    check_ok: bool
    check_issues: List[CheckIssue]
    evaluation: Optional[EvaluationResult]
    canonical_source: Optional[str]  # None unless the check passed

    def __init__(
        self,
        candidate: Candidate,
        program: Optional[Program] = None,
        check_ok: bool = False,
        check_issues: Optional[List[CheckIssue]] = None,
        evaluation: Optional[EvaluationResult] = None,
    ) -> None:
        self.candidate, self.check_ok, self.evaluation = candidate, check_ok, evaluation
        self.check_issues = [] if check_issues is None else check_issues
        self.canonical_source = None if program is None else to_source(program)

    @property
    def program(self) -> Optional[Program]:
        return None if self.canonical_source is None else parse(self.canonical_source)

    @property
    def valid(self) -> bool:
        return self.check_ok and self.evaluation is not None and self.evaluation.valid

    @property
    def full_fidelity(self) -> bool:
        """True unless the fidelity ladder screened this candidate out at a
        sub-full rung -- ranking and selection must only consume candidates
        for which this holds (a low-fidelity score is not comparable)."""
        return self.evaluation is None or self.evaluation.full_fidelity

    @property
    def score(self) -> float:
        if self.evaluation is None:
            return float("-inf")
        return self.evaluation.score

    @property
    def source(self) -> str:
        if self.canonical_source is not None:
            return self.canonical_source
        return self.candidate.source


@dataclass(kw_only=True)
class BudgetCounters:
    """How evaluation was *budgeted* -- not what the search found.

    Declared once: :class:`~repro.core.engine.BatchStats`,
    :class:`RoundSummary` and :class:`SearchResult` inherit it, the engine's
    lifetime totals are one, everything sums it with :meth:`add`, and the
    artifact writer zeroes and parses exactly :data:`BUDGET_FIELDS`.

    ``store_lookups`` / ``store_hits``: unique programs still due a fresh
    evaluation that were looked up in an attached disk store, and how many
    it served.  ``rung_evaluations`` / ``rung_promotions`` /
    ``rung_eliminations``: the fidelity ladder's fresh sub-full-rung
    evaluations and its decisions (would-be decisions in ``shadow`` mode).
    ``screen_checks`` / ``screened``: candidates the static screener
    analysed, and rejected before any evaluation.

    All depend on execution state (what the store held, whether a ladder or
    the screener was attached), not on the spec, so ``result.json`` /
    ``rounds.jsonl`` carry them zeroed and the live values land in
    ``metadata.json`` -- which is what keeps a fixed-seed run byte-identical
    with the store cold, warm or absent, under a shadow ladder, and with the
    screener on when nothing screens (a run that *does* screen differs
    exactly by the screened candidates' sentinel entries: the feature).
    """

    store_lookups: int = 0
    store_hits: int = 0
    rung_evaluations: int = 0
    rung_promotions: int = 0
    rung_eliminations: int = 0
    screen_checks: int = 0
    screened: int = 0

    def add(self, other: "BudgetCounters") -> None:
        """Sum ``other``'s budget counters into this record."""
        for name in BUDGET_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def budget(self) -> Dict[str, int]:
        """The budget counters alone, by name."""
        return {name: getattr(self, name) for name in BUDGET_FIELDS}


#: Names of the budget counters, derived from the record.
BUDGET_FIELDS = tuple(f.name for f in fields(BudgetCounters))


def budget_kwargs(data: dict) -> Dict[str, int]:
    """The budget counters stored in ``data`` (0 where a file predates one)."""
    return {name: int(data.get(name, 0)) for name in BUDGET_FIELDS}


@dataclass
class RoundSummary(BudgetCounters):
    """Aggregates for one round of the search (used in reports and tests).

    ``eval_cache_lookups`` counts candidates that reached the evaluation
    stage; ``eval_cache_hits`` how many of those were satisfied from the
    engine's canonical-key memo instead of a fresh simulation, and
    ``unique_evaluations`` the unique programs that missed the in-memory
    tier.  The inherited :class:`BudgetCounters` say how those misses were
    then served.  Under multi-scenario fitness, ``scenario_best`` maps
    each workload scenario to the best per-scenario score any valid
    candidate of this round achieved (empty for single-scenario runs).

    ``generation_s`` / ``evaluation_s`` time the round's two phases.  They
    are wall-clock, hence volatile: the artifact writer zeroes them like the
    budget counters (summed live values land in
    ``metadata.json["pipeline"]``).  ``overlap_s`` is always 0.0: the two
    phases run one after the other, and the field stays only so that
    ``result.json``, ``rounds.jsonl`` and checkpoints keep their schema
    until the phase timings leave it.
    """

    round_index: int
    generated: int = 0
    passed_check: int = 0
    passed_after_repair: int = 0
    evaluated: int = 0
    best_score: float = float("-inf")
    best_overall_score: float = float("-inf")
    failure_codes: Dict[str, int] = field(default_factory=dict)
    eval_cache_lookups: int = 0
    eval_cache_hits: int = 0
    unique_evaluations: int = 0
    scenario_best: Dict[str, float] = field(default_factory=dict)
    generation_s: float = 0.0
    evaluation_s: float = 0.0
    overlap_s: float = 0.0

    def eval_cache_hit_rate(self) -> float:
        """Fraction of evaluation requests served from the cache this round."""
        if not self.eval_cache_lookups:
            return 0.0
        return self.eval_cache_hits / self.eval_cache_lookups


@dataclass
class SearchResult(BudgetCounters):
    """Everything a search run produced (budget counters: run totals)."""

    best: Optional[ScoredCandidate]
    candidates: List[ScoredCandidate]
    rounds: List[RoundSummary]
    context_name: str = ""
    template_name: str = ""
    total_candidates: int = 0
    wall_time_s: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    estimated_cost_usd: float = 0.0
    eval_cache_lookups: int = 0
    eval_cache_hits: int = 0

    def best_source(self) -> str:
        if self.best is None:
            raise ValueError("the search produced no valid candidate")
        return self.best.source

    def best_program(self) -> Program:
        program = self.best.program if self.best is not None else None
        if program is None:
            raise ValueError("the search produced no valid candidate")
        return program

    def valid_candidates(self) -> List[ScoredCandidate]:
        return [c for c in self.candidates if c.valid]

    def first_pass_check_rate(self) -> float:
        """Fraction of non-seed candidates that passed the Checker unaided
        (candidates that only passed after a repair round do not count)."""
        generated = [
            c for c in self.candidates if c.candidate.origin == "generated"
        ]
        if not generated:
            return 0.0
        passed = sum(
            1 for c in generated if c.check_ok and not c.candidate.repaired
        )
        return passed / len(generated)

    def repaired_check_rate(self) -> float:
        """Fraction of non-seed candidates that passed only after repair."""
        generated = [
            c for c in self.candidates if c.candidate.origin == "generated"
        ]
        if not generated:
            return 0.0
        repaired = sum(
            1 for c in generated if c.check_ok and c.candidate.repaired
        )
        return repaired / len(generated)

    def score_trajectory(self) -> List[float]:
        """Best-so-far score after each round (the search learning curve)."""
        return [r.best_overall_score for r in self.rounds]

    def eval_cache_hit_rate(self) -> float:
        """Fraction of evaluation requests served by dedup/memoization.

        The synthetic LLM re-emits duplicate candidates constantly; this is
        the fraction of evaluations the engine avoided re-simulating.
        """
        if not self.eval_cache_lookups:
            return 0.0
        return self.eval_cache_hits / self.eval_cache_lookups
