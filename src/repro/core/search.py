"""The PolicySmith evolutionary search loop (§3 and Fig. 1 of the paper).

Each round, the Generator proposes a batch of candidate heuristics given the
best-performing heuristics found so far as worked examples.  The batch is
handed to the shared :class:`~repro.core.engine.EvaluationEngine`, which
validates every candidate (with one optional repair attempt driven by the
Checker's feedback), dedups syntactic duplicates, reuses memoized evaluation
results from earlier rounds, and evaluates the remaining unique candidates --
serially or fanned out over a worker pool, depending on the engine
configuration.  After the configured number of rounds, the highest-scoring
valid candidate is the synthesized heuristic for the context.

When ``checkpoint_path`` is set, the search persists its state after every
round (see :class:`~repro.core.archive.SearchCheckpoint`) and ``run()``
transparently resumes from the checkpoint if one exists, so long
multi-context searches survive interruption.

The search narrates itself on an :class:`~repro.core.events.EventBus`
(``RunStarted`` / ``CandidateEvaluated`` / ``RoundCompleted`` /
``CheckpointWritten`` / ``RunFinished``); frontends attach subscribers
(progress printer, JSONL event log) instead of the search printing anything
itself.

The paper's caching methodology (§4.2.1) corresponds to
``SearchConfig(rounds=20, candidates_per_round=25, top_k_parents=2)`` seeded
with LRU and LFU.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.archive import SearchCheckpoint
from repro.core.checker import Checker
from repro.core.context import Context
from repro.core.cost import GPT_4O_MINI_PRICING, CostModel
from repro.core.engine import BatchStats, EngineConfig, EvaluationEngine
from repro.core.evaluator import Evaluator
from repro.core.fidelity import FidelitySchedule
from repro.core.events import (
    CheckpointWritten,
    EventBus,
    GenerationCompleted,
    GenerationStarted,
    RoundCompleted,
    RunFinished,
    RunStarted,
)
from repro.core.generator import Generator
from repro.core.results import (
    BudgetCounters,
    Candidate,
    RoundSummary,
    ScoredCandidate,
    SearchResult,
    budget_kwargs,
)
from repro.core.template import Template
from repro.dsl.codegen import to_source
from repro.typecheck import check_field_types


@dataclass
class SearchConfig:
    """Tunables of the evolutionary search."""

    rounds: int = 20
    candidates_per_round: int = 25
    top_k_parents: int = 2
    repair_attempts: int = 1
    include_seeds: bool = True
    cost_model: CostModel = GPT_4O_MINI_PRICING

    def __post_init__(self) -> None:
        check_field_types(self, "search")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.candidates_per_round <= 0:
            raise ValueError("candidates_per_round must be positive")
        if self.top_k_parents <= 0:
            raise ValueError("top_k_parents must be positive")
        if self.repair_attempts < 0:
            raise ValueError("repair_attempts cannot be negative")


class EvolutionarySearch:
    """Wires Template, Generator, and the evaluation engine into the search loop."""

    def __init__(
        self,
        template: Template,
        generator: Generator,
        checker: Checker,
        evaluator: Evaluator,
        config: Optional[SearchConfig] = None,
        context: Optional[Context] = None,
        engine: Optional[EvaluationEngine] = None,
        engine_config: Optional[EngineConfig] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        events: Optional[EventBus] = None,
        fidelity: Optional[FidelitySchedule] = None,
    ):
        self.template = template
        self.generator = generator
        self.checker = checker
        self.evaluator = evaluator
        self.config = config or SearchConfig()
        self.context = context
        # `is not None`, not truthiness: an empty caller-supplied bus must be
        # kept so later subscribe() calls observe the run.
        self.events = events if events is not None else EventBus()
        if engine is not None and engine_config is not None:
            raise ValueError(
                "pass either a prebuilt engine or an engine_config, not both "
                "(a prebuilt engine keeps its own configuration)"
            )
        self.engine = engine or EvaluationEngine(
            checker,
            evaluator,
            generator=generator,
            repair_attempts=self.config.repair_attempts,
            config=engine_config,
            events=self.events,
            fidelity=fidelity,
        )
        if engine is not None:
            if fidelity is not None:
                engine.attach_fidelity(fidelity)
            if events is not None:
                # A prebuilt engine joins the caller's event stream.
                engine.events = self.events
            else:
                # One bus for the whole run: adopt the engine's, so candidate
                # events and lifecycle events reach the same subscribers.
                self.events = engine.events
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.checkpoint_every = checkpoint_every

    # -- public API -----------------------------------------------------------------

    def run(self) -> SearchResult:
        """Execute the search and return every candidate plus the winner.

        If ``checkpoint_path`` points at an existing checkpoint, the search
        resumes from it: completed rounds are restored verbatim and only the
        remaining rounds execute.
        """
        try:
            return self._run()
        finally:
            # Release worker processes/threads (and their pickled evaluator
            # copies); the engine recreates its pool lazily if reused.
            self.engine.close()

    def _run(self) -> SearchResult:
        start = time.perf_counter()
        population: List[ScoredCandidate] = []
        rounds: List[RoundSummary] = []
        counter = 0
        # The seed batch's eval-cache and budget counters, in checkpoint form:
        # no round owns them, so they ride beside the rounds to the totals.
        seed_stats: Dict[str, int] = {}

        checkpoint = self._load_checkpoint()
        self.events.emit(
            RunStarted(
                template_name=self.template.name,
                context_name=self.context.name if self.context else "",
                rounds=self.config.rounds,
                candidates_per_round=self.config.candidates_per_round,
                resumed_rounds=len(checkpoint.rounds) if checkpoint else 0,
            )
        )
        if checkpoint is not None:
            population = list(checkpoint.population)
            rounds = list(checkpoint.rounds)
            counter = checkpoint.counter
            seed_stats = dict(checkpoint.seed_stats)
            self.engine.restore_memo(checkpoint.memo)
            self._restore_generator_state(checkpoint.generator_state)
        elif self.config.include_seeds:
            seeds: List[Candidate] = []
            for program in self.template.seed_programs:
                counter += 1
                seeds.append(
                    Candidate(
                        candidate_id=f"seed-{counter}",
                        source=to_source(program),
                        round_index=0,
                        origin="seed",
                    )
                )
            batch = self.engine.process_batch(seeds)
            population.extend(batch.scored)
            seed_stats = {
                "lookups": batch.stats.eval_cache_lookups,
                "hits": batch.stats.eval_cache_hits,
                **batch.stats.budget(),
            }

        for round_index in range(len(rounds) + 1, self.config.rounds + 1):
            summary = self._run_round(round_index, population, counter)
            counter += summary.generated
            rounds.append(summary)
            self.events.emit(
                RoundCompleted(
                    round_index=summary.round_index,
                    generated=summary.generated,
                    evaluated=summary.evaluated,
                    best_score=summary.best_score,
                    best_overall_score=summary.best_overall_score,
                    eval_cache_lookups=summary.eval_cache_lookups,
                    eval_cache_hits=summary.eval_cache_hits,
                    store_lookups=summary.store_lookups,
                    store_hits=summary.store_hits,
                    scenario_best=dict(summary.scenario_best),
                )
            )
            if self.checkpoint_path and (
                round_index % self.checkpoint_every == 0
                or round_index == self.config.rounds
            ):
                self._save_checkpoint(population, rounds, counter, seed_stats)
                self.events.emit(
                    CheckpointWritten(
                        path=str(self.checkpoint_path),
                        completed_rounds=len(rounds),
                    )
                )

        best = self._best_of(population)
        result = SearchResult(
            best=best,
            candidates=population,
            rounds=rounds,
            context_name=self.context.name if self.context else "",
            template_name=self.template.name,
            total_candidates=len(population),
            wall_time_s=time.perf_counter() - start,
            eval_cache_lookups=seed_stats.get("lookups", 0)
            + sum(r.eval_cache_lookups for r in rounds),
            eval_cache_hits=seed_stats.get("hits", 0)
            + sum(r.eval_cache_hits for r in rounds),
        )
        for budget in (BudgetCounters(**budget_kwargs(seed_stats)), *rounds):
            result.add(budget)
        usage = getattr(self.generator, "usage", None)
        if usage is not None:
            result.prompt_tokens = usage.prompt_tokens
            result.completion_tokens = usage.completion_tokens
            result.estimated_cost_usd = self.config.cost_model.cost(
                usage.prompt_tokens, usage.completion_tokens
            )
        self.events.emit(
            RunFinished(
                total_candidates=result.total_candidates,
                valid_candidates=len(result.valid_candidates()),
                rounds=len(rounds),
                best_candidate_id=(
                    best.candidate.candidate_id if best is not None else None
                ),
                best_score=best.score if best is not None else float("-inf"),
                wall_time_s=result.wall_time_s,
            )
        )
        return result

    # -- internals -------------------------------------------------------------------

    def _parents_of(self, population: List[ScoredCandidate]) -> List[ScoredCandidate]:
        """The top-k valid candidates across *all* previous rounds (§4.2.1).

        Only full-fidelity scores are comparable, so candidates the fidelity
        ladder screened out at a sub-full rung are never parents -- a cheap
        rung score must not steer the generator.
        """
        valid = [c for c in population if c.valid and c.full_fidelity]
        valid.sort(key=lambda c: c.score, reverse=True)
        return valid[: self.config.top_k_parents]

    def _best_of(self, population: List[ScoredCandidate]) -> Optional[ScoredCandidate]:
        valid = [c for c in population if c.valid and c.full_fidelity]
        if not valid:
            return None
        return max(valid, key=lambda c: c.score)

    def _run_round(
        self,
        round_index: int,
        population: List[ScoredCandidate],
        id_offset: int,
    ) -> RoundSummary:
        summary = RoundSummary(round_index=round_index)
        parents = self._parents_of(population)
        parent_examples = [(c.source, c.score) for c in parents]
        # Lineage records name the score-sorted parents actually shown to the
        # generator, not the first valid candidates in insertion order.
        parent_ids = [c.candidate.candidate_id for c in parents]
        self.events.emit(
            GenerationStarted(
                round_index=round_index,
                requested=self.config.candidates_per_round,
                parents=len(parent_examples),
            )
        )
        gen_start = time.perf_counter()
        sources = self.generator.generate(parent_examples, self.config.candidates_per_round)
        summary.generation_s = time.perf_counter() - gen_start
        summary.generated = len(sources)
        self.events.emit(
            GenerationCompleted(
                round_index=round_index,
                requested=self.config.candidates_per_round,
                generated=len(sources),
                wall_time_s=summary.generation_s,
            )
        )

        candidates = [
            Candidate(
                candidate_id=f"r{round_index}-c{id_offset + offset}",
                source=source,
                round_index=round_index,
                parent_ids=list(parent_ids),
            )
            for offset, source in enumerate(sources, start=1)
        ]
        eval_start = time.perf_counter()
        batch = self.engine.process_batch(candidates)
        summary.evaluation_s = time.perf_counter() - eval_start
        self._fold_stats(summary, batch.stats)
        self._fold_scored(summary, batch.scored, population)
        return summary

    def _fold_scored(
        self,
        summary: RoundSummary,
        scored_list: List[ScoredCandidate],
        population: List[ScoredCandidate],
    ) -> None:
        """Fold one round's scored candidates (submission order) into the
        summary and the population."""
        for scored in scored_list:
            if scored.evaluation is not None:
                summary.evaluated += 1
                # Round bests only track full-fidelity scores: a screened-out
                # candidate's rung score is not comparable to the rest.
                if scored.valid and scored.full_fidelity:
                    if scored.score > summary.best_score:
                        summary.best_score = scored.score
                    for name, score in scored.evaluation.scenario_scores.items():
                        if score > summary.scenario_best.get(name, float("-inf")):
                            summary.scenario_best[name] = score
            population.append(scored)

        best = self._best_of(population)
        summary.best_overall_score = best.score if best else float("-inf")

    @staticmethod
    def _fold_stats(summary: RoundSummary, stats: BatchStats) -> None:
        summary.passed_check = stats.passed_check
        summary.passed_after_repair = stats.passed_after_repair
        for code, count in stats.failure_codes.items():
            summary.failure_codes[code] = summary.failure_codes.get(code, 0) + count
        summary.eval_cache_lookups = stats.eval_cache_lookups
        summary.eval_cache_hits = stats.eval_cache_hits
        summary.unique_evaluations = stats.unique_evaluations
        summary.add(stats)

    # -- checkpointing ---------------------------------------------------------------

    def _load_checkpoint(self) -> Optional[SearchCheckpoint]:
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return None
        checkpoint = SearchCheckpoint.load(self.checkpoint_path)
        if checkpoint.template_name and checkpoint.template_name != self.template.name:
            raise ValueError(
                f"checkpoint {self.checkpoint_path} was written for template "
                f"{checkpoint.template_name!r}, not {self.template.name!r}"
            )
        context_name = self.context.name if self.context else ""
        if checkpoint.context_name and checkpoint.context_name != context_name:
            raise ValueError(
                f"checkpoint {self.checkpoint_path} was written for context "
                f"{checkpoint.context_name!r}, not {context_name!r}; "
                "use a separate checkpoint path per context"
            )
        context_params = list(self.context.parameters) if self.context else []
        if checkpoint.context_parameters and [
            list(item) for item in context_params
        ] != checkpoint.context_parameters:
            raise ValueError(
                f"checkpoint {self.checkpoint_path} was written with context "
                f"parameters {checkpoint.context_parameters}, not "
                f"{context_params}; its memoized scores are not comparable"
            )
        return checkpoint

    def _save_checkpoint(
        self,
        population: List[ScoredCandidate],
        rounds: List[RoundSummary],
        counter: int,
        seed_stats: Dict[str, int],
    ) -> None:
        checkpoint = SearchCheckpoint(
            template_name=self.template.name,
            context_name=self.context.name if self.context else "",
            context_parameters=[
                list(item) for item in (self.context.parameters if self.context else [])
            ],
            completed_rounds=len(rounds),
            counter=counter,
            population=population,
            rounds=rounds,
            memo=self.engine.memo_snapshot(),
            generator_state=self._capture_generator_state(),
            seed_stats=dict(seed_stats),
        )
        checkpoint.save(self.checkpoint_path)

    def _capture_generator_state(self) -> Optional[Dict[str, Any]]:
        client = getattr(self.generator, "client", None)
        state: Dict[str, Any] = {}
        if client is not None and hasattr(client, "get_state"):
            state["client"] = client.get_state()
        usage = getattr(self.generator, "usage", None)
        if usage is not None:
            state["usage"] = {
                "prompt_tokens": usage.prompt_tokens,
                "completion_tokens": usage.completion_tokens,
                "calls": usage.calls,
            }
        return state or None

    def _restore_generator_state(self, state: Optional[Dict[str, Any]]) -> None:
        if not state:
            return
        client = getattr(self.generator, "client", None)
        if "client" in state and client is not None and hasattr(client, "set_state"):
            client.set_state(state["client"])
        usage = getattr(self.generator, "usage", None)
        if "usage" in state and usage is not None:
            usage.prompt_tokens = int(state["usage"].get("prompt_tokens", 0))
            usage.completion_tokens = int(state["usage"].get("completion_tokens", 0))
            usage.calls = int(state["usage"].get("calls", 0))
