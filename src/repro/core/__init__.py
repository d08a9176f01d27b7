"""The PolicySmith framework (the paper's primary contribution, Fig. 1).

The framework separates *specification* from *search*:

* the user supplies a :class:`~repro.core.template.Template` (the program
  space + natural-language constraints), a
  :class:`~repro.core.checker.Checker` (syntactic/semantic gatekeeper) and an
  :class:`~repro.core.evaluator.Evaluator` (context-specific scoring);
* :class:`~repro.core.search.EvolutionarySearch` drives an LLM-based
  :class:`~repro.core.generator.Generator` through rounds of generation,
  checking, evaluation and parent feedback, producing an instance-optimal
  heuristic for the given :class:`~repro.core.context.Context`.

Nothing in this package knows about caching or congestion control; the case
studies plug in their own Templates, Checkers and Evaluators.
"""

from repro.core.context import Context, ContextShiftDetector
from repro.core.template import Template
from repro.core.checker import (
    CheckIssue,
    CheckResult,
    Checker,
    CompositeChecker,
    StructuralChecker,
)
from repro.core.evaluator import EvaluationResult, Evaluator, FunctionEvaluator
from repro.core.scenarios import MultiScenarioEvaluator, ScoreReducer
from repro.core.generator import Generator, LLMGenerator
from repro.core.results import Candidate, ScoredCandidate, RoundSummary, SearchResult
from repro.core.search import EvolutionarySearch, SearchConfig
from repro.core.engine import BatchStats, EngineConfig, EvaluationEngine
from repro.core.executors import EvalUnit, Executor
from repro.core.store import (
    STORE_SCHEMA_VERSION,
    BoundEvalStore,
    EvaluationStore,
    GcOutcome,
    StoreStats,
    fidelity_eval_key,
)
from repro.core.fidelity import DEFAULT_RUNGS, FidelitySchedule
from repro.core.domain import (
    SearchDomain,
    SearchSetup,
    available_domains,
    build_search,
    get_domain,
)
from repro.core.archive import HeuristicArchive, ArchiveEntry, SearchCheckpoint
from repro.core.cost import CostModel, GPT_4O_MINI_PRICING, SearchCostReport
from repro.core.events import (
    CandidateEliminated,
    CandidateEvaluated,
    CandidatePromoted,
    CheckpointWritten,
    EventBus,
    JsonlEventLog,
    ProgressPrinter,
    RoundCompleted,
    RunEvent,
    RunFinished,
    RunStarted,
)
from repro.core.artifacts import (
    ARTIFACT_VERSION,
    ArtifactStore,
    RunArtifact,
    search_result_from_dict,
    search_result_to_dict,
)
from repro.core.spec import (
    RunOutcome,
    RunSpec,
    SweepOutcome,
    build_from_spec,
    run,
    run_sweep,
)

__all__ = [
    "Context",
    "ContextShiftDetector",
    "Template",
    "CheckIssue",
    "CheckResult",
    "Checker",
    "CompositeChecker",
    "StructuralChecker",
    "EvaluationResult",
    "Evaluator",
    "FunctionEvaluator",
    "MultiScenarioEvaluator",
    "ScoreReducer",
    "Generator",
    "LLMGenerator",
    "Candidate",
    "ScoredCandidate",
    "RoundSummary",
    "SearchResult",
    "EvolutionarySearch",
    "SearchConfig",
    "BatchStats",
    "EngineConfig",
    "EvaluationEngine",
    "EvalUnit",
    "Executor",
    "STORE_SCHEMA_VERSION",
    "BoundEvalStore",
    "EvaluationStore",
    "GcOutcome",
    "StoreStats",
    "fidelity_eval_key",
    "DEFAULT_RUNGS",
    "FidelitySchedule",
    "SearchDomain",
    "SearchSetup",
    "available_domains",
    "build_search",
    "get_domain",
    "HeuristicArchive",
    "ArchiveEntry",
    "SearchCheckpoint",
    "CostModel",
    "GPT_4O_MINI_PRICING",
    "SearchCostReport",
    "RunEvent",
    "RunStarted",
    "CandidateEvaluated",
    "CandidatePromoted",
    "CandidateEliminated",
    "RoundCompleted",
    "CheckpointWritten",
    "RunFinished",
    "EventBus",
    "ProgressPrinter",
    "JsonlEventLog",
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "RunArtifact",
    "search_result_to_dict",
    "search_result_from_dict",
    "RunSpec",
    "RunOutcome",
    "SweepOutcome",
    "build_from_spec",
    "run",
    "run_sweep",
]
