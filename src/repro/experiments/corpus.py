"""Shared corpus evaluation used by Figure 2 and Table 2.

Running every policy (14 baselines + the evolved heuristics) over every
trace of a corpus is the expensive part of both experiments, so it is done
once here and the figure/table modules post-process the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.cache.metrics import SimulationResult
from repro.cache.policies import BASELINES, PolicyFactory
from repro.cache.policies.evolved import (
    CLOUDPHYSICS_HEURISTICS,
    MSR_HEURISTICS,
    evolved_policy_factories,
)
from repro.cache.request import Trace
from repro.cache.simulator import simulate_many
from repro.workloads.cache import corpus_traces

#: Default trace scaling for the full experiment (kept modest so that the
#: whole corpus runs in minutes on a laptop).
DEFAULT_NUM_REQUESTS = {"cloudphysics": 6000, "msr": 8000}


def dataset_heuristics(dataset: str) -> Dict[str, str]:
    """The evolved heuristics associated with a dataset (paper naming)."""
    if dataset == "cloudphysics":
        return dict(CLOUDPHYSICS_HEURISTICS)
    if dataset == "msr":
        return dict(MSR_HEURISTICS)
    raise ValueError(f"unknown dataset {dataset!r} (use 'cloudphysics' or 'msr')")


def dataset_traces(
    dataset: str,
    trace_count: Optional[int] = None,
    num_requests: Optional[int] = None,
) -> Iterable[Trace]:
    """The synthetic corpus standing in for ``dataset`` (workload registry)."""
    if dataset not in DEFAULT_NUM_REQUESTS:
        raise ValueError(f"unknown dataset {dataset!r} (use 'cloudphysics' or 'msr')")
    requests = num_requests or DEFAULT_NUM_REQUESTS[dataset]
    return corpus_traces(dataset, count=trace_count, num_requests=requests)


@dataclass
class CorpusEvaluation:
    """All simulation results for one dataset.

    ``results`` maps ``trace name -> policy name -> SimulationResult``;
    ``baseline_names`` / ``heuristic_names`` record which policies belong to
    which group (needed by the oracles and Table 2).
    """

    dataset: str
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    baseline_names: List[str] = field(default_factory=list)
    heuristic_names: List[str] = field(default_factory=list)
    cache_fraction: float = 0.10

    def traces(self) -> List[str]:
        return list(self.results.keys())

    def improvement_over_fifo(self, trace: str, policy: str) -> float:
        per_policy = self.results[trace]
        return per_policy[policy].improvement_over(per_policy["FIFO"])

    def improvements_for(self, policy: str) -> List[float]:
        """Improvement over FIFO of ``policy`` on every trace (Figure 2's dots)."""
        return [
            self.improvement_over_fifo(trace, policy)
            for trace in self.results
            if policy in self.results[trace]
        ]

    def mean_improvement(self, policy: str) -> float:
        values = self.improvements_for(policy)
        return sum(values) / len(values) if values else 0.0


def evaluate_corpus(
    dataset: str,
    trace_count: Optional[int] = None,
    num_requests: Optional[int] = None,
    cache_fraction: float = 0.10,
    baselines: Optional[Dict[str, PolicyFactory]] = None,
    heuristics: Optional[Dict[str, str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CorpusEvaluation:
    """Simulate baselines + evolved heuristics over a whole corpus.

    ``trace_count`` / ``num_requests`` scale the experiment down (the
    benchmark harness uses a subset; ``None`` means the full corpus at the
    default trace length, as the experiment CLI does).
    """
    baseline_factories = dict(baselines if baselines is not None else BASELINES)
    heuristic_sources = heuristics if heuristics is not None else dataset_heuristics(dataset)
    heuristic_factories = evolved_policy_factories(heuristic_sources)

    policies: Dict[str, PolicyFactory] = {}
    policies.update(baseline_factories)
    policies.update(heuristic_factories)

    evaluation = CorpusEvaluation(
        dataset=dataset,
        baseline_names=list(baseline_factories),
        heuristic_names=list(heuristic_factories),
        cache_fraction=cache_fraction,
    )
    for trace in dataset_traces(dataset, trace_count, num_requests):
        if progress is not None:
            progress(trace.name)
        evaluation.results[trace.name] = simulate_many(
            policies, trace, cache_fraction=cache_fraction
        )
    return evaluation
