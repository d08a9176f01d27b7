"""§4.2.1 methodology: synthesize a heuristic for one context trace and
compare it against every baseline on that trace.

This is the experiment behind the paper's instance-optimality claim
(§4.2.3): the heuristic synthesized for a context matches or outperforms all
fourteen baselines *on that context*.  The paper uses 20 rounds x 25
candidates; that is the default here too, but the knobs are exposed because
the full run takes several minutes with the interpreted evaluator.

Run via the unified CLI::

    python -m repro run caching-search --set trace=89 --set rounds=20
    python -m repro run caching-search --set dataset=msr --set trace=3 --set rounds=8
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache.policies import BASELINES
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.request import Trace
from repro.cache.simulator import CacheSimulator, cache_size_for, simulate_many
from repro.core.domain import build_search
from repro.core.engine import EngineConfig
from repro.core.results import SearchResult
from repro.experiments.registry import ExperimentDef
from repro.workloads import build_trace


@dataclass
class SearchExperimentResult:
    """Search outcome plus the baseline comparison on the context trace."""

    trace_name: str
    search: SearchResult
    heuristic_miss_ratio: float
    baseline_miss_ratios: Dict[str, float] = field(default_factory=dict)

    @property
    def best_baseline(self) -> str:
        return min(self.baseline_miss_ratios, key=self.baseline_miss_ratios.get)

    @property
    def best_baseline_miss_ratio(self) -> float:
        return self.baseline_miss_ratios[self.best_baseline]

    @property
    def beats_all_baselines(self) -> bool:
        """True when the synthesized heuristic matches/outperforms every baseline."""
        return self.heuristic_miss_ratio <= self.best_baseline_miss_ratio + 1e-9

    @property
    def improvement_over_fifo(self) -> float:
        fifo = self.baseline_miss_ratios["FIFO"]
        if fifo == 0:
            return 0.0
        return (fifo - self.heuristic_miss_ratio) / fifo


def context_trace(dataset: str, index: int, num_requests: Optional[int] = None) -> Trace:
    """The context trace used for one search run."""
    if dataset == "cloudphysics":
        return build_trace("caching/cloudphysics", index=index, num_requests=num_requests or 6000)
    if dataset == "msr":
        return build_trace("caching/msr", index=index, num_requests=num_requests or 8000)
    raise ValueError(f"unknown dataset {dataset!r}")


def run_search_experiment(
    dataset: str = "cloudphysics",
    trace_index: int = 89,
    rounds: int = 20,
    candidates_per_round: int = 25,
    seed: int = 0,
    num_requests: Optional[int] = None,
    cache_fraction: float = 0.10,
    engine_config: Optional[EngineConfig] = None,
    checkpoint_path: Optional[str] = None,
) -> SearchExperimentResult:
    """Run the search on one trace and score the winner against all baselines."""
    trace = context_trace(dataset, trace_index, num_requests)
    setup = build_search(
        "caching",
        rounds=rounds,
        candidates_per_round=candidates_per_round,
        seed=seed,
        trace=trace,
        cache_fraction=cache_fraction,
        engine_config=engine_config,
        checkpoint_path=checkpoint_path,
    )
    search_result = setup.search.run()

    baseline_results = simulate_many(BASELINES, trace, cache_fraction=cache_fraction)
    baseline_miss = {name: r.miss_ratio for name, r in baseline_results.items()}

    # Re-simulate the winner (its evaluator score is -miss_ratio already, but
    # re-running keeps the comparison on exactly the same code path).
    cache = PriorityFunctionCache(
        cache_size_for(trace, cache_fraction),
        search_result.best_program(),
        name="synthesized",
    )
    winner = CacheSimulator().run(cache, trace)

    return SearchExperimentResult(
        trace_name=trace.name,
        search=search_result,
        heuristic_miss_ratio=winner.miss_ratio,
        baseline_miss_ratios=baseline_miss,
    )


def search_experiment_payload(result: SearchExperimentResult) -> dict:
    """Everything the report needs, as plain JSON-serializable data."""
    return {
        "kind": "caching-search",
        "trace_name": result.trace_name,
        "heuristic_miss_ratio": result.heuristic_miss_ratio,
        "baseline_miss_ratios": dict(result.baseline_miss_ratios),
        "best_baseline": result.best_baseline,
        "best_baseline_miss_ratio": result.best_baseline_miss_ratio,
        "beats_all_baselines": result.beats_all_baselines,
        "improvement_over_fifo": result.improvement_over_fifo,
        "total_candidates": result.search.total_candidates,
        "first_pass_check_rate": result.search.first_pass_check_rate(),
        "eval_cache_hit_rate": result.search.eval_cache_hit_rate(),
        "eval_cache_hits": result.search.eval_cache_hits,
        "eval_cache_lookups": result.search.eval_cache_lookups,
        "prompt_tokens": result.search.prompt_tokens,
        "completion_tokens": result.search.completion_tokens,
        "estimated_cost_usd": result.search.estimated_cost_usd,
        "best_source": result.search.best_source(),
    }


def render_search_experiment(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed search report."""
    lines = [
        f"PolicySmith search on trace {payload['trace_name']}",
        f"  candidates evaluated : {payload['total_candidates']}",
        f"  first-pass check rate: {payload['first_pass_check_rate'] * 100:.1f}%",
        f"  eval cache hit rate  : {payload['eval_cache_hit_rate'] * 100:.1f}% "
        f"({payload['eval_cache_hits']}/{payload['eval_cache_lookups']} "
        "evaluations deduplicated)",
        f"  prompt/completion tok: {payload['prompt_tokens']} / {payload['completion_tokens']}",
        f"  estimated API cost   : ${payload['estimated_cost_usd']:.4f}",
        f"  synthesized miss     : {payload['heuristic_miss_ratio']:.4f}",
        f"  best baseline        : {payload['best_baseline']} "
        f"({payload['best_baseline_miss_ratio']:.4f})",
        f"  beats all baselines  : {payload['beats_all_baselines']}",
        f"  improvement over FIFO: {payload['improvement_over_fifo'] * 100:.2f}%",
        "",
        "Synthesized heuristic:",
        payload["best_source"],
    ]
    return "\n".join(lines)


def format_search_experiment(result: SearchExperimentResult) -> str:
    return render_search_experiment(search_experiment_payload(result))


# -- experiment registration --------------------------------------------------------


def _run_search_experiment(
    dataset: str,
    trace: int,
    rounds: int,
    candidates: int,
    requests: Optional[int],
    seed: int,
    cache_fraction: float,
) -> dict:
    result = run_search_experiment(
        dataset=dataset,
        trace_index=trace,
        rounds=rounds,
        candidates_per_round=candidates,
        seed=seed,
        num_requests=requests,
        cache_fraction=cache_fraction,
    )
    return search_experiment_payload(result)


EXPERIMENT = ExperimentDef(
    name="caching-search",
    description="§4.2.1: synthesize a heuristic for one trace, compare to all baselines",
    runner=_run_search_experiment,
    renderer=render_search_experiment,
    params={
        "dataset": "cloudphysics",
        "trace": 89,
        "rounds": 20,
        "candidates": 25,
        "requests": None,
        "seed": 0,
        "cache_fraction": 0.10,
    },
)
