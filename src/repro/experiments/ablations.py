"""Ablations of the search's design choices.

Three ablations, each answering "did this design choice matter?":

* **parent feedback** -- the evolutionary loop feeds the best candidates
  back as examples (§3); the ablation generates every round from scratch.
* **checker repair** -- the Checker's structured feedback drives one repair
  attempt (§3, §5.0.3); the ablation discards rejected candidates.
* **feature richness** -- the Table-1 aggregates and history features
  (§4.1.1 discusses the template-design trade-off); the ablation restricts
  the Template to per-object features only.

Run via the unified CLI::

    python -m repro run ablations --set rounds=4 --set candidates=10
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.cache.search import (
    caching_archetypes,
    caching_seed_programs,
    caching_template,
)
from repro.core.domain import build_search
from repro.core.search import SearchConfig
from repro.core.template import Template
from repro.dsl.grammar import FeatureSpec
from repro.experiments.registry import ExperimentDef, register_experiment
from repro.llm.mock import SyntheticLLMClient, SyntheticLLMConfig
from repro.workloads import build_trace


@dataclass
class AblationResult:
    """Best miss ratio achieved by one search variant."""

    name: str
    best_miss_ratio: float
    valid_candidates: int
    total_candidates: int


def _restricted_template() -> Template:
    """The Template with only per-object features (no aggregates, no history)."""
    full = caching_template()
    spec = FeatureSpec(
        function_name=full.spec.function_name,
        params=list(full.spec.params),
        scalar_params=list(full.spec.scalar_params),
        object_attrs={"obj_info": list(full.spec.object_attrs["obj_info"])},
        object_methods={},
        key_params=list(full.spec.key_params),
        integer_only=False,
        result_var="score",
    )
    return Template(
        name="cache-priority-objonly",
        spec=spec,
        description=full.description,
        constraints=list(full.constraints),
        seed_programs=caching_seed_programs(),
    )


def _run_variant(
    name: str,
    template: Template,
    trace,
    seed: int,
    search_config: SearchConfig,
    archetypes: Optional[List[str]],
) -> AblationResult:
    """One search variant, assembled through the shared domain entry point.

    The client is built explicitly (and passed as an override) because the
    restricted variants need an exact -- possibly empty -- archetype list,
    which the caching domain's ``prepare_llm_config`` would otherwise
    backfill with the full set.
    """
    client = SyntheticLLMClient(
        template.spec,
        config=SyntheticLLMConfig(archetypes=list(archetypes or [])),
        seed=seed,
    )
    setup = build_search(
        "caching",
        seed=seed,
        trace=trace,
        template=template,
        client=client,
        search_config=search_config,
    )
    result = setup.search.run()
    best_miss = -result.best.score if result.best is not None else 1.0
    return AblationResult(
        name=name,
        best_miss_ratio=best_miss,
        valid_candidates=len(result.valid_candidates()),
        total_candidates=result.total_candidates,
    )


def run_ablations(
    trace_index: int = 89,
    num_requests: int = 3000,
    rounds: int = 4,
    candidates_per_round: int = 10,
    seed: int = 0,
) -> List[AblationResult]:
    """Run the full search and its three ablated variants on one trace."""
    trace = build_trace("caching/cloudphysics", index=trace_index, num_requests=num_requests)
    full_template = caching_template()
    archetypes = caching_archetypes()
    variants = [
        ("full", full_template, 2, 1, archetypes),
        ("no-parent-feedback", full_template, 0, 1, archetypes),
        ("no-repair", full_template, 2, 0, archetypes),
        ("object-features-only", _restricted_template(), 2, 1, None),
    ]
    results: List[AblationResult] = []
    for name, template, top_k, repairs, arch in variants:
        # top_k_parents must stay >= 1 for the search config; "no parent
        # feedback" is modelled by not passing any examples (top_k=1 but the
        # generator gets an empty parent list when include_seeds is False).
        config = SearchConfig(
            rounds=rounds,
            candidates_per_round=candidates_per_round,
            top_k_parents=max(1, top_k),
            repair_attempts=repairs,
            include_seeds=top_k > 0,
        )
        results.append(_run_variant(name, template, trace, seed, config, arch))
    return results


def format_ablations(results: List[AblationResult]) -> str:
    lines = [
        "Search ablations (lower best-miss-ratio is better)",
        f"{'variant':<24} {'best miss':>10} {'valid':>7} {'total':>7}",
    ]
    for result in results:
        lines.append(
            f"{result.name:<24} {result.best_miss_ratio:>10.4f} "
            f"{result.valid_candidates:>7} {result.total_candidates:>7}"
        )
    return "\n".join(lines)


# -- experiment registration --------------------------------------------------------


def ablations_payload(results: List[AblationResult]) -> dict:
    return {"kind": "ablations", "results": [asdict(result) for result in results]}


def render_ablations(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed ablation table."""
    return format_ablations([AblationResult(**raw) for raw in payload["results"]])


def _run_ablations_experiment(
    trace: int, requests: int, rounds: int, candidates: int, seed: int
) -> dict:
    results = run_ablations(
        trace_index=trace,
        num_requests=requests,
        rounds=rounds,
        candidates_per_round=candidates,
        seed=seed,
    )
    return ablations_payload(results)


register_experiment(
    ExperimentDef(
        name="ablations",
        description="Search-design ablations: parent feedback, repair, feature richness",
        runner=_run_ablations_experiment,
        renderer=render_ablations,
        params={
            "trace": 89,
            "requests": 3000,
            "rounds": 4,
            "candidates": 10,
            "seed": 0,
        },
    )
)
