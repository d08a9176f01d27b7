"""§4.2.6 computational cost of the search.

The paper reports, for the search that produced Heuristic A: 5.5 CPU-hours
of candidate evaluation, ~800k input tokens and ~300k output tokens with
GPT-4o-mini, and roughly $7 total for the eight runs of §4.

This module runs one or more (scaled-down) searches and produces the same
accounting row: evaluation CPU time, prompt/completion tokens, and the cost
those tokens would incur at GPT-4o-mini prices.

Run via the unified CLI::

    python -m repro run cost-accounting --set rounds=4 --set candidates=10
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.core.cost import GPT_4O_MINI_PRICING, SearchCostReport
from repro.core.domain import build_search
from repro.experiments.registry import ExperimentDef
from repro.workloads import build_trace


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped children: evaluation runs in
    pool workers, which ``search.run()`` joins before it returns."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_cost_accounting(
    trace_indices: Optional[List[int]] = None,
    rounds: int = 4,
    candidates_per_round: int = 10,
    num_requests: int = 3000,
    seed: int = 0,
) -> SearchCostReport:
    """Run one search per trace index and aggregate the cost report."""
    indices = trace_indices if trace_indices is not None else [89]
    report = SearchCostReport(cost_model=GPT_4O_MINI_PRICING)
    for index in indices:
        trace = build_trace("caching/cloudphysics", index=index, num_requests=num_requests)
        setup = build_search(
            "caching",
            rounds=rounds,
            candidates_per_round=candidates_per_round,
            seed=seed,
            trace=trace,
        )
        start = _cpu_seconds()
        result = setup.search.run()
        cpu_seconds = _cpu_seconds() - start
        report.add_run(
            name=f"cloudphysics/{trace.name}",
            prompt_tokens=result.prompt_tokens,
            completion_tokens=result.completion_tokens,
            evaluation_cpu_seconds=cpu_seconds,
        )
    return report


def cost_report_payload(report: SearchCostReport) -> dict:
    return {
        "kind": "cost-accounting",
        "cost_model": {
            "model": report.cost_model.model,
            "usd_per_million_input": report.cost_model.usd_per_million_input,
            "usd_per_million_output": report.cost_model.usd_per_million_output,
        },
        "per_run": [dict(run) for run in report.per_run],
        "prompt_tokens": report.prompt_tokens,
        "completion_tokens": report.completion_tokens,
        "evaluation_cpu_seconds": report.evaluation_cpu_seconds,
        "total_cost_usd": report.total_cost_usd,
        "evaluation_cpu_hours": report.evaluation_cpu_hours,
    }


def render_cost_report(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed accounting table."""
    model = payload["cost_model"]
    lines = [
        "Search cost accounting (GPT-4o-mini price sheet: "
        f"${model['usd_per_million_input']}/M input, "
        f"${model['usd_per_million_output']}/M output)",
        f"{'run':<24} {'prompt tok':>12} {'completion tok':>15} {'cpu s':>8} {'cost $':>9}",
    ]
    for run in payload["per_run"]:
        lines.append(
            f"{run['name']:<24} {run['prompt_tokens']:>12,} "
            f"{run['completion_tokens']:>15,} {run['evaluation_cpu_seconds']:>8.1f} "
            f"{run['cost_usd']:>9.4f}"
        )
    lines.append(
        f"{'TOTAL':<24} {payload['prompt_tokens']:>12,} "
        f"{payload['completion_tokens']:>15,} "
        f"{payload['evaluation_cpu_seconds']:>8.1f} {payload['total_cost_usd']:>9.4f}"
    )
    lines.append(
        f"evaluation CPU-hours: {payload['evaluation_cpu_hours']:.3f}"
    )
    return "\n".join(lines)


def format_cost_report(report: SearchCostReport) -> str:
    return render_cost_report(cost_report_payload(report))


# -- experiment registration --------------------------------------------------------


def _run_cost_accounting_experiment(
    traces: List[int], rounds: int, candidates: int, requests: int, seed: int
) -> dict:
    # Accept a bare index too: `--set traces=4` is the natural migration from
    # the old `--traces 4` CLI and from every other experiment's scalar knobs.
    if isinstance(traces, int):
        traces = [traces]
    report = run_cost_accounting(
        trace_indices=list(traces),
        rounds=rounds,
        candidates_per_round=candidates,
        num_requests=requests,
        seed=seed,
    )
    return cost_report_payload(report)


EXPERIMENT = ExperimentDef(
    name="cost-accounting",
    description="§4.2.6: CPU time, tokens and dollar cost of search runs",
    runner=_run_cost_accounting_experiment,
    renderer=render_cost_report,
    params={
        "traces": [89],
        "rounds": 4,
        "candidates": 10,
        "requests": 3000,
        "seed": 0,
    },
)
