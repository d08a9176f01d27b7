"""Figure 2: miss-ratio improvement over FIFO across a whole corpus.

For every policy (the 14 baselines, the evolved heuristics for the dataset,
and the two oracles) the paper plots the distribution of per-trace
improvements over FIFO, with the mean marked, policies ordered left to right
by increasing average.  This module produces exactly those series as data
and prints them as a sorted text table (one row per policy: mean, median,
min, max improvement).

Run via the unified CLI::

    python -m repro run figure2
    python -m repro run figure2 --set dataset=msr --set traces=20
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.experiments.registry import ExperimentDef

from repro.cache.oracle import baseline_oracle, policysmith_oracle
from repro.experiments.corpus import CorpusEvaluation, evaluate_corpus


@dataclass
class Figure2Row:
    """One policy's series in Figure 2."""

    policy: str
    kind: str  # "baseline" | "heuristic" | "oracle"
    mean_improvement: float
    median_improvement: float
    min_improvement: float
    max_improvement: float
    improvements: List[float] = field(default_factory=list)


@dataclass
class Figure2Result:
    """The full figure for one dataset."""

    dataset: str
    traces: List[str]
    rows: List[Figure2Row]

    def row(self, policy: str) -> Figure2Row:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)

    def ordered_rows(self) -> List[Figure2Row]:
        """Rows ordered left-to-right by increasing mean, as in the figure."""
        return sorted(self.rows, key=lambda r: r.mean_improvement)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "traces": list(self.traces),
            "rows": [asdict(row) for row in self.ordered_rows()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Figure2Result":
        return cls(
            dataset=data["dataset"],
            traces=list(data["traces"]),
            rows=[Figure2Row(**row) for row in data["rows"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _series_row(policy: str, kind: str, improvements: List[float]) -> Figure2Row:
    ordered = sorted(improvements)
    n = len(ordered)
    median = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return Figure2Row(
        policy=policy,
        kind=kind,
        mean_improvement=sum(ordered) / n if n else 0.0,
        median_improvement=median if n else 0.0,
        min_improvement=ordered[0] if n else 0.0,
        max_improvement=ordered[-1] if n else 0.0,
        improvements=list(improvements),
    )


def figure2_from_evaluation(evaluation: CorpusEvaluation) -> Figure2Result:
    """Post-process a corpus evaluation into the Figure 2 series."""
    rows: List[Figure2Row] = []
    for name in evaluation.baseline_names:
        rows.append(_series_row(name, "baseline", evaluation.improvements_for(name)))
    for name in evaluation.heuristic_names:
        rows.append(_series_row(name, "heuristic", evaluation.improvements_for(name)))

    b_oracle = baseline_oracle(evaluation.baseline_names)
    ps_oracle = policysmith_oracle(evaluation.baseline_names, evaluation.heuristic_names)
    b_selections = b_oracle.select(evaluation.results)
    ps_selections = ps_oracle.select(evaluation.results)
    rows.append(
        _series_row(
            "B-Oracle", "oracle", [s.improvement_over_fifo for s in b_selections]
        )
    )
    rows.append(
        _series_row(
            "PS-Oracle", "oracle", [s.improvement_over_fifo for s in ps_selections]
        )
    )
    return Figure2Result(
        dataset=evaluation.dataset, traces=evaluation.traces(), rows=rows
    )


def run_figure2(
    dataset: str = "cloudphysics",
    trace_count: Optional[int] = None,
    num_requests: Optional[int] = None,
    cache_fraction: float = 0.10,
    progress: bool = False,
) -> Figure2Result:
    """Evaluate the corpus and build the Figure 2 series for ``dataset``."""
    evaluation = evaluate_corpus(
        dataset,
        trace_count=trace_count,
        num_requests=num_requests,
        cache_fraction=cache_fraction,
        # stderr, so report output on stdout stays machine-comparable.
        progress=(
            (lambda name: print(f"  simulating {name} ...", file=sys.stderr))
            if progress
            else None
        ),
    )
    return figure2_from_evaluation(evaluation)


def format_figure2(result: Figure2Result, top_baselines: Optional[int] = None) -> str:
    """Text rendering of the figure (policies ordered by increasing mean)."""
    rows = result.ordered_rows()
    if top_baselines is not None:
        baselines = [r for r in rows if r.kind == "baseline"]
        keep = {r.policy for r in baselines[-top_baselines:]}
        keep.add("FIFO")
        rows = [r for r in rows if r.kind != "baseline" or r.policy in keep]
    lines = [
        f"Figure 2 ({result.dataset}): miss-ratio improvement over FIFO, "
        f"{len(result.traces)} traces",
        f"{'policy':<16} {'kind':<10} {'mean':>8} {'median':>8} {'min':>8} {'max':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.policy:<16} {row.kind:<10} "
            f"{row.mean_improvement * 100:7.2f}% {row.median_improvement * 100:7.2f}% "
            f"{row.min_improvement * 100:7.2f}% {row.max_improvement * 100:7.2f}%"
        )
    return "\n".join(lines)


# -- experiment registration --------------------------------------------------------


def figure2_payload(result: Figure2Result, top_baselines: Optional[int] = 5) -> dict:
    """The artifact payload: the full series plus the rendering options."""
    payload = result.to_dict()
    payload["kind"] = "figure2"
    payload["top_baselines"] = top_baselines
    return payload


def render_figure2(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed Figure 2 table."""
    return format_figure2(
        Figure2Result.from_dict(payload), top_baselines=payload.get("top_baselines")
    )


def _run_figure2_experiment(
    dataset: str,
    traces: Optional[int],
    requests: Optional[int],
    cache_fraction: float,
    top_baselines: Optional[int],
    progress: bool = False,
) -> dict:
    result = run_figure2(
        dataset=dataset,
        trace_count=traces,
        num_requests=requests,
        cache_fraction=cache_fraction,
        progress=progress,
    )
    return figure2_payload(result, top_baselines=top_baselines)


EXPERIMENT = ExperimentDef(
    name="figure2",
    description="Figure 2: miss-ratio improvement over FIFO across a corpus",
    runner=_run_figure2_experiment,
    renderer=render_figure2,
    params={
        "dataset": "cloudphysics",
        "traces": None,
        "requests": None,
        "cache_fraction": 0.10,
        "top_baselines": 5,
    },
    accepts_progress=True,
)
