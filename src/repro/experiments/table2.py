"""Table 2: fraction of corpus traces where each synthesized heuristic
outperforms *all* fourteen baselines.

The paper reports, e.g., Heuristic A winning on 48 % of CloudPhysics traces
and Heuristic X on 64 % of MSR traces.  The exact numbers depend on the
traces; the shape to reproduce is that each heuristic wins on a substantial
fraction of its corpus (well above 0) without winning everywhere.

Run via the unified CLI::

    python -m repro run table2
    python -m repro run table2 --set dataset=msr --set traces=14
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.experiments.corpus import CorpusEvaluation, evaluate_corpus
from repro.experiments.registry import ExperimentDef, register_experiment


@dataclass
class Table2Entry:
    """One cell of Table 2."""

    dataset: str
    heuristic: str
    wins: int
    traces: int

    @property
    def win_fraction(self) -> float:
        return self.wins / self.traces if self.traces else 0.0


def table2_from_evaluation(
    evaluation: CorpusEvaluation, tolerance: float = 1e-9
) -> List[Table2Entry]:
    """Count, per heuristic, traces where it beats or matches every baseline.

    "Outperform" is interpreted as a strictly lower-or-equal miss ratio than
    the best baseline on that trace (ties count as wins, matching the paper's
    "match or outperform" phrasing in §4.2.3).
    """
    entries: List[Table2Entry] = []
    traces = evaluation.traces()
    for heuristic in evaluation.heuristic_names:
        wins = 0
        for trace in traces:
            per_policy = evaluation.results[trace]
            heuristic_miss = per_policy[heuristic].miss_ratio
            best_baseline_miss = min(
                per_policy[name].miss_ratio for name in evaluation.baseline_names
            )
            if heuristic_miss <= best_baseline_miss + tolerance:
                wins += 1
        entries.append(
            Table2Entry(
                dataset=evaluation.dataset,
                heuristic=heuristic,
                wins=wins,
                traces=len(traces),
            )
        )
    return entries


def run_table2(
    dataset: str = "cloudphysics",
    trace_count: Optional[int] = None,
    num_requests: Optional[int] = None,
    evaluation: Optional[CorpusEvaluation] = None,
) -> List[Table2Entry]:
    """Build Table 2 for ``dataset`` (reusing ``evaluation`` if provided)."""
    if evaluation is None:
        evaluation = evaluate_corpus(
            dataset, trace_count=trace_count, num_requests=num_requests
        )
    return table2_from_evaluation(evaluation)


def format_table2(entries: List[Table2Entry]) -> str:
    lines = [
        "Table 2: % of traces where the synthesized heuristic beats all baselines",
        f"{'dataset':<14} {'heuristic':<14} {'wins':>6} {'traces':>7} {'share':>8}",
    ]
    for entry in entries:
        lines.append(
            f"{entry.dataset:<14} {entry.heuristic:<14} {entry.wins:>6} "
            f"{entry.traces:>7} {entry.win_fraction * 100:7.1f}%"
        )
    return "\n".join(lines)


# -- experiment registration --------------------------------------------------------


def table2_payload(entries: List[Table2Entry]) -> dict:
    return {"kind": "table2", "entries": [asdict(entry) for entry in entries]}


def render_table2(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed Table 2."""
    return format_table2([Table2Entry(**entry) for entry in payload["entries"]])


def _run_table2_experiment(
    dataset: str, traces: Optional[int], requests: Optional[int]
) -> dict:
    datasets = ["cloudphysics", "msr"] if dataset == "both" else [dataset]
    all_entries: List[Table2Entry] = []
    for name in datasets:
        all_entries.extend(
            run_table2(name, trace_count=traces, num_requests=requests)
        )
    return table2_payload(all_entries)


register_experiment(
    ExperimentDef(
        name="table2",
        description="Table 2: share of traces where each heuristic beats all baselines",
        runner=_run_table2_experiment,
        renderer=render_table2,
        params={"dataset": "both", "traces": None, "requests": None},
    )
)
