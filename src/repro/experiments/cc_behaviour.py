"""§5.0.3 behaviour spread: utilisation and queueing delay of the candidates
that compiled.

The paper evaluates the successfully compiled congestion-control candidates
on a 12 Mbps, 20 ms emulated link and reports that their behaviour varies
widely: bandwidth utilisation from 23 % to 98 % and average queueing delays
from 2 ms to 40 ms.  The shape to reproduce is that spread -- automated
search explores genuinely diverse policies -- rather than the exact
endpoints.

Run via the unified CLI::

    python -m repro run cc-behaviour --set candidates=40 --set duration=4
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from repro.cc.evaluator import default_cc_simulation_config
from repro.cc.policies import CubicController, RenoController
from repro.core.domain import build_search
from repro.experiments.registry import ExperimentDef, register_experiment
from repro.netsim.simulator import NetworkSimulator


@dataclass
class CandidateBehaviour:
    """Link-level behaviour of one compiled candidate."""

    name: str
    utilization: float
    mean_queueing_delay_ms: float
    loss_rate: float


@dataclass
class BehaviourReport:
    """Behaviour of every compiled candidate plus the reference baselines."""

    candidates: List[CandidateBehaviour] = field(default_factory=list)
    baselines: List[CandidateBehaviour] = field(default_factory=list)

    def utilization_range(self) -> tuple:
        if not self.candidates:
            return (0.0, 0.0)
        values = [c.utilization for c in self.candidates]
        return (min(values), max(values))

    def delay_range_ms(self) -> tuple:
        if not self.candidates:
            return (0.0, 0.0)
        values = [c.mean_queueing_delay_ms for c in self.candidates]
        return (min(values), max(values))


def _baseline_behaviour(name: str, controller, duration_s: float) -> CandidateBehaviour:
    simulator = NetworkSimulator(default_cc_simulation_config(duration_s))
    simulator.add_flow(controller)
    metrics = simulator.run()
    return CandidateBehaviour(
        name=name,
        utilization=metrics.utilization,
        mean_queueing_delay_ms=metrics.mean_queueing_delay_ms,
        loss_rate=metrics.loss_rate,
    )


def run_cc_behaviour(
    num_candidates: int = 50,
    seed: int = 23,
    duration_s: float = 4.0,
    include_baselines: bool = True,
) -> BehaviourReport:
    """Generate candidates via the search machinery and measure the compiled ones.

    The candidates come from a short search (which is how the paper produced
    them: generation + verification + evaluation), so each one has already
    passed the kernel-constraint checker before it is measured here.
    """
    candidates_per_round = 25
    rounds = max(1, (num_candidates + candidates_per_round - 1) // candidates_per_round)
    setup = build_search(
        "cc",
        rounds=rounds,
        candidates_per_round=candidates_per_round,
        seed=seed,
        duration_s=duration_s,
    )
    result = setup.search.run()

    report = BehaviourReport()
    for scored in result.valid_candidates():
        if scored.candidate.origin == "seed":
            continue
        details = scored.evaluation.details if scored.evaluation else {}
        report.candidates.append(
            CandidateBehaviour(
                name=scored.candidate.candidate_id,
                utilization=float(details.get("utilization", 0.0)),
                mean_queueing_delay_ms=float(details.get("mean_queueing_delay_ms", 0.0)),
                loss_rate=float(details.get("loss_rate", 0.0)),
            )
        )
        if len(report.candidates) >= num_candidates:
            break

    if include_baselines:
        report.baselines.append(_baseline_behaviour("Reno", RenoController(), duration_s))
        report.baselines.append(_baseline_behaviour("CUBIC", CubicController(), duration_s))
    return report


def format_behaviour(report: BehaviourReport) -> str:
    util_lo, util_hi = report.utilization_range()
    delay_lo, delay_hi = report.delay_range_ms()
    lines = [
        f"Compiled candidates evaluated on the 12 Mbps / 20 ms link: {len(report.candidates)}",
        f"  bandwidth utilisation : {util_lo * 100:.0f}% .. {util_hi * 100:.0f}%",
        f"  mean queueing delay   : {delay_lo:.1f} ms .. {delay_hi:.1f} ms",
    ]
    for baseline in report.baselines:
        lines.append(
            f"  reference {baseline.name:<6}: util {baseline.utilization * 100:.0f}%, "
            f"delay {baseline.mean_queueing_delay_ms:.1f} ms, "
            f"loss {baseline.loss_rate * 100:.2f}%"
        )
    return "\n".join(lines)


# -- experiment registration --------------------------------------------------------


def behaviour_payload(report: BehaviourReport) -> dict:
    return {
        "kind": "cc-behaviour",
        "candidates": [asdict(candidate) for candidate in report.candidates],
        "baselines": [asdict(baseline) for baseline in report.baselines],
    }


def render_behaviour(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed behaviour-spread report."""
    report = BehaviourReport(
        candidates=[CandidateBehaviour(**raw) for raw in payload["candidates"]],
        baselines=[CandidateBehaviour(**raw) for raw in payload["baselines"]],
    )
    return format_behaviour(report)


def _run_cc_behaviour_experiment(candidates: int, seed: int, duration: float) -> dict:
    report = run_cc_behaviour(
        num_candidates=candidates, seed=seed, duration_s=duration
    )
    return behaviour_payload(report)


register_experiment(
    ExperimentDef(
        name="cc-behaviour",
        description="§5.0.3: utilisation/queueing-delay spread of compiled candidates",
        runner=_run_cc_behaviour_experiment,
        renderer=render_behaviour,
        params={"candidates": 50, "seed": 23, "duration": 4.0},
    )
)
