"""Evaluator for congestion-control candidates (§5.0.3's emulated link).

The evaluation topology is a declarative
:class:`~repro.workloads.netsim.NetSimScenario` from the workload registry:
the paper's single-flow link is the registered ``cc/single-flow`` default,
and the same evaluator scores candidates on multi-flow, bursty-cross-traffic
and lossy-link scenarios (with fairness and p99-queueing-delay terms joining
the objective when the scenario weights them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cc.dsl_controller import DslCongestionController
from repro.core.evaluator import RUNTIME_ERRORS, EvaluationResult, Evaluator
from repro.dsl.ast import Program
from repro.dsl.compile import DEFAULT_BACKEND
from repro.netsim.link import LinkConfig
from repro.netsim.simulator import SimulationConfig, SimulationMetrics
from repro.workloads.netsim import NetSimScenario, build_scenario


def cc_input_intervals():
    """Value ranges of the cong_control signals, for static screening.

    Every signal is a non-negative integer (``signals_environment`` clamps
    the RTT family at zero); ``cwnd`` additionally lives inside the flow's
    clamp, which is also the declared ``output_clamp`` -- the window a
    returned value is clamped into by the netsim loop (:mod:`repro.netsim.fused`).
    A return provably at or below the floor (or at or above the ceiling) for
    all signal values is a pinned, degenerate controller.
    """
    from repro.dsl.abstract import InputIntervals, Interval
    from repro.netsim.flow import Flow

    non_negative = Interval(0, float("inf"))
    return InputIntervals(
        scalars={
            "now": non_negative,
            "cwnd": Interval(Flow.MIN_CWND, Flow.MAX_CWND),
            "mss": non_negative,
            "acked": non_negative,
            "inflight": non_negative,
            "rtt": non_negative,
            "min_rtt": non_negative,
            "srtt": non_negative,
            "losses": non_negative,
        },
        methods={
            "history": {
                "length": non_negative,
                "delivered_at": non_negative,
                "rtt_at": non_negative,
                "losses_at": non_negative,
                "total_losses": non_negative,
                "min_rtt": non_negative,
            },
        },
        output_clamp=(float(Flow.MIN_CWND), float(Flow.MAX_CWND)),
    )


def default_cc_simulation_config(duration_s: float = 8.0) -> SimulationConfig:
    """The paper's evaluation link: 12 Mbps, 20 ms RTT, drop-tail buffer."""
    return SimulationConfig(
        link=LinkConfig(rate_bps=12_000_000, one_way_delay_us=10_000, queue_bytes=60_000),
        duration_s=duration_s,
    )


@dataclass
class CCObjective:
    """Scalarisation of the throughput/delay trade-off.

    ``score = utilization - delay_penalty * mean_queueing_delay_ms / rtt_ms``
    minus loss, tail-delay and unfairness penalties.

    With the default weights, saturating the link while keeping queues
    shallow scores close to 1.0; a buffer-filling policy loses roughly half
    of that and an under-utilising one proportionally more.  ``p99_penalty``
    and ``fairness_weight`` default to 0, so single-flow scenarios score
    exactly as the seed-era objective did; multi-flow and bursty scenarios
    set them to reward smooth, fair controllers.
    """

    delay_penalty: float = 0.5
    loss_penalty: float = 0.5
    p99_penalty: float = 0.0
    fairness_weight: float = 0.0

    def score(
        self,
        metrics: SimulationMetrics,
        base_rtt_ms: float,
        fairness: float = 1.0,
    ) -> float:
        rtt = max(1e-9, base_rtt_ms)
        value = (
            metrics.utilization
            - self.delay_penalty * metrics.mean_queueing_delay_ms / rtt
            - self.loss_penalty * metrics.loss_rate
        )
        if self.p99_penalty:
            value -= self.p99_penalty * metrics.p99_queueing_delay_ms / rtt
        if self.fairness_weight:
            value -= self.fairness_weight * (1.0 - fairness)
        return value

    @classmethod
    def for_scenario(cls, scenario: NetSimScenario) -> "CCObjective":
        return cls(
            delay_penalty=scenario.delay_penalty,
            loss_penalty=scenario.loss_penalty,
            p99_penalty=scenario.p99_penalty,
            fairness_weight=scenario.fairness_weight,
        )


class CongestionControlEvaluator(Evaluator):
    """Runs one candidate as the controller of every flow in a scenario.

    ``scenario`` selects the topology (default: the registered
    ``cc/single-flow`` paper link); the legacy ``config=`` keyword still
    accepts a raw :class:`~repro.netsim.simulator.SimulationConfig` and wraps
    it into an anonymous single-flow scenario.
    """

    failure_score = -10.0

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        objective: Optional[CCObjective] = None,
        initial_window: int = 10,
        backend: str = DEFAULT_BACKEND,
        scenario: Optional[NetSimScenario] = None,
    ):
        if scenario is not None and config is not None:
            raise ValueError("pass either a scenario or a raw config, not both")
        if scenario is None:
            if config is None:
                scenario = build_scenario("cc/single-flow")
            else:
                scenario = NetSimScenario(
                    name="cc/custom-config",
                    rate_bps=config.link.rate_bps,
                    one_way_delay_us=config.link.one_way_delay_us,
                    queue_bytes=config.link.queue_bytes,
                    loss_rate=config.link.loss_rate,
                    loss_seed=config.link.loss_seed,
                    duration_s=config.duration_s,
                    mss=config.mss,
                    max_events=config.max_events,
                )
        self.scenario = scenario
        self.config = scenario.simulation_config()
        self.objective = objective or CCObjective.for_scenario(scenario)
        self.initial_window = initial_window
        self.backend = backend
        self.evaluations = 0

    def _run_scenario(
        self, program: Program
    ) -> Tuple[SimulationMetrics, List[int], Dict[str, int]]:
        seen: List[str] = []

        def controller() -> DslCongestionController:
            ctl = DslCongestionController(
                program,
                initial_window=self.initial_window,
                strict=True,
                backend=self.backend,
            )
            if not seen:  # count once per scenario run, not per flow
                seen.append(ctl.backend)
            return ctl

        simulator, candidate_ids = self.scenario.build(controller)
        backends = {seen[0]: 1} if seen else {}
        try:
            return simulator.run(), candidate_ids, backends
        except RUNTIME_ERRORS as exc:
            exc.backends = backends  # see EvaluationResult.backends
            raise

    def run_candidate(self, program: Program) -> SimulationMetrics:
        """Simulate ``program`` on the scenario and return raw metrics."""
        return self._run_scenario(program)[0]

    def input_intervals(self):
        return cc_input_intervals()

    def at_fidelity(self, fraction: float) -> "CongestionControlEvaluator":
        """A reduced-budget copy: the same link, ``fraction`` of the run."""
        if fraction == 1.0:
            return self
        return CongestionControlEvaluator(
            objective=self.objective,
            initial_window=self.initial_window,
            backend=self.backend,
            scenario=self.scenario.scaled(fraction),
        )

    def evaluate_program(self, program: Program) -> EvaluationResult:
        metrics, candidate_ids, backends = self._run_scenario(program)
        self.evaluations += 1
        fairness = metrics.jain_fairness(candidate_ids)
        score = self.objective.score(
            metrics, self.scenario.base_rtt_ms, fairness=fairness
        )
        return EvaluationResult(
            score=score,
            valid=True,
            details={
                "utilization": metrics.utilization,
                "mean_queueing_delay_ms": metrics.mean_queueing_delay_ms,
                "p95_queueing_delay_ms": metrics.p95_queueing_delay_ms,
                "p99_queueing_delay_ms": metrics.p99_queueing_delay_ms,
                "loss_rate": metrics.loss_rate,
                "throughput_bps": metrics.aggregate_throughput_bps(),
                "jain_fairness": fairness,
            },
            backends=backends,
        )
