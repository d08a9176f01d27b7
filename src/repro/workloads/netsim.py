"""Netsim workloads: declarative bottleneck-link scenarios for the cc domain.

The seed-era congestion-control evaluator hard-coded one topology (a single
bulk flow on a 12 Mbps / 20 ms drop-tail link).  A
:class:`NetSimScenario` makes the topology data: link rate / RTT / buffer,
random (non-congestive) loss, the number of candidate flows (with staggered
starts), bursty cross traffic, and the objective weights -- including the
fairness and p99-queueing-delay terms that only matter once more than one
flow or a deep queue is in play.

Scenarios are named :class:`~repro.workloads.spec.WorkloadSpec` entries
(kind ``"netsim"``) of :data:`WORKLOADS`, so a :class:`~repro.core.spec.RunSpec` can
declare a matrix like ``["cc/single-flow", "cc/multi-flow",
"cc/lossy-link"]`` and the search scores every candidate controller across
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from repro.netsim.flow import CCSignals
from repro.netsim.link import LinkConfig
from repro.netsim.packet import DEFAULT_MSS
from repro.netsim.simulator import NetworkSimulator, SimulationConfig
from repro.workloads.spec import WorkloadSpec


class BurstWindowController:
    """Unresponsive on/off cross traffic: window alternates high/low.

    The window is a pure function of simulation time (``high`` for the first
    ``duty`` fraction of every ``period_us``, ``low`` for the rest), so the
    burst pattern is deterministic and ignores congestion signals entirely --
    exactly the background traffic a robust controller must coexist with.
    ``duty=1.0`` degenerates to steady fixed-window cross traffic.  Its
    arguments are checked where a spec supplies them, by :class:`CrossTrafficSpec`.
    """

    def __init__(self, high: int = 40, low: int = 2, period_us: int = 1_000_000, duty: float = 0.5):
        self.high = high
        self.low = low
        self.period_us = period_us
        self.duty = duty

    def _window(self, now_us: int) -> int:
        phase = now_us % self.period_us
        return self.high if phase < self.duty * self.period_us else self.low

    def initial_cwnd(self) -> int:
        return self._window(0)

    def on_ack(self, signals: CCSignals) -> int:
        return self._window(signals.now_us)

    def on_loss(self, signals: CCSignals) -> int:
        return self._window(signals.now_us)


@dataclass(frozen=True)
class CrossTrafficSpec:
    """One cross-traffic flow (see :class:`BurstWindowController`), checked when built."""

    window_high: int = 40
    window_low: int = 2
    period_s: float = 1.0
    duty: float = 0.5
    start_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("window_high", "window_low"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"cross_traffic {name} must be at least 1 packet")
        if not int(self.period_s * 1_000_000) >= 1:
            raise ValueError(f"cross_traffic period_s must be at least 1 us, got {self.period_s!r}")
        if not 0 < self.duty <= 1:
            raise ValueError(f"cross_traffic duty must be in (0, 1], got {self.duty!r}")
        if not self.start_s >= 0:
            raise ValueError(f"cross_traffic start_s must be >= 0, got {self.start_s!r}")

    def controller(self) -> BurstWindowController:
        return BurstWindowController(
            high=self.window_high,
            low=self.window_low,
            period_us=int(self.period_s * 1_000_000),
            duty=self.duty,
        )


@dataclass(frozen=True)
class NetSimScenario:
    """One declarative evaluation topology for the cc domain, checked when built.

    The link fields are checked by :class:`~repro.netsim.link.LinkConfig`,
    ``mss`` and ``max_events`` by :class:`~repro.netsim.simulator.SimulationConfig`.
    """

    name: str = "cc/single-flow"
    rate_bps: int = 12_000_000
    one_way_delay_us: int = 10_000
    queue_bytes: int = 60_000
    loss_rate: float = 0.0
    loss_seed: int = 0
    duration_s: float = 8.0
    mss: int = DEFAULT_MSS
    flow_count: int = 1
    flow_stagger_s: float = 0.0
    cross_traffic: Tuple[CrossTrafficSpec, ...] = ()
    # Objective weights (see repro.cc.evaluator.CCObjective).
    delay_penalty: float = 0.5
    loss_penalty: float = 0.5
    p99_penalty: float = 0.0
    fairness_weight: float = 0.0
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        if self.flow_count < 1:
            raise ValueError("a scenario needs at least one candidate flow")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.flow_stagger_s >= 0:
            raise ValueError(f"flow_stagger_s must be >= 0, got {self.flow_stagger_s!r}")
        config = self.simulation_config()  # its LinkConfig and itself check the remaining fields
        if config.link.serialization_us(self.mss) == 0:
            raise ValueError(
                f"rate_bps={self.rate_bps!r} with mss={self.mss!r} serialises a packet in 0 us "
                "once rounded to whole microseconds: an infinitely fast link"
            )

    def link_config(self) -> LinkConfig:
        return LinkConfig(
            rate_bps=self.rate_bps,
            one_way_delay_us=self.one_way_delay_us,
            queue_bytes=self.queue_bytes,
            loss_rate=self.loss_rate,
            loss_seed=self.loss_seed,
        )

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(
            link=self.link_config(),
            duration_s=self.duration_s,
            mss=self.mss,
            max_events=self.max_events,
        )

    @property
    def base_rtt_ms(self) -> float:
        return 2 * self.one_way_delay_us / 1000.0

    def scaled(self, fraction: float) -> "NetSimScenario":
        """A reduced-budget copy: the same topology, ``fraction`` of the run.

        Shortening ``duration_s`` (and the event budget with it) is how the
        fidelity ladder (:mod:`repro.core.fidelity`) screens controllers
        cheaply: a rung simulation is a time-prefix of the full one.
        Cross-traffic and flow staggering keep their absolute timings, so
        short rungs still see the same early dynamics the full run does.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
        if fraction == 1.0:
            return self
        return replace(
            self,
            duration_s=self.duration_s * fraction,
            max_events=max(1, int(self.max_events * fraction)),
        )

    def build(
        self, controller_factory: Callable[[], object]
    ) -> Tuple[NetworkSimulator, List[int]]:
        """Wire the scenario; returns the simulator and the candidate flow ids.

        ``controller_factory`` is invoked once per candidate flow (each flow
        needs its own controller state); cross-traffic flows get their own
        burst controllers and are excluded from the returned id list.
        """
        simulator = NetworkSimulator(self.simulation_config())
        candidate_ids: List[int] = []
        for index in range(self.flow_count):
            flow = simulator.add_flow(
                controller_factory(), start_at_s=index * self.flow_stagger_s
            )
            candidate_ids.append(flow.flow_id)
        for cross in self.cross_traffic:
            simulator.add_flow(cross.controller(), start_at_s=cross.start_s)
        return simulator, candidate_ids


# -- builders -----------------------------------------------------------------------

_SCENARIO_FIELDS = {f.name for f in NetSimScenario.__dataclass_fields__.values()}


def _build_netsim(spec: WorkloadSpec) -> NetSimScenario:
    params = spec.param_dict
    cross = tuple(
        CrossTrafficSpec(**item) if not isinstance(item, CrossTrafficSpec) else item
        for item in params.pop("cross_traffic", ())
    )
    unknown = set(params) - _SCENARIO_FIELDS
    if unknown:
        raise ValueError(
            f"unknown netsim scenario parameter(s) {sorted(unknown)} "
            f"in workload {spec.name!r}"
        )
    return NetSimScenario(name=spec.display_name, cross_traffic=cross, **params)


def build_scenario(ref, **overrides) -> NetSimScenario:
    """Build a cc workload's scenario (type-checked convenience wrapper)."""
    from repro.workloads.spec import build_workload, resolve_workload_ref

    spec = resolve_workload_ref(ref)
    if overrides:
        spec = spec.with_overrides(**overrides)
    if spec.domain != "cc":
        raise ValueError(
            f"workload {spec.name!r} belongs to domain {spec.domain!r}, not 'cc'"
        )
    return build_workload(spec)


#: ``(domain, kind)`` -> the function that builds a spec of that kind.
BUILDERS = {
    ("cc", "netsim"): _build_netsim,
}


# -- the built-in workloads ---------------------------------------------------------

#: The built-in cc workloads, by name.
WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec.create(
            name="cc/single-flow",
            domain="cc",
            kind="netsim",
            params={
                "rate_bps": 12_000_000,
                "one_way_delay_us": 10_000,
                "queue_bytes": 60_000,
                "duration_s": 8.0,
            },
            description="The paper's §5 link: one bulk flow, 12 Mbps, 20 ms RTT, drop-tail.",
        ),
        WorkloadSpec.create(
            name="cc/multi-flow",
            domain="cc",
            kind="netsim",
            params={
                "rate_bps": 12_000_000,
                "one_way_delay_us": 10_000,
                "queue_bytes": 60_000,
                "duration_s": 8.0,
                "flow_count": 3,
                "flow_stagger_s": 0.5,
                "fairness_weight": 0.5,
                "p99_penalty": 0.1,
            },
            description="Three staggered candidate flows sharing the link; Jain fairness scored.",
        ),
        WorkloadSpec.create(
            name="cc/bursty-cross",
            domain="cc",
            kind="netsim",
            params={
                "rate_bps": 12_000_000,
                "one_way_delay_us": 10_000,
                "queue_bytes": 60_000,
                "duration_s": 8.0,
                "cross_traffic": [
                    {"window_high": 40, "window_low": 2, "period_s": 1.0, "duty": 0.4}
                ],
                "p99_penalty": 0.2,
            },
            description="One candidate flow against on/off burst cross traffic; p99 delay scored.",
        ),
        WorkloadSpec.create(
            name="cc/lossy-link",
            domain="cc",
            kind="netsim",
            params={
                "rate_bps": 12_000_000,
                "one_way_delay_us": 10_000,
                "queue_bytes": 60_000,
                "duration_s": 8.0,
                "loss_rate": 0.01,
                "loss_seed": 7,
                "loss_penalty": 0.25,
            },
            description="1% random non-congestive loss: loss-backoff-only controllers starve.",
        ),
        WorkloadSpec.create(
            name="cc/satellite",
            domain="cc",
            kind="netsim",
            params={
                "rate_bps": 8_000_000,
                "one_way_delay_us": 150_000,
                "queue_bytes": 500_000,
                "duration_s": 12.0,
                "p99_penalty": 0.1,
            },
            description="Long-RTT (300 ms) deep-buffer path: bufferbloat-prone.",
        ),
    )
}
