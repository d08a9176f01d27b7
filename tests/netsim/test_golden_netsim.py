"""Absolute pin of the netsim: finished runs must equal ``golden_netsim.json``.

The differential tests compare the fused loop with the per-packet oracle,
which re-implements the same rules, so a rule both got wrong the same way
would pass them.  The golden file was recorded on the earlier per-packet
netsim (one event per dropped packet), before either existed, and covers
every built-in topology; a run of the one loop must reproduce it exactly --
equality, not approx: the simulator is integer-timed and deterministic.

Regenerate (only when a behaviour change is intended and reviewed):
``PYTHONPATH=src python -m tests.netsim.test_golden_netsim``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.cc.policies import FixedWindowController, RenoController
from repro.netsim.flow import Flow
from repro.netsim.simulator import NetworkSimulator, SimulationConfig
from repro.workloads.netsim import build_scenario
from tests.netsim.oracle import observe

GOLDEN_PATH = Path(__file__).with_name("golden_netsim.json")
SCENARIOS = ("single-flow", "multi-flow", "bursty-cross", "lossy-link", "satellite")


class DoublingController:
    """Doubles the window on every ACK and halves it on a reacted loss."""

    def initial_cwnd(self) -> int:
        return 4

    def on_ack(self, signals) -> int:
        return signals.cwnd_pkts * 2

    def on_loss(self, signals) -> int:
        return signals.cwnd_pkts // 2


def pinned() -> FixedWindowController:
    """A window pinned at the clamp: every RTT is one drop storm."""
    return FixedWindowController(Flow.MAX_CWND)


def _default_link(controller: Callable[[], Any], duration_s: float, **config):
    def build() -> NetworkSimulator:
        simulator = NetworkSimulator(SimulationConfig(duration_s=duration_s, **config))
        simulator.add_flow(controller())
        return simulator

    return build


def _scenario(name: str, controller: Callable[[], Any], duration_s: float, **fields):
    scenario = replace(build_scenario(f"cc/{name}", duration_s=duration_s), **fields)
    return lambda: scenario.build(controller)[0]


CASES: Dict[str, Callable[[], NetworkSimulator]] = {
    "default/pinned-max": _default_link(pinned, 2.0),
    "default/doubling": _default_link(DoublingController, 3.0),
    "default/reno": _default_link(RenoController, 3.0),
    "default/fixed-3": _default_link(lambda: FixedWindowController(3), 2.0),
    "default/fixed-10": _default_link(lambda: FixedWindowController(10), 2.0),
    "default/fixed-64": _default_link(lambda: FixedWindowController(64), 2.0),
    **{
        f"{name}/{label}": _scenario(name, controller, duration_s=duration_s)
        for name in SCENARIOS
        for label, controller, duration_s in (
            ("reno", RenoController, 3.0),
            ("doubling", DoublingController, 2.0),
        )
    },
    "lossy-link/pinned-max": _scenario("lossy-link", pinned, duration_s=2.0),
    "multi-flow/pinned-max": _scenario("multi-flow", pinned, duration_s=2.0),
    # The valve stops these in the middle of a storm.
    "default/pinned-max/cut": _default_link(pinned, 2.0, max_events=50_001),
    "multi-flow/doubling/cut": _scenario(
        "multi-flow", DoublingController, duration_s=2.0, max_events=20_003
    ),
}


def run_case(name: str) -> Tuple[NetworkSimulator, Dict[str, Any]]:
    simulator = CASES[name]()
    return simulator, observe(simulator, simulator.run())


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_the_golden_file(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    simulator, observed = run_case(name)
    # Through JSON and back, so tuples and lists compare alike.
    assert json.loads(json.dumps(observed)) == golden
    # The run's own account of the valve agrees with the queue's.
    assert observed["metrics"]["events"] == simulator.processed
    assert observed["metrics"]["truncated"] == name.endswith("/cut")
    for flow in observed["flows"]:
        assert flow["packets_sent"] == (
            flow["packets_acked"] + flow["packets_lost"] + flow["inflight"]
        )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: run_case(name)[1] for name in sorted(CASES)}, indent=1, sort_keys=True)
        + "\n"
    )
