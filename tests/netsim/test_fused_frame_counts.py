"""Count-based gates on which netsim loop ran: frames entered, no wall-clock.

``sys.setprofile`` counts the Python frames a run enters, by code object.  A
fresh ``cc/single-flow`` run takes the fused loop and enters none of the
classic loop's per-event methods; every other shape keeps the classic loop.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import pytest

from repro.cc.dsl_controller import DslCongestionController
from repro.cc.policies import RenoController
from repro.dsl import parse
from repro.netsim import fused
from repro.netsim.events import EventQueue
from repro.netsim.flow import Flow
from repro.netsim.link import DropTailLink
from repro.netsim.simulator import NetworkSimulator
from repro.workloads.netsim import build_scenario
from tests.cc.test_cc_columnar import PROGRAMS
from tests.netsim.oracle import ReferenceSimulator

#: The classic loop's per-event methods, and the two of them a per-packet
#: :class:`~tests.netsim.oracle.ReferenceFlow` replaces.
CLASSIC = {
    method.__code__
    for method in (
        EventQueue.step,
        Flow._on_ack,
        Flow._pump,
        DropTailLink.send_burst,
        DropTailLink._finish_transmission,
        DropTailLink._deliver,
    )
}
BURST = {Flow._pump.__code__, DropTailLink.send_burst.__code__}


def frames_by_code(fn):
    """(Counter of the Python frames entered while ``fn()`` ran, by code object,
    what it returned)."""
    entered = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            entered[frame.f_code] += 1

    collecting, profiling = gc.isenabled(), sys.getprofile()
    gc.disable()
    sys.setprofile(profiler)
    try:
        outcome = fn()
    finally:
        sys.setprofile(profiling)
        if collecting:
            gc.enable()
    return entered, outcome


def _single_flow(controller, simulator_class=NetworkSimulator):
    config = build_scenario("cc/single-flow", duration_s=1.0).simulation_config()
    simulator = simulator_class(config)
    simulator.add_flow(controller)
    return simulator


@pytest.mark.parametrize(
    "controller",
    [RenoController, lambda: DslCongestionController(parse(PROGRAMS["aimd"]))],
    ids=["reno", "dsl-aimd"],
)
def test_a_single_flow_run_enters_one_fused_frame_and_no_classic_one(controller):
    controller = controller()
    simulator, _ids = build_scenario("cc/single-flow", duration_s=1.0).build(lambda: controller)
    entered, metrics = frames_by_code(simulator.run)
    (flow,) = simulator.flows
    assert flow.stats.packets_acked > 500 and metrics.events > 2000
    assert entered[fused.run_until.__code__] == 1
    assert sum(entered[code] for code in CLASSIC) == 0
    assert entered[type(controller).on_ack.__code__] == flow.stats.packets_acked
    updates = len(flow.stats.cwnd_trace)  # one per controller call
    assert entered[type(controller).on_loss.__code__] == updates - flow.stats.packets_acked


def _scenario(name):
    return lambda: build_scenario(name, duration_s=0.5).build(RenoController)[0]


def _already_fired():
    simulator = _single_flow(RenoController())
    simulator.events.step()
    return simulator


@pytest.mark.parametrize(
    "build,expected",
    [
        (_scenario("cc/multi-flow"), CLASSIC),
        (_scenario("cc/lossy-link"), CLASSIC),
        (_scenario("cc/bursty-cross"), CLASSIC),
        (lambda: _single_flow(RenoController(), ReferenceSimulator), CLASSIC - BURST),
        (_already_fired, CLASSIC),
    ],
    ids=["multi-flow", "lossy-link", "bursty-cross", "reference-flow", "already-fired"],
)
def test_every_other_run_keeps_the_classic_loop(build, expected):
    simulator = build()
    entered, _metrics = frames_by_code(simulator.run)
    assert entered[fused.run_until.__code__] == 0
    assert sorted(code.co_name for code in expected if not entered[code]) == []
