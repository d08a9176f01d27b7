"""Count-based gates on the netsim loop: frames entered, no wall-clock.

``sys.setprofile`` counts the Python frames a run enters, by code object.
Every run, whatever its topology, enters :func:`repro.netsim.fused.run_until`
once, calls each controller once per ACK or reacted loss, and enters no
other netsim function per event: besides the loop, only the ``Packet``,
``CCSignals`` and ``HistoryInterval`` constructors (and, when the next event
belongs to another flow, the write-back of the last one's state).
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter

import pytest

import repro.netsim
from repro.cc.dsl_controller import DslCongestionController
from repro.cc.policies import RenoController
from repro.dsl import parse
from repro.netsim import fused
from repro.workloads.netsim import BurstWindowController, build_scenario
from tests.cc.test_cc_columnar import PROGRAMS

NETSIM_DIR = os.path.dirname(repro.netsim.__file__)


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


def _check_frames(simulator):
    """Run ``simulator`` and apply the gates; returns (frames entered, metrics)."""
    entered, metrics = frames_by_code(simulator.run)
    assert entered[fused.run_until.__code__] == 1
    # Per event, the netsim enters constructors only (and ``_park`` when the
    # event belongs to another flow than the last); the rest is per run.
    per_run = [
        code.co_name
        for code, n in entered.items()
        for _ in range(n)
        if code.co_filename.startswith(NETSIM_DIR) and code.co_name not in ("__init__", "_park")
    ]
    assert len(per_run) <= 20, Counter(per_run)
    if len(simulator.flows) == 1:
        assert entered[fused._park.__code__] == 1  # the write-back at the end
    acked = sum(flow.stats.packets_acked for flow in simulator.flows)
    updates = sum(len(flow.stats.cwnd_trace) for flow in simulator.flows)  # one per call
    controllers = {type(flow.controller) for flow in simulator.flows}
    assert sum(entered[kind.on_ack.__code__] for kind in controllers) == acked
    assert sum(entered[kind.on_loss.__code__] for kind in controllers) == updates - acked
    return entered, metrics


@pytest.mark.parametrize(
    "controller",
    [RenoController, lambda: DslCongestionController(parse(PROGRAMS["aimd"]))],
    ids=["reno", "dsl-aimd"],
)
def test_a_single_flow_run_enters_one_fused_frame_and_no_classic_one(controller):
    controller = controller()
    simulator, _ids = build_scenario("cc/single-flow", duration_s=1.0).build(lambda: controller)
    _entered, metrics = _check_frames(simulator)
    (flow,) = simulator.flows
    assert flow.stats.packets_acked > 500 and metrics.events > 2000
    assert flow.stats.packets_lost > 0  # loss runs and reactions went through the loop


@pytest.mark.parametrize(
    "scenario", ["single-flow", "multi-flow", "bursty-cross", "lossy-link", "satellite"]
)
def test_every_scenario_enters_one_fused_frame(scenario):
    simulator, _ids = build_scenario(f"cc/{scenario}", duration_s=1.0).build(RenoController)
    entered, metrics = _check_frames(simulator)
    assert metrics.events > 200
    if scenario == "bursty-cross":
        assert entered[BurstWindowController.on_ack.__code__] > 0
