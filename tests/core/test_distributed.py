"""The distributed executor: fan-out parity, crash tolerance, SIGKILL reclaim.

The acceptance bar from the roadmap: a SIGKILL'd worker's tasks must be
reclaimed (lease expiry, not loss) and the run must complete with exactly
the results a serial run produces.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from distributed_helpers import BlockingEvaluator, CrashOnceEvaluator, InterpEvaluator
from repro.core.engine import BatchStats, EngineConfig
from repro.core.events import EventBus, TaskReclaimed, WorkerJoined
from repro.core.executors import EvalUnit, create_executor
from repro.core.queue import SpoolQueue, encode_task
from repro.dsl import parse

SOURCES = [f"def f(x) {{ return {n} }}" for n in (3, 7, 13, 21, 40)]


def units():
    return [EvalUnit(program=parse(source)) for source in SOURCES]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


@pytest.fixture
def recorder():
    class Recorder:
        def __init__(self):
            self.events = []

        def __call__(self, event):
            self.events.append(event)

    return Recorder()


def test_distributed_matches_serial_results(tmp_path, recorder):
    evaluator = InterpEvaluator()
    serial = [evaluator.evaluate(unit.program) for unit in units()]

    config = EngineConfig(executor="distributed", max_workers=2, lease_ttl_s=5.0)
    executor = create_executor("distributed", config, evaluator)
    executor.events = EventBus([recorder])
    try:
        results = executor.run_units(units(), BatchStats())
    finally:
        executor.close()
    assert [r.score for r in results] == [r.score for r in serial]
    assert executor.tasks_dispatched == len(SOURCES)
    # How many of the two workers announce themselves before a five-unit
    # batch is done is up to the scheduler; that every unit was completed
    # exactly once, by a worker whose join was observed, is not.
    joined = {e.worker_id for e in recorder.events if isinstance(e, WorkerJoined)}
    fabric = executor.fabric_stats()
    assert 1 <= fabric["workers_joined"] == len(joined) <= 2
    assert set(fabric["workers"]) == joined
    assert sum(w["completed"] for w in fabric["workers"].values()) == len(SOURCES)


def test_distributed_survives_a_worker_crash_loop_free(tmp_path, recorder):
    """A worker that dies mid-task (no exception, no lease release) is
    reclaimed after the lease TTL and the batch completes correctly."""
    evaluator = CrashOnceEvaluator(tmp_path / "crashed-once", trigger_score=13.0)
    config = EngineConfig(
        executor="distributed", max_workers=2, lease_ttl_s=0.6,
        queue_dir=str(tmp_path / "queue"),
    )
    executor = create_executor("distributed", config, evaluator)
    executor.events = EventBus([recorder])
    try:
        results = executor.run_units(units(), BatchStats())
    finally:
        executor.close()
    assert [r.score for r in results] == [3.0, 7.0, 13.0, 21.0, 40.0]
    assert all(r.valid for r in results)
    reclaims = [e for e in recorder.events if isinstance(e, TaskReclaimed)]
    assert executor.tasks_reclaimed >= 1
    assert len(reclaims) == executor.tasks_reclaimed
    assert (tmp_path / "crashed-once").exists()


def test_worker_count_zero_rescues_inline_without_workers(tmp_path):
    """``worker_count: 0`` means external workers; with none around, the
    coordinator must finish the batch itself rather than hang."""
    evaluator = InterpEvaluator()
    config = EngineConfig(
        executor="distributed", max_workers=2, worker_count=0, lease_ttl_s=0.3,
    )
    executor = create_executor("distributed", config, evaluator)
    try:
        results = executor.run_units(units()[:2], BatchStats())
    finally:
        executor.close()
    assert [r.score for r in results] == [3.0, 7.0]
    assert executor.tasks_rescued == 2


def test_sigkilled_workers_task_is_reclaimed_by_a_survivor(tmp_path):
    """Two externally-launched `repro worker` processes; the one holding the
    task is SIGKILL'd mid-evaluation.  The lease must expire, the task must
    be reclaimed (not lost), and the survivor must produce the result."""
    queue = SpoolQueue(tmp_path / "queue", lease_ttl_s=0.6)
    queue.write_config()
    flag = tmp_path / "block-flag"
    flag.touch()
    markers = tmp_path / "markers"
    evaluator = BlockingEvaluator(flag, markers)
    evaluator_id = queue.publish_evaluator(evaluator)
    reference = InterpEvaluator().evaluate(parse(SOURCES[0]))

    procs = []
    try:
        for index in range(2):
            log = open(tmp_path / f"worker-{index}.log", "wb")
            procs.append(
                (
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro", "worker",
                            str(queue.root), "--worker-id", f"w{index}",
                        ],
                        stdout=log, stderr=log, env=worker_env(),
                    ),
                    log,
                )
            )
        queue.enqueue(
            "t-0", encode_task("t-0", parse(SOURCES[0]), evaluator_id=evaluator_id)
        )

        # Wait until a worker is provably mid-task (its pid marker appears).
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not list(markers.glob("*")):
            time.sleep(0.05)
        marker_pids = {int(p.name) for p in markers.glob("*")}
        assert marker_pids, "no worker started evaluating within 30s"
        lease = json.loads(
            (queue.leases_dir / "t-0.json").read_text(encoding="utf-8")
        )
        holder = lease["worker_id"]

        # SIGKILL the holder: no cleanup, no lease release, heartbeat stops.
        victim = next(p for p, _log in procs if str(p.pid) in (str(pid) for pid in marker_pids))
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
        flag.unlink()  # let the survivor finish instantly once it claims

        # Coordinate the reclaim ourselves (this test *is* the coordinator).
        reclaimed = []
        results = []
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not results:
            reclaimed.extend(queue.reclaim_expired())
            results = queue.collect(["t-0"])
            time.sleep(0.05)
        assert results, "task was lost after SIGKILL"
        assert ("t-0", holder) in reclaimed, (reclaimed, holder)
        from repro.core.queue import decode_result

        final = decode_result(results[0][1])
        assert final.score == reference.score
        assert results[0][1]["worker_id"] != holder  # a survivor finished it
    finally:
        queue.request_stop()
        for proc, log in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
            log.close()
