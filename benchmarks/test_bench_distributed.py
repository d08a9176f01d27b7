"""Distributed-fanout benchmark: spool-queue workers vs a process pool.

Why the distributed executor exists: worker processes are *independent
failure domains*.  A hard worker crash (SIGKILL, OOM) breaks a
``ProcessPoolExecutor`` outright -- every queued future fails over to the
coordinator's serial inline rescue, so one bad candidate collapses the
batch to 1x.  The spool queue loses one worker, reclaims one lease after
the TTL, respawns, and keeps the fan-out.

This benchmark runs the same evaluation-bound batch (fixed GIL-releasing
sleep per unit, one crashing unit) through both backends with 4 workers and
asserts what the feature is, in counts: both return identical scores, the
spool queue finishes every unit on a worker (none rescued inline), and the
broken pool finished its remainder in the coordinator.  The throughput ratio
is printed and recorded, not gated (wall-clock ratios are judged by
``benchmarks/e2e/``, on repeated runs).
"""

from __future__ import annotations

import os
import time

from repro.core.engine import BatchStats, EngineConfig
from repro.core.executors import EvalUnit, create_executor
from repro.dsl import parse

from benchmarks.conftest import run_once
from benchmarks.dist_bench_helpers import SleepyCrashOnceEvaluator

WORKERS = 4
NUM_UNITS = 40
SLEEP_S = 0.25
#: The crashing unit's score (unit 0, so the pool breaks while the batch is
#: still almost entirely queued -- the worst case the spool queue absorbs).
TRIGGER = 1000.0
LEASE_TTL_S = 0.5

SOURCES = [f"def f(x) {{ return {TRIGGER if n == 0 else float(n)} }}" for n in range(NUM_UNITS)]
EXPECTED = [TRIGGER if n == 0 else float(n) for n in range(NUM_UNITS)]


def units():
    return [EvalUnit(program=parse(source)) for source in SOURCES]


def timed_batch(executor):
    try:
        start = time.perf_counter()
        results = executor.run_units(units(), BatchStats())
        return results, time.perf_counter() - start
    finally:
        executor.close()


def test_distributed_fanout_survives_crashes(benchmark, bench_records, tmp_path):
    process_eval = SleepyCrashOnceEvaluator(SLEEP_S, tmp_path / "crash-pool", TRIGGER)
    config = EngineConfig(executor="process", max_workers=WORKERS)
    pool_results, pool_s = timed_batch(create_executor("process", config, process_eval))

    dist_eval = SleepyCrashOnceEvaluator(SLEEP_S, tmp_path / "crash-dist", TRIGGER)
    config = EngineConfig(
        executor="distributed", max_workers=WORKERS, lease_ttl_s=LEASE_TTL_S
    )
    dist_executor = create_executor("distributed", config, dist_eval)
    dist_results, dist_s = run_once(benchmark, timed_batch, dist_executor)

    # Both backends survived the crash with the right answers.
    assert [r.score for r in pool_results] == EXPECTED
    assert [r.score for r in dist_results] == EXPECTED
    assert (tmp_path / "crash-pool").exists() and (tmp_path / "crash-dist").exists()
    # ... but the spool queue reclaimed a lease instead of breaking the pool:
    # every unit was completed by a worker, none inline in the coordinator,
    coordinator = float(os.getpid())
    assert dist_executor.tasks_reclaimed >= 1
    assert dist_executor.tasks_rescued == 0
    workers = dist_executor.fabric_stats()["workers"]
    assert sum(worker["completed"] for worker in workers.values()) == NUM_UNITS
    assert coordinator not in {r.details["pid"] for r in dist_results}
    # while the broken pool fell back to the coordinator for its remainder.
    assert coordinator in {r.details["pid"] for r in pool_results}

    pool_cps = NUM_UNITS / pool_s
    dist_cps = NUM_UNITS / dist_s
    speedup = dist_cps / pool_cps
    benchmark.extra_info["process_candidates_per_sec"] = round(pool_cps, 1)
    benchmark.extra_info["distributed_candidates_per_sec"] = round(dist_cps, 1)
    benchmark.extra_info["distributed_speedup"] = round(speedup, 2)
    bench_records["distributed_fanout"] = {
        "process_candidates_per_sec": round(pool_cps, 1),
        "distributed_candidates_per_sec": round(dist_cps, 1),
        "speedup": round(speedup, 2),
        "tasks_reclaimed": dist_executor.tasks_reclaimed,
        "workers": WORKERS,
    }
    print(
        f"\n[distributed] process pool {pool_cps:.1f} cand/s (crash broke it), "
        f"spool queue {dist_cps:.1f} cand/s = {speedup:.2f}x "
        f"({dist_executor.tasks_reclaimed} lease(s) reclaimed)"
    )
