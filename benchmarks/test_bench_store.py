"""Warm-start benchmark: a sweep over a populated evaluation store.

The persistent evaluation store turns repeated work -- sweep seeds, reruns,
resumes -- into disk reads.  This benchmark runs the same 2-scenario
micro-sweep twice against one store directory and gates the speedup: the
second (warm) sweep re-generates and re-checks every candidate but serves
every evaluation from disk, and must complete at least ``MIN_SPEEDUP``x
faster than the cold sweep while producing byte-identical ``result.json``
files.
"""

from __future__ import annotations

import time

from repro.core.spec import RunSpec, run_sweep

from benchmarks.conftest import run_once

#: Acceptance gate: warm sweep at least this many times faster than cold.
MIN_SPEEDUP = 3.0


def sweep_spec(bench_scale) -> RunSpec:
    requests = bench_scale["num_requests"] or 6000
    return RunSpec(
        domain="caching",
        name="store-bench",
        domain_kwargs={
            "workloads": [
                {"name": "caching/zipf-hot", "num_requests": requests},
                {"name": "caching/scan-storm", "num_requests": requests},
            ],
            "reducer": "mean",
            # Pinned so the cold run -- the denominator -- stays what the
            # recorded baseline was measured against, not the default backend.
            "backend": "compiled",
        },
        search={
            "rounds": bench_scale["search_rounds"],
            "candidates_per_round": bench_scale["search_candidates"],
        },
        seeds=[0, 1],
    )


def test_sweep_warm_start_speedup(benchmark, bench_scale, bench_records, tmp_path):
    spec = sweep_spec(bench_scale)
    store_dir = tmp_path / "evalstore"

    def timed_sweep(root):
        start = time.perf_counter()
        outcome = run_sweep(
            spec, store=tmp_path / root, eval_store=store_dir, max_parallel=1
        )
        return outcome, time.perf_counter() - start

    cold, cold_s = timed_sweep("cold")
    warm, warm_s = run_once(benchmark, timed_sweep, "warm")

    # Byte-identical per-seed results, cold vs warm.
    for cold_run, warm_run in zip(cold.outcomes, warm.outcomes):
        assert (
            (cold_run.artifact_dir / "result.json").read_bytes()
            == (warm_run.artifact_dir / "result.json").read_bytes()
        )

    # The warm sweep really ran from disk: every memory miss was a store hit.
    lookups = sum(o.setup.engine.store_lookups for o in warm.outcomes)
    hits = sum(o.setup.engine.store_hits for o in warm.outcomes)
    assert lookups > 0 and hits == lookups

    speedup = cold_s / warm_s
    disk_hit_rate = hits / lookups
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    benchmark.extra_info["warm_start_speedup"] = round(speedup, 2)
    bench_records["store_warm_start"] = {
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(speedup, 2),
        "disk_hit_rate": round(disk_hit_rate, 3),
    }
    print(
        f"\n[store] cold sweep {cold_s:.2f}s, warm sweep {warm_s:.2f}s "
        f"= {speedup:.1f}x, disk hit rate {disk_hit_rate * 100:.0f}%"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm-start sweep only {speedup:.1f}x faster than cold "
        f"(gate: {MIN_SPEEDUP}x); store at {store_dir}"
    )
