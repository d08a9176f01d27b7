"""Warm-start benchmark: a sweep over a populated evaluation store.

The persistent evaluation store turns repeated work -- sweep seeds, reruns,
resumes -- into disk reads.  This benchmark runs the same 2-scenario
micro-sweep twice against one store directory and gates what the store is
for, by counts: the second (warm) sweep re-generates and re-checks every
candidate but makes no evaluator call at all -- every memory miss is a disk
hit -- while producing byte-identical ``result.json`` files.  The cold/warm
wall-clock ratio is printed and recorded, not gated: it divides by the cost
of an evaluation on this box.
"""

from __future__ import annotations

import time

from repro.core.spec import RunSpec, run_sweep

from benchmarks.conftest import run_once


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
        },
        search={
            "rounds": bench_scale["search_rounds"],
            "candidates_per_round": bench_scale["search_candidates"],
        },
        seeds=[0, 1],
        engine={"max_workers": 1},  # evaluator_calls counts in-process calls
    )


def test_sweep_warm_start_speedup(benchmark, bench_scale, bench_records, tmp_path, evaluator_calls):
    spec = sweep_spec(bench_scale)
    store_dir = tmp_path / "evalstore"

    def timed_sweep(root):
        start = time.perf_counter()
        outcome = run_sweep(
            spec, store=tmp_path / root, eval_store=store_dir, max_parallel=1
        )
        return outcome, time.perf_counter() - start

    cold, cold_s = timed_sweep("cold")
    cold_calls = len(evaluator_calls)
    warm, warm_s = run_once(benchmark, timed_sweep, "warm")
    assert 0 < cold_calls == len(evaluator_calls), "the warm sweep evaluated something"

    # Byte-identical per-seed results, cold vs warm.
    for cold_run, warm_run in zip(cold.outcomes, warm.outcomes):
        assert (
            (cold_run.artifact_dir / "result.json").read_bytes()
            == (warm_run.artifact_dir / "result.json").read_bytes()
        )

    # The warm sweep really ran from disk: every memory miss was a store hit.
    lookups = sum(o.setup.engine.totals.store_lookups for o in warm.outcomes)
    hits = sum(o.setup.engine.totals.store_hits for o in warm.outcomes)
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
