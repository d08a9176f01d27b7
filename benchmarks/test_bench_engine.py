"""Benchmarks of the unified search engine and the compiled DSL fast path.

Two families:

* **Candidate throughput** -- candidates/second through the full search
  pipeline (generate -> check/repair -> evaluate), serial on the
  tree-walking interpreter against parallel workers on the lowered DSL.
* **Simulator throughput** -- requests/second of the priority-queue
  Template cache under the interpreter vs the compiled backend (the
  evaluation hot loop itself).

Throughput numbers are attached to the pytest-benchmark ``extra_info`` so
they appear in the report; the headline figures are recorded in CHANGES.md.
"""

from __future__ import annotations

import time

import pytest

from repro.cache.policies.evolved import program_for
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.simulator import CacheSimulator, cache_size_for
from repro.core.domain import build_search
from repro.core.engine import EngineConfig
from repro.workloads import build_trace

from benchmarks.conftest import run_once


@pytest.fixture(scope="module")
def engine_trace():
    return build_trace("caching/cloudphysics", index=89, num_requests=2500)


SEARCH_VARIANTS = {
    "serial-interpreted": dict(
        backend="interpreter",
        engine_config=EngineConfig(max_workers=1),
    ),
    "parallel-compiled": dict(
        backend="compiled",
        engine_config=EngineConfig(max_workers=4, executor="process"),
    ),
}


@pytest.mark.parametrize("variant", sorted(SEARCH_VARIANTS))
def test_search_candidate_throughput(
    benchmark, engine_trace, bench_scale, bench_records, variant
):
    """Candidates/second of the full search pipeline, §4.2.1 shape."""

    def run():
        setup = build_search(
            "caching",
            trace=engine_trace,
            rounds=bench_scale["search_rounds"],
            candidates_per_round=bench_scale["search_candidates"],
            seed=1,
            **SEARCH_VARIANTS[variant],
        )
        start = time.perf_counter()
        result = setup.search.run()
        elapsed = time.perf_counter() - start
        return result, elapsed

    result, elapsed = run_once(benchmark, run)
    assert result.best is not None
    benchmark.extra_info["candidates_per_sec"] = round(
        result.total_candidates / elapsed, 1
    )
    benchmark.extra_info["eval_cache_hit_rate"] = round(
        result.eval_cache_hit_rate(), 3
    )
    bench_records[f"search_{variant}"] = {
        "candidates_per_sec": round(result.total_candidates / elapsed, 1),
        "eval_cache_hit_rate": round(result.eval_cache_hit_rate(), 3),
    }
    print(
        f"\n[{variant}] {result.total_candidates} candidates in {elapsed:.2f}s "
        f"= {result.total_candidates / elapsed:.1f} cand/s, "
        f"eval-cache hit rate {result.eval_cache_hit_rate() * 100:.0f}%"
    )


@pytest.mark.parametrize("backend", ["interpreter", "compiled"])
def test_simulator_request_throughput(benchmark, engine_trace, bench_records, backend):
    """Requests/second of the Template cache under each DSL backend."""
    size = cache_size_for(engine_trace)
    program = program_for("Heuristic A")

    def run():
        cache = PriorityFunctionCache(size, program, name="bench", backend=backend)
        return CacheSimulator().run(cache, engine_trace)

    result = benchmark(run)
    assert result.requests == len(engine_trace)
    ops = benchmark.stats.stats.mean
    benchmark.extra_info["requests_per_sec"] = round(len(engine_trace) / ops)
    bench_records[f"simulate_{backend}"] = {
        "requests_per_sec": round(len(engine_trace) / ops)
    }


def test_parallel_compiled_search_matches_serial_interpreted(engine_trace):
    """The fast path must not change search results (fixed seed)."""
    results = {}
    for variant, kwargs in SEARCH_VARIANTS.items():
        results[variant] = build_search(
            "caching",
            trace=engine_trace,
            rounds=2,
            candidates_per_round=6,
            seed=4,
            **kwargs,
        ).search.run()
    serial, fast = results["serial-interpreted"], results["parallel-compiled"]
    assert serial.best_source() == fast.best_source()
    assert [c.score for c in serial.candidates] == [c.score for c in fast.candidates]
