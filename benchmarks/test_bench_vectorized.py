"""Benchmarks of the fused columnar simulation loop.

``vectorized`` and ``compiled`` are two spellings of one lowered run, so
what is asserted does not depend on the box:

* the three backend names return equal ``SimulationResult``s -- before any
  timing, because a fast wrong simulator is worse than a slow right one;
* ``fused_cache_run`` takes the run under both lowered spellings and
  declines under ``interpreter``;
* a run enters the same number of Python frames (``sys.setprofile``) under
  either spelling.

Requests/second per name and the ratio to the interpreter are printed and
recorded as ``extra_info``, never gated here.  The batched ``simulate_many``
path (columns decoded once, every candidate scored off the shared lists)
reports candidates/second for the nightly regression sweep.
"""

from __future__ import annotations

import time

import pytest

from repro.cache import columnar
from repro.cache.policies.evolved import EVOLVED_HEURISTICS, program_for
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.simulator import CacheSimulator, cache_size_for, simulate_many
from repro.workloads import build_trace

from tests.cache.test_fused_counts import frames_entered


@pytest.fixture(scope="module")
def bench_trace():
    return build_trace("caching/cloudphysics", index=89, num_requests=2500)


def _best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_simulator_speedup(benchmark, bench_trace, bench_records, monkeypatch):
    size = cache_size_for(bench_trace)
    program = program_for("Heuristic A")
    bench_trace.columns()  # decode once; every backend walks the same trace

    def run(backend):
        cache = PriorityFunctionCache(size, program, name="bench", backend=backend)
        return CacheSimulator().run(cache, bench_trace)

    fused_cache_run = columnar.fused_cache_run
    fused = []  # what the fused loop answered, run by run

    def recording(*args):
        fused.append(fused_cache_run(*args))
        return fused[-1]

    with monkeypatch.context() as patched:
        patched.setattr(columnar, "fused_cache_run", recording)
        results = {b: run(b) for b in ("interpreter", "compiled", "vectorized")}
    assert results["vectorized"] == results["compiled"] == results["interpreter"]
    assert fused == [None, results["compiled"], results["vectorized"]]

    frames = {b: frames_entered(lambda: run(b))[0] for b in ("compiled", "vectorized")}
    assert frames["compiled"] == frames["vectorized"] > len(bench_trace)

    t_interpreter = _best_time(lambda: run("interpreter"))
    t_compiled = _best_time(lambda: run("compiled"), repeats=5)
    benchmark(lambda: run("vectorized"))
    t_vectorized = benchmark.stats.stats.min

    n = len(bench_trace)
    vs_interpreter = t_interpreter / t_vectorized
    record = {
        "requests_per_sec": round(n / t_vectorized),
        "vs_interpreter_speedup": round(vs_interpreter, 2),
    }
    benchmark.extra_info.update(record, compiled_requests_per_sec=round(n / t_compiled))
    bench_records["simulate_vectorized"] = record
    print(
        f"\n[vectorized] {record['requests_per_sec']} req/s, spelled compiled "
        f"{n / t_compiled:.0f} req/s = {vs_interpreter:.1f}x interpreter "
        f"({n / t_interpreter:.0f} req/s)"
    )


def test_batched_candidate_scoring(benchmark, bench_trace, bench_records):
    """Candidates/second through ``simulate_many``'s amortized columnar path."""
    size = cache_size_for(bench_trace)

    def factories(backend):
        return {
            name: (
                lambda capacity, program=program_for(name): PriorityFunctionCache(
                    capacity, program, backend=backend
                )
            )
            for name in sorted(EVOLVED_HEURISTICS)
        }

    vectorized = benchmark(
        lambda: simulate_many(factories("vectorized"), bench_trace, cache_size=size)
    )
    elapsed = benchmark.stats.stats.min
    # Batching must not change any candidate's result: the oracle's, one by one.
    assert vectorized == simulate_many(factories("interpreter"), bench_trace, cache_size=size)

    candidates_per_sec = round(len(vectorized) / elapsed, 1)
    benchmark.extra_info["candidates_per_sec"] = candidates_per_sec
    bench_records["simulate_many_vectorized"] = {
        "candidates_per_sec": candidates_per_sec
    }
    print(f"\n[simulate_many/vectorized] {candidates_per_sec} candidates/s")
