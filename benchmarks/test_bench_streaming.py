"""Streaming-vs-materialized trace reads on the policy-evaluation hot path.

The materialized baseline walks a pre-built request list's columns; plain
CSV streaming re-decodes the text on every pass (the per-request loop); the
cached-decode path decodes its columnar sidecar once and every later pass
walks the kept lists.  What is gated is that last claim, as counts: a pass
over a cached-decode trace constructs no ``Request`` and re-decodes no
column, and simulates to the materialized trace's result.  Requests/second
per path and the streamed/materialized ratio are printed and recorded, not
gated.
"""

from __future__ import annotations

import time

import pytest

from repro.cache.policies.evolved import program_for
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.simulator import CacheSimulator, cache_size_for
from repro.cache.request import Trace
from repro.traces import streaming
from repro.traces.streaming import open_csv_trace
from repro.workloads import build_trace

from benchmarks.conftest import run_once


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    trace = build_trace("caching/cloudphysics", index=89, num_requests=4000)
    path = tmp_path_factory.mktemp("streaming") / "w89.csv"
    trace.to_csv(path)
    return path, trace


def _simulate(trace_like):
    size = cache_size_for(trace_like)
    cache = PriorityFunctionCache(size, program_for("Heuristic A"), name="Heuristic A")
    return CacheSimulator().run(cache, trace_like)


def _throughput(trace_like, repeats: int = 3):
    """Best-of-N requests/second of the simulate loop over ``trace_like``,
    and the (identical) result of every pass."""
    best = float("inf")
    results = []
    for _ in range(repeats):
        start = time.perf_counter()
        results.append(_simulate(trace_like))
        best = min(best, time.perf_counter() - start)
    assert all(result == results[0] for result in results)
    return results[0].requests / best, results[0]


@pytest.mark.parametrize("mode", ["materialized", "csv-stream", "cached-decode"])
def test_trace_read_throughput(benchmark, trace_csv, mode):
    path, _trace = trace_csv
    if mode == "materialized":
        trace_like = Trace.from_csv(path)
    elif mode == "csv-stream":
        trace_like = open_csv_trace(path)
    else:
        trace_like = open_csv_trace(path, cache_decoded=True)
        trace_like.footprint_bytes()  # warm the stats pass outside the timer

    result = run_once(benchmark, _simulate, trace_like)
    assert result.requests == 4000
    benchmark.extra_info["requests_per_sec"] = round(4000 / benchmark.stats.stats.mean)


def test_streaming_throughput_within_tolerance(trace_csv, monkeypatch):
    """A pass over a cached-decode trace costs nothing per request."""
    path, _trace = trace_csv
    materialized = Trace.from_csv(path)
    streamed = open_csv_trace(path, cache_decoded=True)
    streamed.footprint_bytes()  # the stats pass (it iterates) stays outside the counts

    constructed, decodes = [], []
    request, source_columns = streaming.Request, streaming.DecodedArraySource.columns

    def counting_request(**fields):
        constructed.append(fields)
        return request(**fields)

    def counting_columns(source):
        decodes.append(source)
        return source_columns(source)

    expected = _simulate(materialized)
    assert expected.requests == 4000
    with monkeypatch.context() as patched:
        patched.setattr(streaming, "Request", counting_request)
        patched.setattr(streaming.DecodedArraySource, "columns", counting_columns)
        for _ in range(3):
            assert _simulate(streamed) == expected
            assert len(decodes) == 1  # the first pass's, kept by the trace
            assert constructed == []

    base, _ = _throughput(materialized)
    rate, _ = _throughput(streamed)
    print(f"streaming/materialized throughput ratio: {rate / base:.3f}")
