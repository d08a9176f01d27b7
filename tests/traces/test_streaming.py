"""Streaming trace pipeline: equivalence, memory bounds, cached decode."""

import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies.evolved import program_for
from repro.cache.policies.lru import LRUCache
from repro.cache.policies.s3fifo import S3FIFOCache
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cache.request import Request, Trace
from repro.cache.simulator import CacheSimulator, cache_size_for, simulate
from repro.traces import streaming as streaming_module
from repro.traces.cloudphysics import cloudphysics_config
from repro.traces.msr import msr_config
from repro.traces.streaming import (
    CsvRequestSource,
    DecodedArraySource,
    StreamingTrace,
    ensure_decoded_cache,
    open_csv_trace,
)
from repro.traces.synthetic import SyntheticWorkloadConfig, generate_trace


def _request_tuples(trace):
    return [(r.timestamp, r.key, r.size) for r in trace]


def _bundled_traces():
    """A cross-section of the bundled corpora plus a synthetic mix."""
    return [
        generate_trace(cloudphysics_config(1, num_requests=1200, num_objects=300)),
        generate_trace(cloudphysics_config(89, num_requests=1200, num_objects=300)),
        generate_trace(msr_config(1, num_requests=1200, num_objects=300)),
        generate_trace(msr_config(11, num_requests=1200, num_objects=300)),
        generate_trace(
            SyntheticWorkloadConfig(name="mix", num_requests=1000, num_objects=250, seed=3)
        ),
    ]


# -- equivalence --------------------------------------------------------------------


@pytest.mark.parametrize("cache_decoded", [False, True])
def test_streaming_equals_materialized_on_bundled_traces(tmp_path, cache_decoded):
    """Byte-identical request sequences and identical simulator stats."""
    for index, trace in enumerate(_bundled_traces()):
        path = tmp_path / f"trace-{index}.csv"
        trace.to_csv(path)
        streaming = open_csv_trace(path, cache_decoded=cache_decoded)
        assert _request_tuples(streaming) == _request_tuples(trace)
        assert len(streaming) == len(trace)
        assert streaming.unique_objects() == trace.unique_objects()
        assert streaming.footprint_bytes() == trace.footprint_bytes()
        assert streaming.duration() == trace.duration()

        for policy in (LRUCache, S3FIFOCache):
            materialized = simulate(policy, trace, cache_fraction=0.1)
            streamed = simulate(policy, streaming, cache_fraction=0.1)
            assert (materialized.hits, materialized.misses, materialized.evictions) == (
                streamed.hits,
                streamed.misses,
                streamed.evictions,
            )


@settings(max_examples=25, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=1 << 20),
        ),
        min_size=0,
        max_size=120,
    ),
    chunk_size=st.sampled_from([7, 64, 4096]),
)
def test_streaming_equivalence_property(tmp_path_factory, entries, chunk_size):
    """Chunked decode yields the exact request sequence for arbitrary traces,
    at any chunk size (including chunks smaller than one line)."""
    tmp_path = tmp_path_factory.mktemp("prop")
    trace = Trace([Request(t, k, s) for t, k, s in entries], name="prop")
    path = tmp_path / "prop.csv"
    trace.to_csv(path)
    streaming = StreamingTrace(CsvRequestSource(path, chunk_size=chunk_size), name="prop")
    assert _request_tuples(streaming) == _request_tuples(trace)
    assert streaming.footprint_bytes() == trace.footprint_bytes()
    assert streaming.compulsory_miss_ratio() == trace.compulsory_miss_ratio()


def test_streaming_trace_is_reiterable(tmp_path):
    trace = generate_trace(
        SyntheticWorkloadConfig(num_requests=400, num_objects=80, seed=5)
    )
    path = tmp_path / "reiter.csv"
    trace.to_csv(path)
    streaming = open_csv_trace(path)
    first = _request_tuples(streaming)
    second = _request_tuples(streaming)
    assert first == second == _request_tuples(trace)


# -- memory -------------------------------------------------------------------------


def test_streaming_memory_is_chunk_bounded(tmp_path):
    """Iterating + stats hold O(chunk) live memory; materializing is O(trace)."""
    trace = generate_trace(
        SyntheticWorkloadConfig(num_requests=30_000, num_objects=600, seed=9)
    )
    path = tmp_path / "big.csv"
    trace.to_csv(path)

    streaming = open_csv_trace(path, chunk_size=16 * 1024)
    tracemalloc.start()
    count = sum(1 for _request in streaming)
    footprint = streaming.footprint_bytes()
    _current, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 30_000
    assert footprint == trace.footprint_bytes()

    tracemalloc.start()
    materialized = Trace.from_csv(path)
    _current, materialized_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(materialized) == 30_000

    # The streaming pass keeps a chunk, a per-unique-key dict and a fixed
    # reservoir alive; well under 2 MiB here, where the request list alone
    # is several MiB.
    assert streaming_peak < 2 * 1024 * 1024
    assert materialized_peak > 2 * streaming_peak


# -- cached-decode fast path --------------------------------------------------------


def test_decoded_cache_created_and_reused(tmp_path):
    trace = generate_trace(
        SyntheticWorkloadConfig(num_requests=500, num_objects=100, seed=2)
    )
    path = tmp_path / "cached.csv"
    trace.to_csv(path)

    cache_path = ensure_decoded_cache(path)
    assert cache_path.exists()
    first_mtime = cache_path.stat().st_mtime_ns
    # A second call must reuse the sidecar, not rebuild it.
    assert ensure_decoded_cache(path) == cache_path
    assert cache_path.stat().st_mtime_ns == first_mtime

    streaming = StreamingTrace(DecodedArraySource(cache_path, chunk_rows=64), name="c")
    assert _request_tuples(streaming) == _request_tuples(trace)


def test_decoded_cache_invalidated_on_source_change(tmp_path):
    first = generate_trace(
        SyntheticWorkloadConfig(num_requests=300, num_objects=50, seed=1)
    )
    path = tmp_path / "changing.csv"
    first.to_csv(path)
    ensure_decoded_cache(path)

    second = generate_trace(
        SyntheticWorkloadConfig(num_requests=320, num_objects=50, seed=4)
    )
    second.to_csv(path)
    streaming = open_csv_trace(path, cache_decoded=True)
    assert _request_tuples(streaming) == _request_tuples(second)


def test_a_cached_decode_pass_builds_no_request_and_decodes_once(tmp_path, monkeypatch):
    """Simulating a lowered candidate over a cached-decode trace three times
    constructs no ``Request`` and decodes the sidecar's columns once (the
    first pass's, kept by the trace), and scores like the materialized trace."""
    trace = generate_trace(cloudphysics_config(89, num_requests=1500))
    path = tmp_path / "w89.csv"
    trace.to_csv(path)
    streamed = open_csv_trace(path, cache_decoded=True)
    streamed.footprint_bytes()  # the stats pass (it iterates) stays outside the counts

    def simulate_heuristic_a(trace_like):
        cache = PriorityFunctionCache(
            cache_size_for(trace_like), program_for("Heuristic A"), name="Heuristic A"
        )
        return CacheSimulator().run(cache, trace_like)

    expected = simulate_heuristic_a(Trace.from_csv(path))
    constructed, decodes = [], []
    request, columns = streaming_module.Request, DecodedArraySource.columns

    def counting_request(**fields):
        constructed.append(fields)
        return request(**fields)

    def counting_columns(source):
        decodes.append(source)
        return columns(source)

    monkeypatch.setattr(streaming_module, "Request", counting_request)
    monkeypatch.setattr(DecodedArraySource, "columns", counting_columns)
    for _ in range(3):
        assert simulate_heuristic_a(streamed) == expected
        assert len(decodes) == 1
        assert constructed == []


def test_streaming_trace_pickles_for_process_pools(tmp_path):
    trace = generate_trace(
        SyntheticWorkloadConfig(num_requests=200, num_objects=40, seed=6)
    )
    path = tmp_path / "pickled.csv"
    trace.to_csv(path)
    streaming = open_csv_trace(path, cache_decoded=True)
    clone = pickle.loads(pickle.dumps(streaming))
    assert _request_tuples(clone) == _request_tuples(trace)
    # The decoded columns the fused simulator keeps are not part of the
    # pickle: it stays the size of the sidecar's path, and the clone decodes
    # the same columns again.
    bare = len(pickle.dumps(streaming))
    columns = streaming.columns()
    assert len(pickle.dumps(streaming)) == bare
    assert streaming.columns() is columns
    assert pickle.loads(pickle.dumps(streaming)).columns() == columns


# -- error handling -----------------------------------------------------------------


def test_whitespace_header_and_fields_accepted(tmp_path):
    """from_csv tolerates header/field whitespace; the streaming reader must too."""
    path = tmp_path / "spaced.csv"
    path.write_text("timestamp, key, size\n1, 2, 3\n4, 5, 6\n")
    streaming = open_csv_trace(path)
    materialized = Trace.from_csv(path)
    assert _request_tuples(streaming) == _request_tuples(materialized) == [
        (1, 2, 3),
        (4, 5, 6),
    ]


def test_concurrent_decoded_cache_builds_are_safe(tmp_path):
    """Parallel sweep seeds may build the same sidecar; readers never see a
    partial file and all builders converge on identical content."""
    from concurrent.futures import ThreadPoolExecutor

    trace = generate_trace(
        SyntheticWorkloadConfig(num_requests=2000, num_objects=200, seed=12)
    )
    path = tmp_path / "shared.csv"
    trace.to_csv(path)

    def build_and_read(_i):
        streaming = open_csv_trace(path, cache_decoded=True)
        return _request_tuples(streaming)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(build_and_read, range(4)))
    expected = _request_tuples(trace)
    assert all(result == expected for result in results)
    # No stray temp files left behind.
    assert not list(tmp_path.glob("*.tmp"))


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,object,bytes\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected header"):
        list(open_csv_trace(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("timestamp,key,size\n1,2,3\nnot-a-line\n")
    with pytest.raises(ValueError, match="malformed"):
        list(open_csv_trace(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        list(open_csv_trace(path))


def test_reservoir_sample_is_seeded(tmp_path):
    trace = generate_trace(
        SyntheticWorkloadConfig(num_requests=5000, num_objects=500, seed=8)
    )
    path = tmp_path / "sampled.csv"
    trace.to_csv(path)
    a = open_csv_trace(path).stats.size_sample
    b = open_csv_trace(path).stats.size_sample
    assert a == b
    assert len(a) == 1024
