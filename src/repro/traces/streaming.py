"""Constant-memory streaming trace readers (chunked decode + reservoir stats).

File-backed traces used to be read by materialising every request into a
Python list (:meth:`~repro.cache.request.Trace.from_csv`): ~200 bytes per
request of live heap, per worker, for the whole run.  This module replaces
that with iterator-based readers whose peak additional memory is O(chunk):

* :class:`CsvRequestSource` -- re-iterable chunked CSV decoder: the file is
  read ``chunk_size`` bytes at a time, split into lines, and parsed straight
  into :class:`~repro.cache.request.Request` objects that are yielded (and
  collected) one by one;
* :class:`DecodedArraySource` -- the cached-decode fast path for *repeated*
  evaluation of the same trace: the CSV is decoded once into a columnar
  ``int64`` sidecar (``<trace>.reqcache.npy``) that later passes memory-map
  (``np.load(mmap_mode="r")``) and stream in row chunks, skipping text
  parsing entirely;
* :class:`StreamingTrace` -- the :class:`~repro.cache.request.Trace`-shaped
  facade over either source.  The statistics the experiment harness needs
  (footprint, unique objects, length) come from one streaming pass that also
  keeps a seeded reservoir sample of request sizes; the pass stores one
  integer per *unique* key, never the requests themselves.

Streaming and materialized reads are equivalent by construction -- the
property tests assert byte-identical request sequences and identical
simulator statistics on the bundled corpora.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.cache.request import Request

#: Default file-read granularity (bytes) for the CSV decoder.
DEFAULT_CHUNK_SIZE = 64 * 1024

#: Default row granularity for the memmapped fast path.
DEFAULT_CHUNK_ROWS = 8192

#: Suffixes of the cached-decode sidecar files.
CACHE_SUFFIX = ".reqcache.npy"
CACHE_META_SUFFIX = ".reqcache.json"

_CSV_HEADER = ("timestamp", "key", "size")


def _header_matches(line: str) -> bool:
    """Tolerate the whitespace variants ``Trace.from_csv`` accepts."""
    return tuple(field.strip() for field in line.split(",")) == _CSV_HEADER


class _ReservoirSampler:
    """Algorithm-R reservoir over a stream, with its own seeded RNG."""

    def __init__(self, capacity: int = 1024, seed: int = 0):
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._sample: list = []
        self._seen = 0

    def offer(self, value: int) -> None:
        self._seen += 1
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._sample[slot] = value

    @property
    def sample(self) -> Tuple[int, ...]:
        return tuple(self._sample)


@dataclass(frozen=True)
class TraceStats:
    """Whole-trace statistics from one streaming pass."""

    requests: int
    unique_objects: int
    footprint_bytes: int
    first_timestamp: int
    last_timestamp: int
    #: Seeded reservoir sample of request sizes (for approximate size
    #: distributions without a second pass).
    size_sample: Tuple[int, ...]


class CsvRequestSource:
    """Re-iterable chunked decoder for ``Trace.to_csv``-format files.

    Instances hold only the path and chunk size, so they pickle cheaply into
    process-pool workers; every iteration opens the file afresh.
    """

    def __init__(self, path: Union[str, Path], chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.path = Path(path)
        self.chunk_size = chunk_size

    def __iter__(self) -> Iterator[Request]:
        with self.path.open("r", encoding="utf-8", newline="") as handle:
            buffer = ""
            header_seen = False
            while True:
                chunk = handle.read(self.chunk_size)
                if not chunk:
                    break
                buffer += chunk
                lines = buffer.split("\n")
                buffer = lines.pop()
                for line in lines:
                    line = line.rstrip("\r")
                    if not line:
                        continue
                    if not header_seen:
                        header_seen = True
                        if not _header_matches(line):
                            raise ValueError(
                                f"trace file {self.path} has unexpected header {line!r}"
                            )
                        continue
                    yield self._parse(line)
            tail = buffer.rstrip("\r")
            if tail:
                if not header_seen:
                    if not _header_matches(tail):
                        raise ValueError(
                            f"trace file {self.path} has unexpected header {tail!r}"
                        )
                else:
                    yield self._parse(tail)
            elif not header_seen:
                raise ValueError(f"trace file {self.path} is empty")

    def _parse(self, line: str) -> Request:
        # int() tolerates surrounding whitespace, so "1, 2, 3" parses like
        # Trace.from_csv; quoting is not supported (to_csv never writes it --
        # all fields are integers).
        try:
            timestamp, key, size = line.split(",")
            return Request(timestamp=int(timestamp), key=int(key), size=int(size))
        except ValueError as exc:
            raise ValueError(f"malformed trace line in {self.path}: {line!r}") from exc


class DecodedArraySource:
    """Streams requests out of a columnar ``(3, N)`` int64 ``.npy`` sidecar.

    The array is opened with ``mmap_mode="r"`` on each iteration, so the OS
    pages data in and out on demand; Python-level live memory is one
    ``chunk_rows``-sized slice of each column.
    """

    def __init__(self, path: Union[str, Path], chunk_rows: int = DEFAULT_CHUNK_ROWS):
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.path = Path(path)
        self.chunk_rows = chunk_rows

    def _open(self) -> np.ndarray:
        data = np.load(self.path, mmap_mode="r")
        if data.ndim != 2 or data.shape[0] != 3:
            raise ValueError(
                f"decode cache {self.path} has shape {data.shape}, expected (3, N)"
            )
        return data

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(timestamps, keys, sizes)`` int64 views of the sidecar.

        The rows alias the memory-mapped array directly;
        :meth:`StreamingTrace.columns` decodes them for the fused columnar
        simulator without ever constructing Request objects.
        """
        data = self._open()
        return data[0], data[1], data[2]

    def __iter__(self) -> Iterator[Request]:
        data = self._open()
        total = data.shape[1]
        for start in range(0, total, self.chunk_rows):
            stop = min(start + self.chunk_rows, total)
            timestamps = data[0, start:stop].tolist()
            keys = data[1, start:stop].tolist()
            sizes = data[2, start:stop].tolist()
            for timestamp, key, size in zip(timestamps, keys, sizes):
                yield Request(timestamp=timestamp, key=key, size=size)


def ensure_decoded_cache(
    csv_path: Union[str, Path], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Path:
    """Build (or reuse) the columnar decode sidecar for ``csv_path``.

    The sidecar is invalidated by source size/mtime changes, recorded in a
    small metadata file next to it.  Building streams the CSV once through
    compact ``array('q')`` columns -- ~24 bytes per request, transient --
    instead of a Request-object list.
    """
    csv_path = Path(csv_path)
    cache_path = csv_path.with_name(csv_path.name + CACHE_SUFFIX)
    meta_path = csv_path.with_name(csv_path.name + CACHE_META_SUFFIX)
    stat = csv_path.stat()
    fingerprint = {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}
    if cache_path.exists() and meta_path.exists():
        try:
            if json.loads(meta_path.read_text(encoding="utf-8")) == fingerprint:
                return cache_path
        except (ValueError, OSError):
            pass
    timestamps, keys, sizes = array("q"), array("q"), array("q")
    for request in CsvRequestSource(csv_path, chunk_size=chunk_size):
        timestamps.append(request.timestamp)
        keys.append(request.key)
        sizes.append(request.size)
    data = np.empty((3, len(timestamps)), dtype=np.int64)
    data[0] = np.frombuffer(timestamps, dtype=np.int64)
    data[1] = np.frombuffer(keys, dtype=np.int64)
    data[2] = np.frombuffer(sizes, dtype=np.int64)
    # Write-then-rename so concurrent builders (sweep seeds sharing one csv
    # workload) never expose a half-written sidecar to a reader's mmap;
    # whichever rename lands last wins with identical content.
    fd, tmp_name = tempfile.mkstemp(
        dir=cache_path.parent, prefix=cache_path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, data)
        os.replace(tmp_name, cache_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fd, tmp_meta = tempfile.mkstemp(
        dir=meta_path.parent, prefix=meta_path.name, suffix=".tmp"
    )
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(fingerprint))
    os.replace(tmp_meta, meta_path)
    return cache_path


class StreamingTrace:
    """A :class:`~repro.cache.request.Trace`-shaped view over a request source.

    Iteration never materialises the request list; the statistics the
    simulator and the experiment harness need (``footprint_bytes`` for cache
    sizing, ``len``, ``unique_objects``) are computed once by a streaming
    pass whose live state is one integer per unique key plus a fixed-size
    reservoir, then cached on the instance.
    """

    def __init__(
        self,
        source,
        name: str = "trace",
        reservoir_size: int = 1024,
        stats_seed: int = 0,
    ):
        self.source = source
        self.name = name
        self.reservoir_size = reservoir_size
        self.stats_seed = stats_seed
        self._stats: Optional[TraceStats] = None
        self._columns: Optional[tuple] = None

    def __iter__(self) -> Iterator[Request]:
        return iter(self.source)

    def columns(self) -> Optional[tuple]:
        """``(timestamps, keys, sizes)`` as lists of plain ints when the source
        has a struct-of-arrays form, else ``None``.

        Only :class:`DecodedArraySource` does (its sidecar *is* the columnar
        form, memory-mapped); it is decoded on first use and kept, so unlike
        iteration this holds O(trace) memory, once for every candidate the
        fused simulator runs on the trace.  Plain CSV streaming returns
        ``None`` and the simulator uses the per-request loop.
        """
        source_columns = getattr(self.source, "columns", None)
        if self._columns is None and callable(source_columns):
            self._columns = tuple(column.tolist() for column in source_columns())
        return self._columns

    def __getstate__(self) -> dict:
        # The decoded columns are rebuilt from the sidecar where they are next
        # needed; a pickled trace (process pools) stays the size of its path.
        return {**self.__dict__, "_columns": None}

    # -- statistics ----------------------------------------------------------------

    @property
    def stats(self) -> TraceStats:
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def _compute_stats(self) -> TraceStats:
        max_sizes: Dict[int, int] = {}
        reservoir = _ReservoirSampler(self.reservoir_size, seed=self.stats_seed)
        count = 0
        first_timestamp = 0
        last_timestamp = 0
        for request in self:
            if count == 0:
                first_timestamp = request.timestamp
            last_timestamp = request.timestamp
            count += 1
            if request.size > max_sizes.get(request.key, 0):
                max_sizes[request.key] = request.size
            reservoir.offer(request.size)
        return TraceStats(
            requests=count,
            unique_objects=len(max_sizes),
            footprint_bytes=sum(max_sizes.values()),
            first_timestamp=first_timestamp,
            last_timestamp=last_timestamp,
            size_sample=reservoir.sample,
        )

    def __len__(self) -> int:
        return self.stats.requests

    def unique_objects(self) -> int:
        return self.stats.unique_objects

    def footprint_bytes(self) -> int:
        return self.stats.footprint_bytes

    def compulsory_miss_ratio(self) -> float:
        if self.stats.requests == 0:
            return 0.0
        return self.stats.unique_objects / self.stats.requests

    def duration(self) -> int:
        return self.stats.last_timestamp - self.stats.first_timestamp


def open_csv_trace(
    path: Union[str, Path],
    name: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache_decoded: bool = False,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> StreamingTrace:
    """Open a CSV trace for constant-memory streaming.

    ``cache_decoded=True`` selects the cached-decode fast path: the first
    open pays one decoding pass to build the columnar sidecar, and every
    later iteration (including in other processes) memory-maps it.
    """
    path = Path(path)
    if cache_decoded:
        source = DecodedArraySource(ensure_decoded_cache(path, chunk_size), chunk_rows)
    else:
        source = CsvRequestSource(path, chunk_size=chunk_size)
    return StreamingTrace(source, name=name or path.stem)
