"""Request and trace data model for the cache simulator.

A trace is an ordered sequence of :class:`Request` objects.  Real block-I/O
traces (CloudPhysics, MSR) carry a timestamp, an object id and a size; the
synthetic corpora in :mod:`repro.traces` produce the same shape.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Request:
    """A single cache request.

    Attributes
    ----------
    timestamp:
        Logical or wall-clock time of the request.  Only ordering and
        differences matter to policies (ages, inter-arrival gaps).
    key:
        Object identifier.
    size:
        Object size in bytes.  Policies that ignore size treat every object
        as one unit; the simulator always accounts capacity in bytes.
    """

    timestamp: int
    key: int
    size: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"request size must be positive, got {self.size}")


class Trace:
    """An in-memory request trace with a few convenience statistics.

    Traces are immutable once constructed; statistics are computed lazily
    and cached because the experiment harness asks for the footprint of every
    trace (cache size = 10 % of footprint, per §4.1.4).
    """

    def __init__(self, requests: Sequence[Request], name: str = "trace"):
        self._requests: List[Request] = list(requests)
        self.name = name
        self._footprint: Optional[int] = None
        self._unique: Optional[int] = None
        self._columns: Optional[tuple] = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    def prefix(self, count: int, name: Optional[str] = None) -> "Trace":
        """The first ``count`` requests as a new trace (fidelity scaling)."""
        if count < 0:
            raise ValueError(f"prefix length cannot be negative, got {count}")
        return Trace(self._requests[:count], name=name or self.name)

    # -- statistics ----------------------------------------------------------

    @property
    def requests(self) -> Sequence[Request]:
        return tuple(self._requests)

    def unique_objects(self) -> int:
        """Number of distinct keys in the trace."""
        if self._unique is None:
            self._unique = len({r.key for r in self._requests})
        return self._unique

    def footprint_bytes(self) -> int:
        """Sum of sizes over distinct keys (using the largest size seen).

        This is the "trace footprint" the paper sizes caches against
        (cache size = 10 % of footprint).
        """
        if self._footprint is None:
            sizes: Dict[int, int] = {}
            for request in self._requests:
                current = sizes.get(request.key, 0)
                if request.size > current:
                    sizes[request.key] = request.size
            self._footprint = sum(sizes.values())
        return self._footprint

    def columns(self) -> tuple:
        """The trace as ``(timestamps, keys, sizes)``, three plain lists.

        This is the struct-of-arrays form the fused columnar simulator
        (:mod:`repro.cache.columnar`) walks as it is, with no copy per run: it
        is built once and cached, and holds the requests' own field values,
        so it costs three pointers a request.
        """
        if self._columns is None:
            requests = self._requests
            self._columns = (
                [r.timestamp for r in requests],
                [r.key for r in requests],
                [r.size for r in requests],
            )
        return self._columns

    def compulsory_miss_ratio(self) -> float:
        """Lower bound on any policy's miss ratio (first access always misses)."""
        if not self._requests:
            return 0.0
        return self.unique_objects() / len(self._requests)

    def duration(self) -> int:
        """Timestamp span of the trace."""
        if not self._requests:
            return 0
        return self._requests[-1].timestamp - self._requests[0].timestamp

    # -- serialisation -------------------------------------------------------

    CSV_HEADER = ("timestamp", "key", "size")

    def to_csv(self, path: Path | str) -> None:
        """Write the trace as a CSV file with a header row."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.CSV_HEADER)
            for request in self._requests:
                writer.writerow((request.timestamp, request.key, request.size))

    @classmethod
    def from_csv(cls, path: Path | str, name: Optional[str] = None) -> "Trace":
        """Read a trace written by :meth:`to_csv`."""
        path = Path(path)
        requests: List[Request] = []
        with path.open("r", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"trace file {path} is empty")
            if tuple(h.strip() for h in header) != cls.CSV_HEADER:
                raise ValueError(
                    f"trace file {path} has unexpected header {header!r}"
                )
            for row in reader:
                if not row:
                    continue
                timestamp, key, size = (int(row[0]), int(row[1]), int(row[2]))
                requests.append(Request(timestamp=timestamp, key=key, size=size))
        return cls(requests, name=name or path.stem)

    def to_csv_string(self) -> str:
        """Render the trace as CSV text (useful in tests)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.CSV_HEADER)
        for request in self._requests:
            writer.writerow((request.timestamp, request.key, request.size))
        return buffer.getvalue()

    @classmethod
    def from_requests(
        cls, entries: Iterable[tuple[int, int, int]], name: str = "trace"
    ) -> "Trace":
        """Build a trace from ``(timestamp, key, size)`` tuples."""
        return cls([Request(t, k, s) for t, k, s in entries], name=name)

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "Trace":
        """Return a sub-trace of requests ``[start:stop]``."""
        return Trace(self._requests[start:stop], name=name or f"{self.name}[{start}:{stop}]")


def prefix_trace(trace, fraction: float) -> "Trace":
    """The first ``fraction`` of any sized trace as an in-memory :class:`Trace`.

    This is how the fidelity ladder (:mod:`repro.core.fidelity`) truncates a
    caching workload: the scaled trace is an exact *prefix* of the full one,
    so a rung simulation replays the first ``fraction`` of the full
    simulation verbatim -- the strongest possible rank correlation a
    truncation can offer.  Works on anything sized and iterable (an
    in-memory :class:`Trace` or a
    :class:`~repro.traces.streaming.StreamingTrace`; the prefix is
    materialised, which is bounded by ``fraction`` of the source).
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    count = max(1, int(math.ceil(len(trace) * fraction)))
    if isinstance(trace, Trace):
        return trace.prefix(count)
    return Trace(islice(iter(trace), count), name=getattr(trace, "name", "trace"))
