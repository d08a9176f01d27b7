"""Table-1 feature view exposed to synthesized ``priority()`` functions.

The paper's Template gives the generated priority function three classes of
features (§4.1.2, Table 1):

* **Per object** -- number of accesses, last access time, time added to the
  cache, object size (:class:`ObjectInfoView`);
* **Aggregates** -- percentiles over the access counts, ages and sizes of
  the objects currently in the cache (:class:`FeatureAggregates`);
* **History** -- recently evicted objects with their access count and age at
  eviction time (:class:`EvictionHistory`, one plain tuple per object in
  :class:`EvictedRecord`'s field order).

All three are :class:`~repro.dsl.interpreter.FeatureObject` subclasses, so
DSL programs can only touch the attributes/methods listed here.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, List, NamedTuple, Optional, Sequence

from repro.cache.policies.base import CachedObject
from repro.dsl.errors import DslRuntimeError
from repro.dsl.interpreter import FeatureObject


class ObjectInfoView(FeatureObject):
    """Read-only per-object metadata handed to the priority function.

    Exported attributes mirror Table 1: ``count`` (number of accesses),
    ``last_accessed``, ``inserted_at`` (time added to the cache) and ``size``.
    """

    exported_attrs = frozenset({"count", "last_accessed", "inserted_at", "size"})

    __slots__ = ("count", "last_accessed", "inserted_at", "size")

    def __init__(self, obj: CachedObject):
        self.count = obj.access_count
        self.last_accessed = obj.last_access_time
        self.inserted_at = obj.insert_time
        self.size = obj.size


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted sequence."""
    if not sorted_values:
        return 0.0
    fraction = min(1.0, max(0.0, fraction))
    index = min(len(sorted_values) - 1, int(math.ceil(fraction * len(sorted_values))) - 1)
    index = max(0, index)
    return float(sorted_values[index])


class FeatureAggregates(FeatureObject):
    """Percentile / summary statistics over one attribute of the cached set.

    The priority cache refreshes the underlying snapshot periodically (every
    ``refresh_interval`` requests) rather than on every access, which keeps
    the per-request cost O(log N) as required by the Template constraints.

    ``percentile`` accepts either a fraction in ``[0, 1]`` or an integer
    percentage in ``(1, 100]`` -- the latter lets integer-only (kernel-style)
    candidates use aggregates without floating-point literals.
    """

    exported_methods = frozenset({"percentile", "mean", "minimum", "maximum", "count"})

    def __init__(self, values: Optional[Iterable[float]] = None):
        self._sorted: List[float] = sorted(values) if values is not None else []
        self._sum = float(sum(self._sorted))

    def update(self, values: Iterable[float]) -> None:
        """Replace the snapshot with fresh values."""
        self._sorted = sorted(values)
        self._sum = float(sum(self._sorted))

    # -- methods visible to generated code -------------------------------------

    def percentile(self, fraction: float) -> float:
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
            raise DslRuntimeError("percentile() expects a numeric argument")
        if fraction > 1.0:
            fraction = fraction / 100.0
        return _percentile(self._sorted, float(fraction))

    def mean(self) -> float:
        if not self._sorted:
            return 0.0
        return self._sum / len(self._sorted)

    def minimum(self) -> float:
        return float(self._sorted[0]) if self._sorted else 0.0

    def maximum(self) -> float:
        return float(self._sorted[-1]) if self._sorted else 0.0

    def count(self) -> int:
        return len(self._sorted)


class EvictedRecord(NamedTuple):
    """Metadata captured for an object at the moment it was evicted.

    A history record is stored as a plain 5-tuple in this field order -- an
    eviction runs on two requests in three, and building a tuple is what a
    cache hit costs.  Both simulation loops write it positionally
    (:meth:`EvictionHistory.record`, the eviction branch of
    :func:`repro.cache.columnar._fused_loop`) and every reader indexes it
    through the ``_REC_*`` slots below; this class is the named view
    :meth:`EvictionHistory.records` hands out.
    """

    key: int
    evicted_at: int
    access_count: int
    age_at_eviction: int
    size: int


#: Stored-record slots (``cache/layout.py`` reads records through them too).
_REC_EVICTED_AT, _REC_COUNT, _REC_AGE, _REC_SIZE = map(
    EvictedRecord._fields.index, ("evicted_at", "access_count", "age_at_eviction", "size")
)


class EvictionHistory(FeatureObject):
    """Bounded record of recently evicted objects (Table 1, "History").

    Generated code can ask whether an object was recently evicted and, if so,
    recover the access count and age it had at eviction time -- the signal
    Listing 1 uses to give returning objects a head start.
    """

    exported_methods = frozenset(
        {
            "contains",
            "count_of",
            "age_at_eviction",
            "size_of",
            "time_since_eviction",
            "length",
        }
    )

    def __init__(self, max_entries: int = 1024):
        if max_entries <= 0:
            raise ValueError("history must keep at least one entry")
        self.max_entries = max_entries
        self._records: "OrderedDict[int, tuple]" = OrderedDict()
        self._now = 0

    # -- maintenance (called by the cache, not by generated code) ----------------

    def record(self, obj: CachedObject, now: int) -> None:
        records = self._records
        key = obj.key
        # EvictedRecord's field order.
        records[key] = (key, now, obj.access_count, max(0, now - obj.last_access_time), obj.size)
        records.move_to_end(key)
        while len(records) > self.max_entries:
            records.popitem(last=False)

    def set_now(self, now: int) -> None:
        self._now = now

    def records(self) -> List[EvictedRecord]:
        return [EvictedRecord._make(record) for record in self._records.values()]

    # -- methods visible to generated code -----------------------------------------

    def contains(self, key: int) -> bool:
        return key in self._records

    def count_of(self, key: int) -> int:
        record = self._records.get(key)
        return record[_REC_COUNT] if record else 0

    def age_at_eviction(self, key: int) -> int:
        record = self._records.get(key)
        return record[_REC_AGE] if record else 0

    def size_of(self, key: int) -> int:
        record = self._records.get(key)
        return record[_REC_SIZE] if record else 0

    def time_since_eviction(self, key: int) -> int:
        record = self._records.get(key)
        if record is None:
            return 0
        return max(0, self._now - record[_REC_EVICTED_AT])

    def length(self) -> int:
        return len(self._records)
