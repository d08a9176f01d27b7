"""Tests of the Table-1 feature view (per-object, aggregates, history)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.features import (
    EvictedRecord,
    EvictionHistory,
    FeatureAggregates,
    ObjectInfoView,
)
from repro.cache.policies.base import CachedObject
from repro.dsl.errors import DslRuntimeError


def make_object(key=1, size=100, insert=10, last=50, count=3):
    return CachedObject(
        key=key, size=size, insert_time=insert, last_access_time=last, access_count=count
    )


# -- ObjectInfoView -------------------------------------------------------------


def test_object_info_view_mirrors_cached_object():
    view = ObjectInfoView(make_object(key=9, size=256, insert=5, last=42, count=7))
    assert view.count == 7
    assert view.last_accessed == 42
    assert view.inserted_at == 5
    assert view.size == 256


def test_object_info_view_dsl_access_control():
    view = ObjectInfoView(make_object())
    assert view.dsl_getattr("count") == 3
    with pytest.raises(DslRuntimeError):
        view.dsl_getattr("secret")
    with pytest.raises(DslRuntimeError):
        view.dsl_call("count", [])


# -- FeatureAggregates ------------------------------------------------------------


def test_aggregates_percentile_nearest_rank():
    agg = FeatureAggregates([10, 20, 30, 40, 50])
    assert agg.percentile(0.0) == 10
    assert agg.percentile(0.5) == 30
    assert agg.percentile(1.0) == 50
    assert agg.percentile(0.75) == 40


def test_aggregates_percentile_accepts_percent_form():
    agg = FeatureAggregates([10, 20, 30, 40, 50])
    assert agg.percentile(75) == agg.percentile(0.75)


def test_aggregates_summary_stats():
    agg = FeatureAggregates([4, 2, 8])
    assert agg.mean() == pytest.approx(14 / 3)
    assert agg.minimum() == 2
    assert agg.maximum() == 8
    assert agg.count() == 3


def test_aggregates_empty_behaviour():
    agg = FeatureAggregates()
    assert agg.percentile(0.5) == 0.0
    assert agg.mean() == 0.0
    assert agg.minimum() == 0.0
    assert agg.maximum() == 0.0
    assert agg.count() == 0


def test_aggregates_update_replaces_snapshot():
    agg = FeatureAggregates([1, 2, 3])
    agg.update([100, 200])
    assert agg.maximum() == 200
    assert agg.count() == 2


def test_aggregates_rejects_non_numeric_percentile():
    agg = FeatureAggregates([1, 2, 3])
    with pytest.raises(DslRuntimeError):
        agg.percentile("high")


# -- EvictionHistory ------------------------------------------------------------------


def test_history_records_eviction_metadata():
    history = EvictionHistory(max_entries=10)
    history.record(make_object(key=5, last=40, count=4, size=123), now=100)
    history.set_now(150)
    assert history.contains(5)
    assert history.count_of(5) == 4
    assert history.age_at_eviction(5) == 60
    assert history.size_of(5) == 123
    assert history.time_since_eviction(5) == 50
    assert history.length() == 1


def test_history_misses_return_neutral_values():
    history = EvictionHistory()
    assert not history.contains(99)
    assert history.count_of(99) == 0
    assert history.age_at_eviction(99) == 0
    assert history.size_of(99) == 0
    assert history.time_since_eviction(99) == 0


def test_history_bounded_by_max_entries():
    history = EvictionHistory(max_entries=3)
    for key in range(6):
        history.record(make_object(key=key), now=100 + key)
    assert history.length() == 3
    assert not history.contains(0)
    assert history.contains(5)


def test_history_rerecord_moves_to_front():
    history = EvictionHistory(max_entries=2)
    history.record(make_object(key=1), now=10)
    history.record(make_object(key=2), now=20)
    history.record(make_object(key=1, count=9), now=30)   # re-evicted later
    history.record(make_object(key=3), now=40)
    assert history.contains(1)
    assert history.count_of(1) == 9
    assert not history.contains(2)


def test_history_requires_positive_capacity():
    with pytest.raises(ValueError):
        EvictionHistory(max_entries=0)


class _ModelHistory:
    """Plain-Python reference: named records in a list, oldest first."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.rows = []
        self.now = 0

    def record(self, obj, now):
        self.rows = [row for row in self.rows if row["key"] != obj.key]
        self.rows.append(
            {
                "key": obj.key,
                "evicted_at": now,
                "access_count": obj.access_count,
                "age_at_eviction": max(0, now - obj.last_access_time),
                "size": obj.size,
            }
        )
        del self.rows[: max(0, len(self.rows) - self.max_entries)]

    def field(self, key, name, neutral=0):
        return next((row[name] for row in self.rows if row["key"] == key), neutral)


_KEYS = st.integers(min_value=0, max_value=7)
_TIMES = st.integers(min_value=0, max_value=1_000)
_HISTORY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _KEYS, _TIMES, _TIMES, st.integers(1, 50), st.integers(1, 500)),
        st.tuples(st.just("set_now"), _TIMES),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(max_entries=st.integers(min_value=1, max_value=5), ops=_HISTORY_OPS)
def test_history_matches_a_plain_python_model(max_entries, ops):
    history = EvictionHistory(max_entries=max_entries)
    model = _ModelHistory(max_entries)
    for op in ops:
        if op[0] == "record":
            _, key, last, now, count, size = op
            obj = make_object(key=key, last=last, count=count, size=size)
            history.record(obj, now)
            model.record(obj, now)
        else:
            history.set_now(op[1])
            model.now = op[1]

        assert history.length() == len(model.rows) <= max_entries
        for key in range(9):  # 8 is never recorded: always a miss
            assert history.contains(key) == any(row["key"] == key for row in model.rows)
            assert history.count_of(key) == model.field(key, "access_count")
            assert history.age_at_eviction(key) == model.field(key, "age_at_eviction")
            assert history.size_of(key) == model.field(key, "size")
            since = max(0, model.now - model.field(key, "evicted_at", neutral=model.now))
            assert history.time_since_eviction(key) == since

        records = history.records()
        assert [record._asdict() for record in records] == model.rows  # oldest first
        for record, stored in zip(records, history._records.values()):
            assert type(record) is EvictedRecord and type(stored) is tuple
            assert record == stored and hash(record) == hash(stored)
            assert history._records[record.key] is stored
            with pytest.raises(AttributeError):
                record.size = 0
