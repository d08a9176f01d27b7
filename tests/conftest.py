"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.cache.request import Request, Trace
from repro.cache.search import caching_template
from repro.dsl.grammar import FeatureSpec
from repro.dsl.interpreter import FeatureObject
from repro.traces.synthetic import SyntheticWorkloadConfig, generate_trace


# ``pytest --hypothesis-profile nightly`` runs every property test at ten
# times hypothesis' default example count; a test that sets its own count
# scales it by the same factor (``tests/dsl/test_frontend_differential.py``).
settings.register_profile("nightly", max_examples=10 * settings.get_profile("default").max_examples)


PRIORITY_SIGNATURE = "def priority(now, obj_id, obj_info, counts, ages, sizes, history)"

LISTING_1 = f"""
{PRIORITY_SIGNATURE} {{
    score = obj_info.count * 20
    age = now - obj_info.last_accessed
    score -= age / 300
    score -= obj_info.size / 500
    if (history.contains(obj_id)) {{
        score += history.count_of(obj_id) * 15
        score += history.age_at_eviction(obj_id) / 150
    }} else {{
        score -= 40
    }}
    recent = ages.percentile(0.75)
    if (obj_info.last_accessed < recent) {{
        score -= 30
    }}
    big = sizes.percentile(0.75)
    if (obj_info.size > big) {{
        score -= 25
    }} else {{
        score += 10
    }}
    frequent = counts.percentile(0.7)
    score += (obj_info.count > frequent) ? 50 : -5
    if (age < 1000) {{
        score += 25
    }}
    if (obj_info.count < 3) {{
        score -= 15
    }}
    return score
}}
"""


class StubObjectInfo(FeatureObject):
    """Minimal per-object feature stub for interpreter tests."""

    exported_attrs = frozenset({"count", "last_accessed", "inserted_at", "size"})

    def __init__(self, count=5, last_accessed=900, inserted_at=100, size=1000):
        self.count = count
        self.last_accessed = last_accessed
        self.inserted_at = inserted_at
        self.size = size


class StubAggregate(FeatureObject):
    """Aggregate stub returning a fixed value for every query."""

    exported_methods = frozenset({"percentile", "mean", "minimum", "maximum", "count"})

    def __init__(self, value=42):
        self.value = value

    def percentile(self, fraction):
        return self.value

    def mean(self):
        return self.value

    def minimum(self):
        return self.value

    def maximum(self):
        return self.value

    def count(self):
        return 10


class StubHistory(FeatureObject):
    """History stub with a configurable membership set."""

    exported_methods = frozenset(
        {"contains", "count_of", "age_at_eviction", "size_of", "time_since_eviction", "length"}
    )

    def __init__(self, members=()):
        self.members = set(members)

    def contains(self, key):
        return key in self.members

    def count_of(self, key):
        return 3 if key in self.members else 0

    def age_at_eviction(self, key):
        return 600 if key in self.members else 0

    def size_of(self, key):
        return 512 if key in self.members else 0

    def time_since_eviction(self, key):
        return 100 if key in self.members else 0

    def length(self):
        return len(self.members)


@pytest.fixture
def priority_env():
    """A complete Table-1 environment for interpreting priority programs."""
    return {
        "now": 1000,
        "obj_id": 7,
        "obj_info": StubObjectInfo(),
        "counts": StubAggregate(4),
        "ages": StubAggregate(200),
        "sizes": StubAggregate(2048),
        "history": StubHistory(members={7}),
    }


@pytest.fixture
def caching_spec() -> FeatureSpec:
    return caching_template().spec


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_trace(entries, name="test-trace"):
    """Build a trace from (timestamp, key, size) tuples."""
    return Trace([Request(t, k, s) for t, k, s in entries], name=name)


@pytest.fixture
def tiny_trace() -> Trace:
    """A 12-request trace with obvious reuse (used by policy unit tests)."""
    return make_trace(
        [
            (1, 1, 100),
            (2, 2, 100),
            (3, 3, 100),
            (4, 1, 100),
            (5, 4, 100),
            (6, 2, 100),
            (7, 5, 100),
            (8, 1, 100),
            (9, 6, 100),
            (10, 2, 100),
            (11, 7, 100),
            (12, 1, 100),
        ]
    )


@pytest.fixture
def small_synthetic_trace() -> Trace:
    """A deterministic ~1500-request synthetic trace for integration tests."""
    config = SyntheticWorkloadConfig(
        name="unit-small", num_requests=1500, num_objects=300, seed=7
    )
    return generate_trace(config)


@pytest.fixture
def evaluated_fidelities(monkeypatch):
    """The fidelity of every unit the engine hands an executor while the test
    runs: one entry per fresh evaluation, counted in the coordinator, so a
    pool's work is counted as an in-process run's is."""
    from repro.core import executors

    fidelities: list = []
    for cls in (executors.SerialExecutor, executors._PoolExecutor):

        def counting(self, units, stats, run_units=cls.run_units):
            fidelities.extend(unit.fidelity for unit in units)
            return run_units(self, units, stats)

        monkeypatch.setattr(cls, "run_units", counting)
    return fidelities
