"""Count-based gates on the fused cache loop: what an eviction and a second
candidate on the same trace may cost.

No wall-clock: ``sys.setprofile`` counts the Python-level frames one
``_fused_loop`` run enters, and counting columns count the decodes of a
trace's struct-of-arrays form.
"""

from __future__ import annotations

import gc
import sys

from repro.cache import columnar
from repro.cache.columnar import _fused_loop, _kernel_table, fused_cache_run
from repro.cache.policies.base import CachedObject
from repro.cache.search import CachingEvaluator
from repro.cache.simulator import CacheSimulator
from repro.dsl.parser import parse
from repro.traces.streaming import StreamingTrace

from tests.cache.test_columnar import PROGRAMS, _classic, _policy, _state, _workload_trace

#: Sizes in the workload trace are 50..200, so nothing is ever bypassed and
#: both capacities score every request: the kernel is entered equally often.
ROOMY, TIGHT = 10**6, 400


def frames_entered(fn, code=None):
    """(Python frames entered while it ran, what it returned) of ``fn()``;
    with ``code``, only the frames that run that code object."""
    entered = 0

    def profiler(frame, event, _arg):
        nonlocal entered
        if event == "call" and (code is None or frame.f_code is code):
            entered += 1

    # A collection mid-run would enter whatever ``gc.callbacks`` the test
    # session has registered, as frames of this run.
    collecting, profiling = gc.isenabled(), sys.getprofile()
    gc.disable()
    sys.setprofile(profiler)
    try:
        outcome = fn()
    finally:
        sys.setprofile(profiling)
        if collecting:
            gc.enable()
    return entered, outcome


def _frames_entered(capacity):
    """(Python frames entered, evictions, misses) of one fused run at ``capacity``."""
    trace = _workload_trace()
    policy = _policy(PROGRAMS["history"], capacity)
    runner = policy._priority._runner
    args = (*trace.columns(), 0, policy, runner.bound._fn)
    args += _kernel_table(runner.binding.plan, policy)
    entered, outcome = frames_entered(lambda: _fused_loop(*args))
    measured = outcome[-1]
    assert measured["bypassed"] == 0
    return entered, measured["evictions"], measured["misses"]


def test_an_eviction_enters_no_python_frame():
    roomy_frames, roomy_evictions, _ = _frames_entered(ROOMY)
    tight_frames, tight_evictions, tight_misses = _frames_entered(TIGHT)
    assert roomy_evictions == 0
    assert tight_evictions > tight_misses // 2, "workload too easy to exercise eviction"
    assert tight_frames == roomy_frames


def test_both_lowered_spellings_enter_equal_frames():
    """``compiled`` and ``vectorized`` name one fused run: the same frames,
    more of them than requests (the kernel is entered per scored request)."""
    trace = _workload_trace()

    def run(backend):
        return CacheSimulator().run(_policy(PROGRAMS["history"], backend=backend), trace)

    frames = {}
    for backend in ("compiled", "vectorized"):
        run(backend)  # first-run set-up (lowering, kernel tables) stays outside the count
        frames[backend], _result = frames_entered(lambda: run(backend))
    assert frames["compiled"] == frames["vectorized"] > len(trace)


class _CountingColumn:
    def __init__(self, values, decodes):
        self._values = values
        self._decodes = decodes

    def tolist(self):
        self._decodes.append(1)
        return list(self._values)


class _ColumnSource:
    """A request source with a struct-of-arrays form that counts its decodes."""

    def __init__(self, trace, decodes):
        self._trace = trace
        self._decodes = decodes

    def __iter__(self):
        return iter(self._trace)

    def columns(self):
        return tuple(_CountingColumn(column, self._decodes) for column in self._trace.columns())


def test_a_second_run_on_a_trace_decodes_nothing():
    decodes = []
    plain = _workload_trace()
    trace = StreamingTrace(_ColumnSource(plain, decodes), name=plain.name)
    first = fused_cache_run(CacheSimulator(), _policy(PROGRAMS["history"]), trace, 0)
    assert len(decodes) == 3  # timestamps, keys, sizes
    second = fused_cache_run(CacheSimulator(), _policy(PROGRAMS["history"]), trace, 0)
    assert len(decodes) == 3
    assert first == second == CacheSimulator().run(_policy(PROGRAMS["history"]), plain)


def test_the_loop_walks_the_traces_own_columns(monkeypatch):
    """No copy per candidate: the loop is handed the lists the trace keeps."""
    handed = []

    def recording(timestamps, keys, sizes, *rest):
        handed.append((timestamps, keys, sizes))
        return _fused_loop(timestamps, keys, sizes, *rest)

    monkeypatch.setattr(columnar, "_fused_loop", recording)
    trace = _workload_trace()
    for _ in range(2):
        assert fused_cache_run(CacheSimulator(), _policy(PROGRAMS["lru-like"]), trace, 0)
    kept = trace.columns()
    assert all(type(column) is list for column in kept)
    for columns in handed:
        assert all(ours is theirs for ours, theirs in zip(columns, kept))


class _RecordingSimulator(CacheSimulator):
    def __init__(self):
        super().__init__()
        self.policies = []

    def run(self, policy, trace, warmup=0):
        self.policies.append(policy)
        return super().run(policy, trace, warmup)


def test_scoring_a_candidate_builds_no_object_table():
    """A lowered ``CachingEvaluator.evaluate_program`` constructs no
    ``CachedObject``; reading its policy afterwards builds the table the
    classic loop leaves, field for field."""
    trace = _workload_trace()
    evaluator = CachingEvaluator(trace, cache_size=TIGHT)
    evaluator._simulator = simulator = _RecordingSimulator()
    program = parse(PROGRAMS["history"])
    built, result = frames_entered(
        lambda: evaluator.evaluate_program(program), code=CachedObject.__init__.__code__
    )
    assert result.valid and result.details["evictions"] > 0
    assert built == 0
    (policy,) = simulator.policies
    classic = _policy(PROGRAMS["history"], TIGHT)
    _classic(classic, trace)
    assert _state(policy) == _state(classic)
