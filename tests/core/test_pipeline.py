"""Round telemetry: the generate -> check -> evaluate pipeline of one round.

Each round generates its candidates, then checks and evaluates them, one
phase after the other.  These tests pin the events a round emits and the
per-round phase timings recorded in its summary.
"""

from repro.core.domain import build_search
from repro.core.events import (
    EventBus,
    GenerationCompleted,
    GenerationStarted,
    RoundCompleted,
)


def build(trace, *, rounds=3, events=None):
    return build_search(
        "caching",
        rounds=rounds,
        candidates_per_round=6,
        seed=11,
        trace=trace,
        events=events,
    )


def test_generation_events_and_round_timings(small_synthetic_trace):
    seen = []
    setup = build(small_synthetic_trace, rounds=2, events=EventBus([seen.append]))
    result = setup.search.run()

    started = [e for e in seen if isinstance(e, GenerationStarted)]
    completed = [e for e in seen if isinstance(e, GenerationCompleted)]
    assert [e.round_index for e in started] == [1, 2]
    assert [e.round_index for e in completed] == [1, 2]
    assert all(e.requested == 6 for e in started)
    for summary, event in zip(result.rounds, completed):
        assert summary.generated == event.generated
        assert summary.generation_s > 0
        assert summary.evaluation_s > 0
        # Generation and evaluation run one after the other.
        assert summary.overlap_s == 0.0
    # Ordering per round: generation starts before the round completes.
    kinds = [type(e).__name__ for e in seen if isinstance(e, (GenerationStarted, RoundCompleted))]
    assert kinds == ["GenerationStarted", "RoundCompleted"] * 2


def test_serial_rounds_also_time_their_phases(small_synthetic_trace):
    seen = []
    setup = build(small_synthetic_trace, rounds=1, events=EventBus([seen.append]))
    result = setup.search.run()
    [completed] = [e for e in seen if isinstance(e, GenerationCompleted)]
    summary = result.rounds[0]
    assert completed.generated == summary.generated
    assert summary.generation_s > 0
    assert summary.evaluation_s > 0
    assert summary.overlap_s == 0.0
