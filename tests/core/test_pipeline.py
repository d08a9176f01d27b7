"""Pipelined search rounds: result equivalence, chunking, speculation.

The pipeline is pure scheduling: for a fixed seed it must produce the exact
SearchResult the serial round loop produces -- same candidates, same
scores, same token usage -- while overlapping generation with evaluation.
"""

from repro.core.artifacts import search_result_to_dict
from repro.core.domain import build_search
from repro.core.events import (
    EventBus,
    GenerationCompleted,
    GenerationStarted,
    RoundCompleted,
)
from repro.core.fidelity import FidelitySchedule


def build(trace, *, pipeline=False, rounds=3, engine_config=None, events=None, **kw):
    setup = build_search(
        "caching",
        rounds=rounds,
        candidates_per_round=6,
        seed=11,
        trace=trace,
        engine_config=engine_config,
        events=events,
        **kw,
    )
    setup.search.config.pipeline = pipeline
    return setup


# -- equivalence --------------------------------------------------------------------


def test_pipelined_result_equals_serial(small_synthetic_trace):
    serial_setup = build(small_synthetic_trace, pipeline=False)
    serial = serial_setup.search.run()
    piped_setup = build(small_synthetic_trace, pipeline=True)
    assert piped_setup.search.pipelined
    piped = piped_setup.search.run()

    assert search_result_to_dict(piped) == search_result_to_dict(serial)
    assert piped.prompt_tokens == serial.prompt_tokens
    assert piped.completion_tokens == serial.completion_tokens
    assert piped_setup.generator.usage.calls == serial_setup.generator.usage.calls
    # The clients consumed the identical RNG stream.
    assert piped_setup.client.get_state() == serial_setup.client.get_state()


def test_pipelined_equivalence_with_batch_size_hints(small_synthetic_trace):
    reference = search_result_to_dict(build(small_synthetic_trace).search.run())
    for batch_size in (1, 2, 5, 100):
        setup = build(small_synthetic_trace, pipeline=True)
        setup.generator.batch_size = batch_size
        assert search_result_to_dict(setup.search.run()) == reference, batch_size


# -- chunk planning -----------------------------------------------------------------


def test_chunk_plan_quarters_by_default(small_synthetic_trace):
    search = build(small_synthetic_trace).search
    search.generator.batch_size = None
    assert search._chunk_plan(8) == [2, 2, 2, 2]
    assert search._chunk_plan(6) == [2, 2, 2]
    assert search._chunk_plan(5) == [2, 2, 1]
    assert search._chunk_plan(1) == [1]
    assert search._chunk_plan(3) == [1, 1, 1]


def test_chunk_plan_honours_batch_size(small_synthetic_trace):
    search = build(small_synthetic_trace).search
    search.generator.batch_size = 3
    assert search._chunk_plan(8) == [3, 3, 2]
    search.generator.batch_size = 100
    assert search._chunk_plan(8) == [8]
    # Every chunk >= 1 and sums to the round budget, whatever the hint.
    for size in (1, 2, 3, 7, 50):
        search.generator.batch_size = size
        for total in range(1, 20):
            plan = search._chunk_plan(total)
            assert sum(plan) == total
            assert min(plan) >= 1


# -- fallback conditions ------------------------------------------------------------


def test_pipeline_disabled_without_request(small_synthetic_trace):
    assert not build(small_synthetic_trace).search.pipelined


def test_pipeline_falls_back_under_screening_ladder(small_synthetic_trace):
    setup = build(small_synthetic_trace, pipeline=True)
    setup.engine.attach_fidelity(FidelitySchedule.from_ref([0.25, 1.0]))
    assert not setup.search.pipelined


def test_pipeline_falls_back_for_foreign_generators(small_synthetic_trace):
    setup = build(small_synthetic_trace, pipeline=True)

    class Scripted:
        """No generation_messages/generate_chunk: cannot be streamed."""

        def generate(self, parents, num_candidates):
            return []

        def repair(self, source, feedback):
            return None

    setup.search.generator = Scripted()
    assert not setup.search.pipelined


# -- telemetry ----------------------------------------------------------------------


def test_generation_events_and_round_timings(small_synthetic_trace):
    seen = []
    setup = build(
        small_synthetic_trace, pipeline=True, rounds=2, events=EventBus([seen.append])
    )
    result = setup.search.run()

    started = [e for e in seen if isinstance(e, GenerationStarted)]
    completed = [e for e in seen if isinstance(e, GenerationCompleted)]
    assert [e.round_index for e in started] == [1, 2]
    assert [e.round_index for e in completed] == [1, 2]
    assert all(e.requested == 6 for e in started)
    # candidates_per_round=6 streams as three default chunks of two.
    assert all(e.chunks == 3 for e in completed)
    for summary, event in zip(result.rounds, completed):
        assert summary.generated == event.generated
        assert summary.generation_s > 0
        assert summary.evaluation_s > 0
    # Ordering per round: generation starts before the round completes.
    kinds = [type(e).__name__ for e in seen if isinstance(e, (GenerationStarted, RoundCompleted))]
    assert kinds == ["GenerationStarted", "RoundCompleted"] * 2


def test_serial_rounds_also_time_their_phases(small_synthetic_trace):
    seen = []
    setup = build(small_synthetic_trace, rounds=1, events=EventBus([seen.append]))
    result = setup.search.run()
    [completed] = [e for e in seen if isinstance(e, GenerationCompleted)]
    assert completed.chunks == 1
    summary = result.rounds[0]
    assert summary.generation_s > 0
    assert summary.evaluation_s > 0
    assert summary.overlap_s == 0.0


# -- speculation --------------------------------------------------------------------


def advance_client(setup):
    """Consume some of the shared client's RNG stream out of band."""
    messages = setup.generator.generation_messages([], 2)
    setup.client.complete(messages, n=2)


def test_consume_prefetch_on_match(small_synthetic_trace):
    search = build(small_synthetic_trace, pipeline=True).search
    examples = [("def f() { return 1 }", 1.0)]
    chunk = search._chunk_plan(search.config.candidates_per_round)[0]
    search._prefetch = {
        "round": 2,
        "examples": examples,
        "sources": ["speculated"],
        "snapshot": search._capture_generator_state_now(),
        "chunk": chunk,
    }
    assert search._consume_prefetch(2, examples) == ["speculated"]
    assert search._prefetch is None


def test_consume_prefetch_mismatch_rolls_back_client(small_synthetic_trace):
    setup = build(small_synthetic_trace, pipeline=True)
    search = setup.search
    snapshot = search._capture_generator_state_now()
    advance_client(setup)  # the speculative call that must be undone
    assert search._capture_generator_state_now() != snapshot

    chunk = search._chunk_plan(search.config.candidates_per_round)[0]
    search._prefetch = {
        "round": 2,
        "examples": [("def f() { return 1 }", 1.0)],
        "sources": ["speculated"],
        "snapshot": snapshot,
        "chunk": chunk,
    }
    # Different parents: the prediction missed.
    assert search._consume_prefetch(2, [("def f() { return 2 }", 2.0)]) is None
    assert search._prefetch is None
    assert search._capture_generator_state_now() == snapshot


def test_stale_prefetch_discarded_between_rounds(small_synthetic_trace):
    setup = build(small_synthetic_trace, pipeline=True)
    search = setup.search
    snapshot = search._capture_generator_state_now()
    advance_client(setup)
    search._prefetch = {
        "round": 2,
        "examples": [],
        "sources": [],
        "snapshot": snapshot,
        "chunk": 2,
    }
    search._discard_prefetch_if_stale(2)  # matching round: kept
    assert search._prefetch is not None
    search._discard_prefetch_if_stale(3)  # stale: rolled back and dropped
    assert search._prefetch is None
    assert search._capture_generator_state_now() == snapshot


def test_checkpoint_state_during_prefetch_is_pre_speculation(small_synthetic_trace):
    setup = build(small_synthetic_trace, pipeline=True)
    search = setup.search
    snapshot = search._capture_generator_state_now()
    advance_client(setup)
    search._prefetch = {
        "round": 2,
        "examples": [],
        "sources": [],
        "snapshot": snapshot,
        "chunk": 2,
    }
    # A checkpoint taken while a prefetch is in flight must record the
    # pre-speculation client state: on resume the speculative call replays.
    assert search._capture_generator_state() == snapshot
    search._prefetch = None
    assert search._capture_generator_state() == search._capture_generator_state_now()


def test_pipelined_resume_matches_serial_uninterrupted(small_synthetic_trace, tmp_path):
    kwargs = dict(trace=small_synthetic_trace)
    serial = build(small_synthetic_trace, rounds=4).search.run()

    path = tmp_path / "search.ckpt.json"
    first = build_search(
        "caching", rounds=2, candidates_per_round=6, seed=11,
        checkpoint_path=path, **kwargs,
    )
    first.search.config.pipeline = True
    first.search.run()

    second = build_search(
        "caching", rounds=4, candidates_per_round=6, seed=11,
        checkpoint_path=path, **kwargs,
    )
    second.search.config.pipeline = True
    resumed = second.search.run()

    assert search_result_to_dict(resumed) == search_result_to_dict(serial)
    assert resumed.prompt_tokens == serial.prompt_tokens
    assert resumed.completion_tokens == serial.completion_tokens
