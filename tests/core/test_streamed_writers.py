"""``result.json`` streams its candidates; run files are written atomically.

:func:`~repro.core.artifacts.finalize_run_dir` writes ``result.json`` one
candidate at a time through a temp file renamed into place.  These tests
hold it to the bytes of the whole-result encoding it replaces, to memory
that does not grow with the candidate count, and to leaving no partial
file behind when an encoding fails.  The search checkpoint
(:meth:`~repro.core.archive.SearchCheckpoint.save`) and the stores share
the same temp-file-and-rename writer, :func:`~repro.core.archive.atomic_text`.
"""

import stat
import tracemalloc
from dataclasses import asdict

import pytest

from repro.core.archive import SearchCheckpoint, atomic_text, scored_candidate_to_dict
from repro.core.artifacts import canonical_json, finalize_run_dir, search_result_to_dict
from repro.core.checker import CheckIssue
from repro.core.evaluator import EvaluationResult
from repro.core.results import Candidate, RoundSummary, ScoredCandidate, SearchResult

#: A multi-line program whose text needs escaping (quotes, a non-ASCII
#: character, raw newlines): the splice must survive all of them.
SOURCE = 'def f(now, obj_id) {\n  # "élan" %d\n  return now - obj_id * %d\n}'

CERTIFICATION = {"constant": False, "bounds": {"lo": 2, "hi": 4096}, "candidates": []}


def _scored(index: int) -> ScoredCandidate:
    candidate = Candidate(
        candidate_id=f"r{index // 10}-c{index}",
        source=SOURCE % (index, index),
        round_index=index // 10,
        parent_ids=[f"seed-{index % 3}"],
        origin="generated" if index else "seed",
    )
    if index % 7 == 3:  # failed the check: no canonical text, no evaluation
        issue = CheckIssue(code="unknown-name", message='name "x"\nis not defined')
        return ScoredCandidate(candidate, check_ok=False, check_issues=[issue])
    evaluation = EvaluationResult(
        score=float("-inf") if index % 5 == 4 else -0.25 - index / 1000,
        valid=index % 5 != 4,
        error="runtime error: division by zero" if index % 5 == 4 else None,
        wall_time_s=0.125,
        details={"miss_ratio": 0.25 + index / 1e4, "hits": float(index)},
        scenario_scores={"w89": -0.5, "w12": float("nan")} if index % 2 else {},
        fidelity=1.0 if index % 6 else 0.3,
    )
    scored = ScoredCandidate(candidate, check_ok=True, evaluation=evaluation)
    scored.canonical_source = candidate.source
    return scored


def _result(count: int) -> SearchResult:
    candidates = [_scored(index) for index in range(count)]
    rounds = [
        RoundSummary(
            round_index=index,
            generated=10,
            best_score=-0.3,
            scenario_best={"w89": float("-inf")},
            failure_codes={"unknown-name": 2},
            evaluation_s=1.5,
            store_hits=3,
        )
        for index in range(1, 4)
    ]
    valid = [scored for scored in candidates if scored.valid]
    return SearchResult(
        best=valid[0] if valid else None,
        candidates=candidates,
        rounds=rounds,
        # A top-level string that spells the slot the writer splices into.
        context_name='caching/w89 "candidates": []',
        template_name="cache-priority",
        total_candidates=count,
        wall_time_s=3.25,
        prompt_tokens=1200,
        estimated_cost_usd=0.01,
        store_lookups=5,
    )


def _finalize(path, result, certification=None):
    path.mkdir(exist_ok=True)
    return finalize_run_dir(
        path, {}, result, config_hash="0" * 64, seed=0, certification=certification
    )


@pytest.mark.parametrize("count", [0, 1, 25])
@pytest.mark.parametrize("certified", [False, True])
def test_result_json_is_the_canonical_encoding_of_the_whole_result(tmp_path, count, certified):
    result = _result(count)
    certification = CERTIFICATION if certified else None
    _finalize(tmp_path, result, certification)
    expected = search_result_to_dict(result)
    if certified:
        expected["certification"] = certification
    assert (tmp_path / "result.json").read_text(encoding="utf-8") == canonical_json(expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metadata.json",
        "result.json",
        "rounds.jsonl",
    ]


def _checkpoint(count: int) -> SearchCheckpoint:
    population = [_scored(index) for index in range(count)]
    return SearchCheckpoint(
        template_name="cache-priority",
        context_name="caching/w89",
        context_parameters=[["cache_fraction", "0.1"]],
        completed_rounds=3,
        counter=count + 2,
        population=population,
        rounds=_result(0).rounds,
        memo={
            f"key-{scored.candidate.candidate_id}": scored.evaluation
            for scored in population
            if scored.evaluation is not None
        },
        generator_state={"rng": [3, [1, 2, 3], None], "usage": {"prompt_tokens": 10}},
        seed_stats={"lookups": 2, "hits": 0},
    )


def test_the_candidate_record_is_what_asdict_gives():
    for scored in _result(25).candidates:
        data = scored_candidate_to_dict(scored)["candidate"]
        assert list(data.items()) == list(asdict(scored.candidate).items())


def test_a_non_finite_value_raises_and_leaves_no_partial_result_json(tmp_path):
    result = _result(25)
    # Scores are encoded as strings; a value that is not must stay finite.
    [*_rest, last] = [scored for scored in result.candidates if scored.evaluation]
    last.evaluation.fidelity = float("nan")
    with pytest.raises(ValueError):
        canonical_json(search_result_to_dict(result))
    with pytest.raises(ValueError):
        _finalize(tmp_path, result)
    assert list(tmp_path.iterdir()) == []
    # A certificate with a non-finite bound fails the same way.
    with pytest.raises(ValueError):
        _finalize(tmp_path, _result(3), {"bounds": {"lo": float("-inf")}})
    assert list(tmp_path.iterdir()) == []


def test_a_non_finite_value_raises_and_keeps_the_previous_checkpoint(tmp_path):
    path = tmp_path / "checkpoint.json"
    _checkpoint(3).save(path)
    before = path.read_bytes()
    checkpoint = _checkpoint(25)
    next(reversed(checkpoint.memo.values())).wall_time_s = float("inf")
    with pytest.raises(ValueError):
        checkpoint.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
    assert len(SearchCheckpoint.load(path).population) == 3


def test_two_writers_of_one_path_do_not_share_a_temp_file(tmp_path):
    path = tmp_path / "result.json"
    with atomic_text(path) as first:
        first.write("first")
        with atomic_text(path) as second:
            second.write("second")
        assert path.read_text(encoding="utf-8") == "second"
    assert path.read_text(encoding="utf-8") == "first"
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


def test_a_streamed_file_gets_the_mode_a_plain_open_gives(tmp_path):
    _finalize(tmp_path / "run", _result(3))
    plain = tmp_path / "plain.json"
    plain.write_text("{}", encoding="utf-8")
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE((tmp_path / "run" / "result.json").stat().st_mode) == mode


def _peak_bytes_while_writing(tmp_path, count: int) -> int:
    result = _result(count)  # built before tracing: only the write is measured
    tracemalloc.start()
    try:
        _finalize(tmp_path / str(count), result, CERTIFICATION)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_result_json_holds_one_candidate_not_the_whole_file(tmp_path):
    """Peak memory while writing 2 000 candidates is that of writing 200.

    A whole-result encoding peaks at the dict tree plus the encoder's chunk
    list plus the string -- megabytes more for the larger run.
    """
    small = _peak_bytes_while_writing(tmp_path, 200)
    large = _peak_bytes_while_writing(tmp_path, 2000)
    assert large - small <= 256 * 1024, (small, large)
