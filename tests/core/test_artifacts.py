"""Artifact store: layout, serialization round-trip, byte-identical reruns."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.archive import SearchCheckpoint
from repro.core.artifacts import (
    ARTIFACT_VERSION,
    ArtifactStore,
    RunArtifact,
    prepare_run_dir,
    search_result_from_dict,
    search_result_to_dict,
)
from repro.core.results import BUDGET_FIELDS, RoundSummary
from repro.core.spec import RunSpec, run
from repro.core.store import STALE_TMP_AGE_S

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "tests" / "golden"
TRACE_REF = {"dataset": "cloudphysics", "index": 89, "num_requests": 800}


def tiny_spec(**kwargs) -> RunSpec:
    base = dict(
        domain="caching",
        name="art-tiny",
        domain_kwargs={"trace": dict(TRACE_REF)},
        search={"rounds": 2, "candidates_per_round": 3},
    )
    base.update(kwargs)
    return RunSpec(**base)


# -- layout -------------------------------------------------------------------------


def test_run_directory_layout(tmp_path):
    outcome = run(tiny_spec(checkpoint=True), store=tmp_path)
    run_dir = outcome.artifact_dir
    assert run_dir is not None and run_dir.parent == tmp_path
    for name in ("spec.json", "result.json", "rounds.jsonl", "events.jsonl",
                 "metadata.json", "checkpoint.json"):
        assert (run_dir / name).exists(), name

    spec_data = json.loads((run_dir / "spec.json").read_text())
    assert RunSpec.from_dict(spec_data) == tiny_spec(checkpoint=True)

    rounds = [json.loads(line) for line in (run_dir / "rounds.jsonl").read_text().splitlines()]
    assert [r["round_index"] for r in rounds] == [1, 2]

    events = [json.loads(line) for line in (run_dir / "events.jsonl").read_text().splitlines()]
    assert events[0]["event"] == "run_started"
    assert events[-1]["event"] == "run_finished"


def test_a_rerun_removes_orphaned_temp_files_once_stale(tmp_path):
    """A writer killed between its temp file and the rename leaves
    ``<name>.<pid>-<hex>.tmp``; the next run into the directory removes it
    once it is older than the store's stale age, and keeps a younger one,
    which may be a write in flight."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    orphan = run_dir / "result.json.4242-0123abcd.tmp"
    in_flight = run_dir / "checkpoint.json.4243-89abcdef.tmp"
    for path in (orphan, in_flight):
        path.write_text("{")
    aged = time.time() - STALE_TMP_AGE_S - 60
    os.utime(orphan, (aged, aged))
    prepare_run_dir(run_dir, {"name": "x"})
    assert not orphan.exists()
    assert in_flight.exists()


def test_metadata_records_reproducibility_info(tmp_path):
    from repro import __version__

    spec = tiny_spec()
    outcome = run(spec, store=tmp_path)
    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    assert metadata["artifact_version"] == ARTIFACT_VERSION
    assert metadata["config_hash"] == spec.config_hash()
    assert metadata["seed"] == 0
    assert metadata["seeds"] == [0]
    assert metadata["repro_version"] == __version__
    assert metadata["kind"] == "search"


def test_run_dir_name_is_deterministic(tmp_path):
    spec = tiny_spec()
    first = run(spec, store=tmp_path).artifact_dir
    second = run(spec, store=tmp_path).artifact_dir
    assert first == second
    store = ArtifactStore(tmp_path)
    assert store.runs() == [first]


# -- SearchResult serialization -----------------------------------------------------


def test_search_result_dict_roundtrip():
    result = run(tiny_spec()).result
    data = search_result_to_dict(result)
    restored = search_result_from_dict(json.loads(json.dumps(data)))
    assert restored.best is not None
    assert restored.best.candidate.candidate_id == result.best.candidate.candidate_id
    assert restored.best.score == result.best.score
    assert restored.best_source() == result.best_source()
    assert restored.total_candidates == result.total_candidates
    assert len(restored.rounds) == len(result.rounds)
    assert restored.eval_cache_hits == result.eval_cache_hits
    assert restored.prompt_tokens == result.prompt_tokens
    # Volatile timing is stripped by default...
    assert restored.wall_time_s == 0.0
    # ...but preserved on request.
    timed = search_result_from_dict(search_result_to_dict(result, include_timing=True))
    assert timed.wall_time_s == result.wall_time_s


# -- byte-identical reruns (the reproducibility contract) ---------------------------


def test_identical_spec_produces_byte_identical_result_json(tmp_path):
    spec = tiny_spec()
    first = run(spec, store=tmp_path / "a").artifact_dir / "result.json"
    second = run(spec, store=tmp_path / "b").artifact_dir / "result.json"
    assert first.read_bytes() == second.read_bytes()
    # Overwriting rerun in the same store is also byte-identical.
    third = run(spec, store=tmp_path / "a").artifact_dir / "result.json"
    assert third.read_bytes() == first.read_bytes()


def test_sweep_seed_runs_are_byte_identical_to_single_runs(tmp_path):
    from repro.core.spec import run_sweep

    sweep = run_sweep(tiny_spec(seeds=[0, 1]), store=tmp_path / "sweep")
    for outcome in sweep.outcomes:
        single = run(tiny_spec(seed=outcome.seed), store=tmp_path / "single")
        assert (
            (outcome.artifact_dir / "result.json").read_bytes()
            == (single.artifact_dir / "result.json").read_bytes()
        )


# -- RunArtifact --------------------------------------------------------------------


def test_run_artifact_reads_back(tmp_path):
    outcome = run(tiny_spec(), store=tmp_path)
    artifact = RunArtifact(outcome.artifact_dir)
    assert artifact.kind == "search"
    assert artifact.spec["domain"] == "caching"
    result = artifact.search_result()
    assert result.best_source() == outcome.result.best_source()
    assert len(artifact.rounds()) == 2
    assert artifact.events()[0]["event"] == "run_started"
    assert artifact.metadata["config_hash"] == tiny_spec().config_hash()


def test_run_artifact_rejects_non_run_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a run directory"):
        RunArtifact(tmp_path)


def test_run_artifact_rejects_future_version(tmp_path):
    outcome = run(tiny_spec(), store=tmp_path)
    meta_path = outcome.artifact_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["artifact_version"] = ARTIFACT_VERSION + 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="artifact format"):
        RunArtifact(outcome.artifact_dir).metadata


# -- the budget record --------------------------------------------------------------


def test_every_budget_counter_is_zero_on_disk_and_live_in_metadata(tmp_path):
    """The record's fields are what the writer zeroes: a run in which all of
    them are non-zero (warm store, shadow ladder, static screen) still writes
    zeros to result.json / rounds.jsonl, and the live values to metadata."""
    search = {"rounds": 2, "candidates_per_round": 8}
    run(tiny_spec(search=search), store=tmp_path / "fill", eval_store=tmp_path / "evalstore")
    outcome = run(
        tiny_spec(
            search=search,
            engine={"static_screen": True},
            fidelity={"rungs": [0.25, 1.0], "mode": "shadow"},
        ),
        store=tmp_path / "warm",
        eval_store=tmp_path / "evalstore",
    )
    live = outcome.result.budget()
    assert tuple(live) == BUDGET_FIELDS and all(count > 0 for count in live.values()), live

    result = json.loads((outcome.artifact_dir / "result.json").read_text())
    lines = (outcome.artifact_dir / "rounds.jsonl").read_text().splitlines()
    for record in (result, *result["rounds"], *map(json.loads, lines)):
        assert {name: record[name] for name in BUDGET_FIELDS} == dict.fromkeys(BUDGET_FIELDS, 0)

    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    assert metadata["eval_store"]["lookups"] == live["store_lookups"]
    assert metadata["eval_store"]["hits"] == live["store_hits"]
    for name in ("rung_evaluations", "rung_promotions", "rung_eliminations"):
        assert metadata["fidelity"][name] == live[name]
    assert metadata["static_screen"]["checks"] == live["screen_checks"]
    assert metadata["static_screen"]["screened"] == live["screened"]


def test_files_written_at_f91d7f8_still_load_and_resume():
    """``rounds_f91d7f8.jsonl`` / ``checkpoint_f91d7f8.json`` were written by
    the parent of the PR that moved the counters into one record (round 1 of
    ``smoke_caching`` with a cold store): field for field they still parse.
    The conformance matrix's ``resume_f91d7f8`` rows resume the checkpoint
    to the golden ``result.json``."""
    line = json.loads((GOLDEN / "rounds_f91d7f8.jsonl").read_text().splitlines()[0])
    summary = RoundSummary(**line)
    assert (summary.round_index, summary.unique_evaluations) == (1, 4)

    checkpoint = SearchCheckpoint.load(GOLDEN / "checkpoint_f91d7f8.json")
    assert checkpoint.seed_stats["store_lookups"] == 2
    assert checkpoint.rounds[0].store_lookups == 4


def test_round_timings_are_zeroed_in_result_json(tmp_path):
    outcome = run(tiny_spec(), store=tmp_path, eval_store=None)
    result = json.loads((outcome.artifact_dir / "result.json").read_text())
    for round_record in result["rounds"]:
        assert round_record["generation_s"] == 0.0
        assert round_record["evaluation_s"] == 0.0
        assert round_record["overlap_s"] == 0.0
    # The live sums made it to metadata instead.
    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    assert sorted(metadata["pipeline"]) == ["evaluation_s", "generation_s"]
    assert metadata["pipeline"]["generation_s"] > 0


def test_pipelined_checkpoint_written_at_0441c95_resumes_to_the_golden_bytes():
    """``checkpoint_pipelined_0441c95.json`` was written by ``smoke_caching``
    with ``search.pipeline: true`` on the last commit that had the pipelined
    scheduler, after round 1.  Its speculative prefetch of round 2 was still
    pending then, so the file records the client state from before the
    speculation.  It still loads; the one round loop, on the spec without
    the key, resumes it to the golden ``result.json`` in the conformance
    matrix's ``resume_0441c95`` rows."""
    checkpoint = SearchCheckpoint.load(GOLDEN / "checkpoint_pipelined_0441c95.json")
    assert checkpoint.completed_rounds == 1
    assert checkpoint.rounds[0].overlap_s > 0
