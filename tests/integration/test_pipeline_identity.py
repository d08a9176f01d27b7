"""Acceptance: pipelining and the prompt cache never change ``result.json``.

Generation/evaluation overlap and the on-disk prompt cache are pure
wall-clock mechanisms.  For a fixed seed the search trajectory -- and
therefore ``result.json`` -- must be byte-for-byte identical with
pipelining on or off, and with the prompt cache cold, warm or disabled, in
both shipped domains.  Live scheduling telemetry lands in
``metadata.json["pipeline"]`` (which, like wall time, is allowed to
differ).
"""

import json

import pytest

from repro.core.spec import RunSpec, run

CACHING_SPEC = dict(
    domain="caching",
    name="pipeline-caching",
    domain_kwargs={
        "workloads": [
            {"name": "caching/zipf-hot", "num_requests": 400, "num_objects": 120},
            {"name": "caching/scan-storm", "num_requests": 400, "num_objects": 120},
        ],
        "reducer": "mean",
    },
    search={"rounds": 2, "candidates_per_round": 4},
)

CC_SPEC = dict(
    domain="cc",
    name="pipeline-cc",
    domain_kwargs={"duration_s": 0.3},
    search={"rounds": 2, "candidates_per_round": 4},
)


def result_bytes(base, tmp_path, tag, *, pipeline=False, provider=None, fidelity=None):
    spec_dict = dict(base, fidelity=fidelity)
    if pipeline:
        spec_dict["search"] = {**spec_dict["search"], "pipeline": True}
    if provider is not None:
        spec_dict["llm"] = {"provider": provider}
    outcome = run(RunSpec(**spec_dict), store=tmp_path / tag, eval_store=None)
    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    return (outcome.artifact_dir / "result.json").read_bytes(), metadata


@pytest.mark.parametrize("base", [CACHING_SPEC, CC_SPEC], ids=["caching", "cc"])
def test_result_json_identical_across_scheduling(base, tmp_path):
    cache_dir = str(tmp_path / "promptcache")
    provider = {"name": "synthetic", "batch_size": 2, "prompt_cache": cache_dir}

    serial, serial_meta = result_bytes(base, tmp_path, "serial")
    piped, piped_meta = result_bytes(base, tmp_path, "piped", pipeline=True)
    cold, cold_meta = result_bytes(
        base, tmp_path, "cold", pipeline=True, provider=provider
    )
    warm, warm_meta = result_bytes(
        base, tmp_path, "warm", pipeline=True, provider=provider
    )
    serial_warm, _ = result_bytes(base, tmp_path, "serial-warm", provider=provider)

    assert piped == serial
    assert cold == serial
    assert warm == serial
    assert serial_warm == serial

    # The volatile scheduling telemetry lives in metadata.json only.
    assert serial_meta["pipeline"]["enabled"] is False
    assert piped_meta["pipeline"]["enabled"] is True
    assert piped_meta["pipeline"]["generation_s"] > 0
    assert piped_meta["pipeline"]["evaluation_s"] > 0
    assert "prompt_cache" not in piped_meta["pipeline"]

    cold_cache = cold_meta["pipeline"]["prompt_cache"]
    warm_cache = warm_meta["pipeline"]["prompt_cache"]
    assert cold_cache["hits"] == 0 and cold_cache["misses"] > 0
    # Same seed, same calls: the warm run replays entirely from disk.
    assert warm_cache["misses"] == 0
    assert warm_cache["hits"] == cold_cache["misses"]


def test_metadata_records_the_round_loop_that_ran_not_the_request(tmp_path):
    """A pipeline request under a screening ladder falls back to the serial
    loop (chunking would resize the rungs), and metadata.json says so."""
    ladder = {"rungs": [0.25, 1.0], "mode": "screen"}
    serial, _ = result_bytes(CACHING_SPEC, tmp_path, "ladder", fidelity=ladder)
    asked, asked_meta = result_bytes(
        CACHING_SPEC, tmp_path, "ladder-piped", pipeline=True, fidelity=ladder
    )
    assert asked == serial
    assert asked_meta["pipeline"]["enabled"] is False
    assert asked_meta["pipeline"]["overlap_s"] == 0.0


def test_round_timings_are_zeroed_in_result_json(tmp_path):
    spec_dict = dict(CACHING_SPEC)
    spec_dict["search"] = {**spec_dict["search"], "pipeline": True}
    outcome = run(RunSpec(**spec_dict), store=tmp_path, eval_store=None)
    result = json.loads((outcome.artifact_dir / "result.json").read_text())
    for round_record in result["rounds"]:
        assert round_record["generation_s"] == 0.0
        assert round_record["evaluation_s"] == 0.0
        assert round_record["overlap_s"] == 0.0
    # The live sums made it to metadata instead.
    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    assert metadata["pipeline"]["generation_s"] > 0
