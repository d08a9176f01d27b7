"""The evaluation store across runs: sweeps and resumes share it, a warm
sweep evaluates nothing, and ``metadata.json`` records live statistics.

That ``result.json`` is byte-identical whatever the store's state and the
executor is asserted by the conformance matrix
(``tests/integration/test_golden_results.py``).
"""

import json

from repro.core.spec import RunSpec, run

CACHING_SPEC = dict(
    domain="caching",
    name="det-caching",
    domain_kwargs={
        "workloads": [
            {"name": "caching/zipf-hot", "num_requests": 400, "num_objects": 120},
            {"name": "caching/scan-storm", "num_requests": 400, "num_objects": 120},
        ],
        "reducer": "mean",
    },
    search={"rounds": 1, "candidates_per_round": 3},
)


def test_sweep_seeds_share_the_store(tmp_path):
    """Seeds of one sweep warm-start from each other's evaluations."""
    from repro.core.spec import run_sweep

    spec = RunSpec(**CACHING_SPEC, seeds=[0, 1])
    sweep = run_sweep(spec, store=tmp_path, max_parallel=1)
    hits = sum(o.setup.engine.totals.store_hits for o in sweep.outcomes)
    assert hits > 0  # the seeds share candidates (same seed programs at least)
    # Re-running the whole sweep over the populated store is all disk hits.
    again = run_sweep(spec, store=tmp_path, max_parallel=1)
    for first, second in zip(sweep.outcomes, again.outcomes):
        assert second.setup.engine.totals.store_hits == second.setup.engine.totals.store_lookups
        assert (
            (first.artifact_dir / "result.json").read_bytes()
            == (second.artifact_dir / "result.json").read_bytes()
        )
    # Resuming one seed directory by hand ("auto" store) must find the store
    # the sweep populated at the artifact root, not plant one in the sweep.
    seed_dir = sweep.outcomes[0].artifact_dir
    redone = run(spec.for_seed(0), run_dir=seed_dir)
    assert redone.setup.engine.totals.store_hits == redone.setup.engine.totals.store_lookups > 0
    assert not (seed_dir.parent / "evalstore").exists()


def test_resume_warm_starts_from_the_store(tmp_path):
    """A re-run/resume under the same artifact root reuses stored evaluations.

    The harshest resume case: the run crashed before its first checkpoint
    write, so the engine memo is gone -- but every evaluation the lost
    attempt performed is still in the store, and the retry pays only for
    generation and checking.
    """
    spec = RunSpec(**CACHING_SPEC, checkpoint=True)
    first = run(spec, store=tmp_path)
    assert first.setup.engine.store_writes > 0
    first_result = (first.artifact_dir / "result.json").read_bytes()
    (first.artifact_dir / "checkpoint.json").unlink()  # simulate the crash
    resumed = run(spec, run_dir=first.artifact_dir)
    assert resumed.setup.engine.totals.store_hits == resumed.setup.engine.totals.store_lookups
    assert resumed.setup.engine.totals.store_hits > 0
    assert first_result == (resumed.artifact_dir / "result.json").read_bytes()


def test_metadata_records_live_store_statistics(tmp_path):
    spec = RunSpec(**CACHING_SPEC)
    cold = run(spec, store=tmp_path)
    warm = run(spec, store=tmp_path)
    cold_meta = json.loads((cold.artifact_dir / "metadata.json").read_text())
    warm_meta = json.loads((warm.artifact_dir / "metadata.json").read_text())
    # Same directory (identical spec): the warm rerun overwrote the metadata.
    assert cold.artifact_dir == warm.artifact_dir
    record = warm_meta["eval_store"]
    assert record["hits"] == record["lookups"] > 0
    assert record["eval_config_hash"] == spec.eval_config_hash()
    assert cold_meta["artifact_version"] == warm_meta["artifact_version"]
    # result.json itself carries only zeroed (spec-determined) counters.
    result = json.loads((warm.artifact_dir / "result.json").read_text())
    assert result["store_hits"] == 0 and result["store_lookups"] == 0
    for round_data in result["rounds"]:
        assert round_data["store_hits"] == 0


def test_a_warm_sweep_evaluates_nothing(tmp_path, evaluated_fidelities):
    """A sweep re-run over the store a cold sweep populated regenerates and
    re-checks every candidate but hands no unit to an executor."""
    from repro.core.spec import run_sweep

    spec = RunSpec(**CACHING_SPEC, seeds=[0, 1])
    cold = run_sweep(spec, store=tmp_path / "cold", eval_store=tmp_path / "store", max_parallel=1)
    assert evaluated_fidelities
    del evaluated_fidelities[:]
    warm = run_sweep(spec, store=tmp_path / "warm", eval_store=tmp_path / "store", max_parallel=1)
    assert evaluated_fidelities == []
    lookups = sum(o.setup.engine.totals.store_lookups for o in warm.outcomes)
    assert lookups > 0
    assert sum(o.setup.engine.totals.store_hits for o in warm.outcomes) == lookups
    for first, second in zip(cold.outcomes, warm.outcomes):
        assert (
            (first.artifact_dir / "result.json").read_bytes()
            == (second.artifact_dir / "result.json").read_bytes()
        )
