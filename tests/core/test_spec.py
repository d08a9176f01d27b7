"""RunSpec: JSON round-trip, config layering, run()/run_sweep() semantics."""

import json
from pathlib import Path

import pytest

from repro.core.domain import build_search
from repro.core.spec import (
    RunSpec,
    build_trace,
    resolve_domain_kwargs,
    run,
    run_sweep,
)

TRACE_REF = {"dataset": "cloudphysics", "index": 89, "num_requests": 800}


def tiny_spec(**kwargs) -> RunSpec:
    base = dict(
        domain="caching",
        name="tiny",
        domain_kwargs={"trace": dict(TRACE_REF)},
        search={"rounds": 1, "candidates_per_round": 3},
    )
    base.update(kwargs)
    return RunSpec(**base)


# -- serialization ------------------------------------------------------------------


def test_roundtrip_simple():
    spec = tiny_spec()
    assert RunSpec.from_dict(spec.to_dict()) == spec
    assert RunSpec.from_json(spec.to_json()) == spec


def test_roundtrip_sweep_and_overrides():
    spec = tiny_spec(
        seeds=[3, 1, 4],
        engine={"max_workers": 2, "executor": "thread"},
        llm={"syntax_error_rate": 0.5},
        checkpoint=True,
        checkpoint_every=2,
    )
    restored = RunSpec.from_dict(json.loads(spec.to_json()))
    assert restored == spec
    assert restored.seed_list == [3, 1, 4]
    assert restored.is_sweep


def test_from_file(tmp_path):
    spec = tiny_spec()
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert RunSpec.from_file(path) == spec


def test_unknown_override_keys_rejected():
    with pytest.raises(ValueError, match="search override"):
        tiny_spec(search={"rounds": 1, "round": 2})
    with pytest.raises(ValueError, match="engine override"):
        tiny_spec(engine={"workers": 4})
    with pytest.raises(ValueError, match="llm override"):
        tiny_spec(llm={"hallucinate": True})


@pytest.mark.parametrize(
    "key,replacement",
    [
        ("dedup", "always on since PR 24"),
        ("memoize", "always on since PR 24"),
        ("pipeline", "the pipeline scheduler was removed; every round generates, then evaluates"),
        ("queue_dir", "the distributed executor was removed; use `executor: process`"),
        ("worker_count", "the distributed executor was removed; use `executor: process`"),
        ("lease_ttl_s", "the distributed executor was removed; use `executor: process`"),
    ],
)
def test_removed_engine_options_are_unknown_keys_that_name_their_replacement(key, replacement):
    with pytest.raises(ValueError, match=f"engine override.*'{key}': {replacement}"):
        tiny_spec(engine={key: True})


@pytest.mark.parametrize(
    "overrides,block,key",
    [
        ({"search": {"rounds": 1, "pipeline": True}}, "search", "pipeline"),
        ({"llm": {"provider": {"name": "synthetic", "batch_size": 4}}}, "provider", "batch_size"),
    ],
    ids=["search.pipeline", "provider.batch_size"],
)
def test_pipeline_scheduler_keys_are_removed_keys(overrides, block, key):
    with pytest.raises(
        ValueError, match=f"{block} override.*'{key}': the pipeline scheduler was removed"
    ):
        tiny_spec(**overrides)


def test_unknown_top_level_field_rejected():
    data = tiny_spec().to_dict()
    data["rounds"] = 5
    with pytest.raises(ValueError, match="unknown RunSpec field"):
        RunSpec.from_dict(data)


def test_unsupported_version_rejected():
    data = tiny_spec().to_dict()
    data["version"] = 99
    with pytest.raises(ValueError, match="version"):
        RunSpec.from_dict(data)


def test_name_must_be_path_safe():
    with pytest.raises(ValueError, match="directory name"):
        tiny_spec(name="no/slashes")


@pytest.mark.parametrize(
    "spec_name,recorded",
    [
        ("smoke_caching", "b44885c72754c08e4c35627e75c449ee053aa1efb7a54073b09211bf85beb0d2"),
        ("smoke_matrix", "5643f2edb49783163148d677bc3d11842ea06843982597b936f520992dd0669a"),
        ("matrix_cc", "1c21236b714c70145d9b11fc0205bf6f3a4fb202abc21eb5c7a01e82be81a967"),
    ],
)
def test_config_hash_of_the_golden_specs_is_the_one_recorded_at_f91d7f8(spec_name, recorded):
    """Removing engine options must not rename any run that never named them."""
    path = Path(__file__).resolve().parents[2] / "examples" / "specs" / f"{spec_name}.json"
    assert RunSpec.from_file(path).config_hash() == recorded


def test_config_hash_stable_and_sensitive():
    assert tiny_spec().config_hash() == tiny_spec().config_hash()
    assert tiny_spec().config_hash() != tiny_spec(seed=1).config_hash()
    # Key order in override dicts must not matter.
    a = tiny_spec(engine={"max_workers": 2, "executor": "thread"})
    b = tiny_spec(engine={"executor": "thread", "max_workers": 2})
    assert a.config_hash() == b.config_hash()


# -- trace references ---------------------------------------------------------------


def test_trace_reference_resolution():
    resolved = resolve_domain_kwargs({"trace": dict(TRACE_REF), "cache_fraction": 0.1})
    assert len(resolved["trace"]) == 800
    assert resolved["cache_fraction"] == 0.1


def test_trace_reference_errors():
    with pytest.raises(ValueError, match="dataset"):
        build_trace({"index": 1})
    with pytest.raises(ValueError, match="unknown trace dataset"):
        build_trace({"dataset": "nope"})
    with pytest.raises(ValueError, match="unknown trace-reference key"):
        build_trace({"dataset": "msr", "indexx": 3})


def test_synthetic_trace_reference():
    trace = build_trace(
        {"dataset": "synthetic", "name": "t", "num_requests": 300, "num_objects": 40, "seed": 5}
    )
    assert len(trace) == 300


# -- run() --------------------------------------------------------------------------


def test_run_matches_build_search():
    """run(spec) is a pure layer over build_search: same trajectory, same winner."""
    spec = tiny_spec()
    outcome = run(spec)
    direct = build_search(
        "caching",
        rounds=1,
        candidates_per_round=3,
        seed=0,
        trace=build_trace(TRACE_REF),
    ).search.run()
    assert outcome.result.best_source() == direct.best_source()
    assert outcome.result.best.score == direct.best.score
    assert outcome.artifact_dir is None
    assert outcome.setup.engine is not None
    assert "trace" in outcome.resolved_domain_kwargs


def test_run_rejects_sweep_spec():
    with pytest.raises(ValueError, match="run_sweep"):
        run(tiny_spec(seeds=[0, 1]))
    # A declared single-seed list is still a sweep declaration: it must not
    # be silently ignored in favour of the unrelated `seed` field.
    with pytest.raises(ValueError, match="run_sweep"):
        run(tiny_spec(seed=0, seeds=[7]))


def test_duplicate_seeds_rejected():
    with pytest.raises(ValueError, match="duplicates"):
        tiny_spec(seeds=[0, 1, 0])


def test_build_from_spec_rejects_sweep_without_seed():
    from repro.core.spec import build_from_spec

    with pytest.raises(ValueError, match="seed sweep"):
        build_from_spec(tiny_spec(seeds=[5, 6]))
    # Pinning one seed of the sweep is fine.
    setup = build_from_spec(tiny_spec(seeds=[5, 6]), seed=5)
    assert setup.search is not None


def test_run_sweep_single_declared_seed(tmp_path):
    sweep = run_sweep(tiny_spec(seed=0, seeds=[7]), store=tmp_path)
    assert [o.seed for o in sweep.outcomes] == [7]
    assert (sweep.artifact_dir / "seed-7" / "result.json").exists()


def test_run_checkpoint_requires_store():
    with pytest.raises(ValueError, match="artifact"):
        run(tiny_spec(checkpoint=True))


def test_run_seed_override():
    outcome = run(tiny_spec(), seed=7)
    assert outcome.seed == 7
    assert outcome.spec.seed == 0  # the submitted spec is not mutated


# -- run_sweep() --------------------------------------------------------------------


def test_run_sweep_outcomes_match_individual_runs(tmp_path):
    spec = tiny_spec(seeds=[0, 2])
    sweep = run_sweep(spec, store=tmp_path, max_parallel=2)
    assert [o.seed for o in sweep.outcomes] == [0, 2]
    for outcome in sweep.outcomes:
        single = run(tiny_spec(seed=outcome.seed))
        assert outcome.result.best_source() == single.result.best_source()
    assert sweep.artifact_dir is not None
    assert (sweep.artifact_dir / "sweep.json").exists()
    index = json.loads((sweep.artifact_dir / "sweep.json").read_text())
    assert [r["seed"] for r in index["runs"]] == [0, 2]
    assert index["best_seed"] in (0, 2)
    best = sweep.best
    assert best is not None
    assert best.result.best.score == max(
        o.result.best.score for o in sweep.outcomes
    )


# -- eval_config_hash ---------------------------------------------------------------


def test_eval_config_hash_ignores_search_shape_and_seed():
    """Only the domain + domain_kwargs determine what a program scores."""
    base = tiny_spec()
    assert base.eval_config_hash() == tiny_spec(seed=7).eval_config_hash()
    assert base.eval_config_hash() == tiny_spec(
        search={"rounds": 5, "candidates_per_round": 9}, name="other"
    ).eval_config_hash()
    assert base.eval_config_hash() == tiny_spec(seeds=[1, 2]).eval_config_hash()
    changed = tiny_spec(
        domain_kwargs={"trace": dict(TRACE_REF), "cache_fraction": 0.05}
    )
    assert base.eval_config_hash() != changed.eval_config_hash()
    assert base.eval_config_hash() != tiny_spec(domain="cc", domain_kwargs={}).eval_config_hash()
