"""CLI error paths, the removed spec flags and ``--set fidelity=...``.

Every user mistake must exit 2 with a one-line ``error:`` message on stderr
-- never a traceback -- and ``repro store gc`` must handle degenerate stores.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_SPEC = REPO_ROOT / "examples" / "specs" / "smoke_caching.json"
REMOVED_DISTRIBUTED = "the distributed executor was removed; use `executor: process`"
REMOVED_PIPELINE = "the pipeline scheduler was removed; every round generates, then evaluates"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, data) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# -- bad specs ----------------------------------------------------------------------


def test_run_malformed_spec_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"domain": "caching",', encoding="utf-8")
    code, _out, err = run_cli(capsys, "run", str(path), "--no-artifacts")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_run_spec_with_unknown_workload_name_exits_2(capsys, tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "domain": "caching",
            "name": "bad-workload",
            "domain_kwargs": {"workloads": ["caching/no-such-trace"]},
            "search": {"rounds": 1, "candidates_per_round": 2},
        },
    )
    code, _out, err = run_cli(capsys, "run", spec, "--no-artifacts", "--quiet")
    assert code == 2
    assert "unknown workload 'caching/no-such-trace'" in err
    assert "available:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "workload,field,value",
    [
        ("single-flow", "rate_bps", 0),
        ("single-flow", "rate_bps", -1),
        ("single-flow", "one_way_delay_us", -5),
        ("single-flow", "one_way_delay_us", 10.5),
        ("single-flow", "queue_bytes", -1),
        ("lossy-link", "loss_rate", 1.0),
        ("multi-flow", "flow_stagger_s", -0.5),
        ("bursty-cross", "cross_traffic", [{"window_high": 0}]),
        ("bursty-cross", "cross_traffic", [{"period_s": 0}]),
        ("bursty-cross", "cross_traffic", [{"duty": 0}]),
    ],
)
def test_run_spec_with_a_malformed_netsim_topology_exits_2(
    capsys, tmp_path, workload, field, value
):
    """Rejected once, when the spec is loaded, not charged to every candidate."""
    spec = write_spec(
        tmp_path,
        {
            "domain": "cc",
            "name": "bad-link",
            "domain_kwargs": {"workloads": [{"name": f"cc/{workload}", field: value}]},
            "search": {"rounds": 1, "candidates_per_round": 2},
            "engine": {"max_workers": 1},
        },
    )
    code, out, err = run_cli(capsys, "run", spec, "--no-artifacts", "--quiet")
    assert code == 2
    named = list(value[0])[0] if field == "cross_traffic" else field
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err and "valid" not in out


def test_run_spec_with_a_link_that_serialises_in_zero_us_exits_2(capsys, tmp_path):
    """100 Gb/s x the default 1448 B mss rounds to a 0 us packet: an
    infinitely fast link."""
    spec = write_spec(
        tmp_path,
        {
            "domain": "cc",
            "name": "instant-link",
            "domain_kwargs": {
                "workloads": [{"name": "cc/single-flow", "rate_bps": 10**11, "duration_s": 0.2}]
            },
            "search": {"rounds": 1, "candidates_per_round": 2},
            "engine": {"max_workers": 1},
        },
    )
    code, out, err = run_cli(capsys, "run", spec, "--no-artifacts", "--quiet")
    assert code == 2
    assert err.startswith("error:") and "rate_bps" in err and "mss" in err
    assert "Traceback" not in err and "valid" not in out


def test_run_spec_with_unknown_domain_exits_2(capsys, tmp_path):
    spec = write_spec(
        tmp_path, {"domain": "quantum", "search": {"rounds": 1}}
    )
    code, _out, err = run_cli(capsys, "run", spec, "--no-artifacts", "--quiet")
    assert code == 2
    assert "unknown search domain" in err


def test_workloads_show_unknown_name_exits_2(capsys):
    code, _out, err = run_cli(capsys, "workloads", "show", "caching/nope")
    assert code == 2
    assert "unknown workload" in err


# -- engine overrides ---------------------------------------------------------------


def test_run_unknown_executor_exits_2_listing_names(capsys):
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--set", "engine.executor=quantum"
    )
    assert code == 2
    assert "unknown executor 'quantum'" in err
    for name in ("serial", "thread", "process"):
        assert name in err
    assert "async" not in err and "distributed" not in err
    assert "Traceback" not in err
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--set", "engine.executor=distributed"
    )
    assert code == 2
    assert "unknown executor 'distributed'" in err


@pytest.mark.parametrize(
    "key,replacement",
    [
        ("dedup", "always on since PR 24"),
        ("memoize", "always on since PR 24"),
        ("pipeline", REMOVED_PIPELINE),
        ("queue_dir", REMOVED_DISTRIBUTED),
        ("worker_count", REMOVED_DISTRIBUTED),
        ("lease_ttl_s", REMOVED_DISTRIBUTED),
    ],
)
def test_run_spec_naming_a_removed_engine_option_exits_2(capsys, tmp_path, key, replacement):
    data = json.loads(SMOKE_SPEC.read_text(encoding="utf-8"))
    data.update(engine={key: True}, checkpoint=False)  # nothing else can exit 2
    code, _out, err = run_cli(capsys, "run", write_spec(tmp_path, data), "--no-artifacts", "--quiet")
    assert code == 2
    assert f"unknown engine override(s) ['{key}']" in err
    assert f"'{key}': {replacement}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block,key",
    [("search", "pipeline"), ("provider", "batch_size")],
)
def test_run_spec_naming_a_pipeline_scheduler_key_exits_2(capsys, tmp_path, block, key):
    data = json.loads(SMOKE_SPEC.read_text(encoding="utf-8"))
    data["checkpoint"] = False
    if block == "search":
        data["search"] = {**data["search"], key: True}
    else:
        data["llm"] = {"provider": {"name": "synthetic", key: 2}}
    spec = write_spec(tmp_path, data)
    code, _out, err = run_cli(capsys, "run", spec, "--no-artifacts", "--quiet")
    assert code == 2
    assert f"unknown {block} override(s) ['{key}']" in err
    assert f"'{key}': {REMOVED_PIPELINE}" in err
    assert "Traceback" not in err


#: Each removed spec flag: sample arguments, and the hint its error must give.
REMOVED_FLAGS = {
    "--executor": (["thread"], "use --set engine.executor=NAME"),
    "--max-workers": (["1"], "use --set engine.max_workers=N"),
    "--backend": (["interpreter"], "use --set engine.dsl_backend=NAME"),
    "--fidelity": (["0.1,1.0"], "use --set 'fidelity=[0.1, 0.3, 1.0]'"),
    "--static-screen": ([], "use --set engine.static_screen=true"),
    "--provider": (["synthetic"], "use --set llm.provider=NAME"),
    "--seeds": (["0", "1"], "use --set 'seeds=[0, 1, 2]'"),
    "--pipeline": ([], "every round generates, then evaluates (the pipeline scheduler is gone)"),
}


@pytest.mark.parametrize(
    "command,flag",
    [
        # The --pipeline cases keep their original [run] / [sweep] ids.
        pytest.param(command, flag, id=command if flag == "--pipeline" else command + flag)
        for command in ("run", "sweep")
        for flag in REMOVED_FLAGS
    ],
)
def test_pipeline_flag_is_gone_and_exits_2(capsys, tmp_path, command, flag):
    args, hint = REMOVED_FLAGS[flag]
    code, _out, err = run_cli(
        capsys, command, str(SMOKE_SPEC), "--no-artifacts", "--quiet", flag, *args
    )
    assert code == 2
    assert f"error: {flag} was removed; {hint}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block,override,message",
    [
        ("search", {"rounds": "3"}, "search.rounds must be an integer, got str '3'"),
        ("engine", {"max_workers": "2"}, "engine.max_workers must be an integer, got str '2'"),
        ("engine", {"eval_timeout_s": "1"}, "engine.eval_timeout_s must be a number, got str '1'"),
        ("provider", {"retries": "2"}, "provider.retries must be an integer, got str '2'"),
        ("provider", {"prompt_cache": 5}, "provider.prompt_cache must be a string, got int 5"),
        ("engine", {"static_screen": "no"}, "engine.static_screen must be a boolean, got str 'no'"),
        ("search", {"include_seeds": "no"}, "search.include_seeds must be a boolean, got str 'no'"),
        ("engine", {"max_workers": True}, "engine.max_workers must be an integer, got bool True"),
        ("spec", {"checkpoint": "no"}, "spec.checkpoint must be a boolean, got str 'no'"),
        ("spec", {"engine": None}, "spec.engine must be a mapping, got NoneType None"),
        ("spec", {"seeds": ["0"]}, "spec.seeds must be a list of integers, got ['0']"),
    ],
    ids=["search.rounds", "engine.max_workers", "engine.eval_timeout_s", "provider.retries",
         "provider.prompt_cache", "engine.static_screen", "search.include_seeds",
         "engine.max_workers=true", "spec.checkpoint", "spec.engine", "spec.seeds"],
)
def test_run_spec_field_of_the_wrong_json_type_exits_2(capsys, tmp_path, block, override, message):
    data = json.loads(SMOKE_SPEC.read_text(encoding="utf-8"))
    data["checkpoint"] = False
    if block == "provider":
        data["llm"] = {"provider": {"name": "synthetic", **override}}
    elif block == "spec":
        data.update(override)
    else:
        data[block] = {**data[block], **override}
    spec = write_spec(tmp_path, data)
    code, _out, err = run_cli(capsys, "run", spec, "--no-artifacts", "--quiet")
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_provider_flag_of_the_wrong_json_type_exits_2(capsys):
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--quiet",
        "--set", 'llm.provider={"name": "synthetic", "retries": "2"}',
    )
    assert code == 2
    assert "provider.retries must be an integer, got str '2'" in err
    assert "Traceback" not in err


def test_bad_engine_value_leaves_no_run_directory(capsys, tmp_path):
    data = json.loads(SMOKE_SPEC.read_text(encoding="utf-8"))
    data["engine"] = {"max_workers": 0}
    spec = write_spec(tmp_path, data)
    artifacts = tmp_path / "art"
    code, _out, err = run_cli(capsys, "run", spec, "--artifacts", str(artifacts), "--quiet")
    assert code == 2
    assert "max_workers must be positive" in err
    assert not artifacts.exists() or not any(artifacts.iterdir())


def test_set_on_a_spec_rejects_a_path_through_a_non_mapping(capsys):
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--quiet", "--set", "seed.x=1"
    )
    assert code == 2
    assert "--set seed.x: 'seed' is not a mapping" in err
    assert "Traceback" not in err


def test_worker_verb_is_gone_and_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["worker", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice: 'worker'" in err
    assert "Traceback" not in err


# -- --set fidelity=... -------------------------------------------------------------


def test_fidelity_flag_rung_list_applies(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys,
        "run",
        str(SMOKE_SPEC),
        "--artifacts",
        str(tmp_path),
        "--set",
        "fidelity=[0.2, 1.0]",
        "--quiet",
    )
    assert code == 0
    run_dirs = [p for p in tmp_path.iterdir() if (p / "spec.json").exists()]
    spec = json.loads((run_dirs[0] / "spec.json").read_text(encoding="utf-8"))
    assert spec["fidelity"]["rungs"] == [0.2, 1.0]
    assert spec["fidelity"]["mode"] == "screen"
    metadata = json.loads((run_dirs[0] / "metadata.json").read_text(encoding="utf-8"))
    assert metadata["fidelity"]["schedule"]["rungs"] == [0.2, 1.0]


def test_fidelity_flag_json_and_off_forms(capsys, tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "domain": "caching",
            "name": "fid-off",
            "domain_kwargs": {
                "workloads": [
                    {"name": "caching/zipf-hot", "num_requests": 300, "num_objects": 100}
                ]
            },
            "search": {"rounds": 1, "candidates_per_round": 2},
            "fidelity": {"rungs": [0.5, 1.0]},
        },
    )
    code, _out, _err = run_cli(
        capsys, "run", spec, "--artifacts", str(tmp_path / "a"),
        "--set", 'fidelity={"rungs": [0.25, 1.0], "mode": "shadow", "eta": 4}', "--quiet",
    )
    assert code == 0
    run_dir = next(
        p for p in (tmp_path / "a").iterdir() if (p / "spec.json").exists()
    )
    stored = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    assert stored["fidelity"] == {
        "rungs": [0.25, 1.0], "eta": 4.0, "min_keep": 2, "mode": "shadow",
    }
    # null strips the spec's own ladder.
    code, _out, _err = run_cli(
        capsys, "run", spec, "--artifacts", str(tmp_path / "b"),
        "--set", "fidelity=null", "--quiet",
    )
    assert code == 0
    run_dir = next(
        p for p in (tmp_path / "b").iterdir() if (p / "spec.json").exists()
    )
    stored = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    assert stored["fidelity"] is None


def test_fidelity_flag_rejects_garbage(capsys):
    # Not JSON, so it arrives as a string; "off" and a comma rung list alike.
    for value in ("fast,please", "off", "0.1,1.0"):
        code, _out, err = run_cli(
            capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--set", f"fidelity={value}"
        )
        assert code == 2
        assert "cannot build a FidelitySchedule from str" in err


def test_fidelity_flag_rejects_a_bare_number(capsys):
    # json.loads happily parses "0.5"; it still is not a schedule.
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--set", "fidelity=0.5"
    )
    assert code == 2
    assert "cannot build a FidelitySchedule from float" in err
    assert "Traceback" not in err


def test_fidelity_flag_rejects_bad_ladders(capsys):
    # Valid syntax, invalid schedule (last rung must be 1.0).
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--set", "fidelity=[0.1, 0.5]"
    )
    assert code == 2
    assert "final rung" in err


def test_fidelity_flag_rejected_for_experiments(capsys):
    code, _out, err = run_cli(
        capsys, "run", "figure2", "--no-artifacts", "--set", "fidelity=[0.1, 1.0]"
    )
    assert code == 2
    assert "experiment 'figure2' has no parameter(s) ['fidelity']" in err


# -- report on broken run directories -----------------------------------------------


def make_run_dir(tmp_path, name="broken-run"):
    """A structurally-valid run directory missing its result.json."""
    run_dir = tmp_path / name
    run_dir.mkdir()
    (run_dir / "spec.json").write_text(
        json.dumps({"domain": "caching", "name": name}), encoding="utf-8"
    )
    (run_dir / "metadata.json").write_text(
        json.dumps({"artifact_version": 1, "kind": "search"}), encoding="utf-8"
    )
    return run_dir


def test_report_missing_result_json_exits_2_naming_path(capsys, tmp_path):
    run_dir = make_run_dir(tmp_path)
    code, _out, err = run_cli(capsys, "report", str(run_dir))
    assert code == 2
    assert err.startswith("error:")
    assert str(run_dir / "result.json") in err
    assert "repro resume" in err
    assert "Traceback" not in err


def test_report_truncated_result_json_exits_2_naming_path(capsys, tmp_path):
    run_dir = make_run_dir(tmp_path)
    # A write interrupted mid-flush: syntactically invalid JSON.
    (run_dir / "result.json").write_text('{"rounds": [{"round_in', encoding="utf-8")
    code, _out, err = run_cli(capsys, "report", str(run_dir))
    assert code == 2
    assert str(run_dir / "result.json") in err
    assert "corrupt or truncated" in err
    assert "Traceback" not in err


# -- certify ------------------------------------------------------------------------


CC_PROGRAM = (
    "def cong_control(now, cwnd, mss, acked, inflight, rtt, min_rtt, srtt, "
    "losses, history) { return cwnd + 5000 }"
)


def write_program(tmp_path, source, name="prog.dsl") -> str:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return str(path)


def test_certify_program_file_infers_cc_domain(capsys, tmp_path):
    path = write_program(tmp_path, CC_PROGRAM)
    code, out, _err = run_cli(capsys, "certify", path)
    assert code == 0
    assert "domain     : cc" in out
    assert "cong_control in [5002, 9096]" in out
    assert "applied window in [4096, 4096]" in out


def test_certify_program_file_json_output(capsys, tmp_path):
    path = write_program(tmp_path, CC_PROGRAM)
    code, out, _err = run_cli(capsys, "certify", path, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["bounds"] == {"lo": 5002, "hi": 9096}
    assert record["clamped_bounds"] == {"lo": 4096, "hi": 4096}
    assert record["function"] == "cong_control"


def test_certify_caching_program_file(capsys, tmp_path):
    source = (
        "def priority(now, obj_id, obj_info, counts, ages, sizes, history) "
        "{ return obj_info.count }"
    )
    path = write_program(tmp_path, source)
    code, out, _err = run_cli(capsys, "certify", path)
    assert code == 0
    assert "domain     : caching" in out
    assert "priority in [0, +inf]" in out


def test_certify_unknown_function_name_needs_domain(capsys, tmp_path):
    path = write_program(tmp_path, "def mystery(x) { return x }")
    code, _out, err = run_cli(capsys, "certify", path)
    assert code == 2
    assert "cannot infer a domain" in err
    assert "--domain" in err


def test_certify_nonexistent_target_exits_2(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "certify", str(tmp_path / "nope"))
    assert code == 2
    assert "neither a run directory nor a DSL program file" in err
    assert "Traceback" not in err


def test_certify_invalid_dsl_file_exits_2(capsys, tmp_path):
    path = write_program(tmp_path, "def broken( { nope")
    code, _out, err = run_cli(capsys, "certify", path)
    assert code == 2
    assert "not a valid DSL program" in err
    assert "Traceback" not in err


def test_certify_run_dir_missing_result_json_exits_2(capsys, tmp_path):
    run_dir = make_run_dir(tmp_path)
    code, _out, err = run_cli(capsys, "certify", str(run_dir))
    assert code == 2
    assert str(run_dir / "result.json") in err


# -- store maintenance on degenerate stores -----------------------------------------


def test_store_gc_on_missing_directory(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys, "store", "gc", "--store", str(tmp_path / "nope"), "--max-bytes", "0"
    )
    assert code == 0
    assert "removed 0 entries" in out


def test_store_gc_requires_a_bound(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "store", "gc", "--store", str(tmp_path))
    assert code == 2
    assert "needs a bound" in err


@pytest.mark.parametrize("bound", ["--max-entries", "--max-bytes"])
def test_store_gc_rejects_a_negative_bound_and_deletes_nothing(capsys, tmp_path, bound):
    from repro.core.evaluator import EvaluationResult
    from repro.core.store import EvaluationStore

    store = EvaluationStore(tmp_path / "evalstore")
    for index in range(3):
        assert store.put("k" * 64, f"program-{index}", EvaluationResult(score=index, valid=True))
    code, out, err = run_cli(capsys, "store", "gc", "--store", str(store.root), bound, "-1")
    assert code == 2
    assert "cannot be negative" in err and out == ""
    assert store.stats().entries == 3
