"""CLI error paths and the ``--fidelity`` override.

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
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--executor", "quantum"
    )
    assert code == 2
    assert "unknown executor 'quantum'" in err
    for name in ("serial", "thread", "process"):
        assert name in err
    assert "async" not in err and "distributed" not in err
    assert "Traceback" not in err
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--executor", "distributed"
    )
    assert code == 2
    assert "unknown executor 'distributed'" in err


@pytest.mark.parametrize(
    "key,replacement",
    [
        ("dedup", "always on since PR 24"),
        ("memoize", "always on since PR 24"),
        ("pipeline", "use `search.pipeline`"),
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


def test_worker_verb_is_gone_and_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["worker", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice: 'worker'" in err
    assert "Traceback" not in err


# -- the --fidelity override --------------------------------------------------------


def test_fidelity_flag_rung_list_applies(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys,
        "run",
        str(SMOKE_SPEC),
        "--artifacts",
        str(tmp_path),
        "--fidelity",
        "0.2,1.0",
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
        "--fidelity", '{"rungs": [0.25, 1.0], "mode": "shadow", "eta": 4}', "--quiet",
    )
    assert code == 0
    run_dir = next(
        p for p in (tmp_path / "a").iterdir() if (p / "spec.json").exists()
    )
    stored = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    assert stored["fidelity"] == {
        "rungs": [0.25, 1.0], "eta": 4.0, "min_keep": 2, "mode": "shadow",
    }
    # "off" strips the spec's own ladder.
    code, _out, _err = run_cli(
        capsys, "run", spec, "--artifacts", str(tmp_path / "b"),
        "--fidelity", "off", "--quiet",
    )
    assert code == 0
    run_dir = next(
        p for p in (tmp_path / "b").iterdir() if (p / "spec.json").exists()
    )
    stored = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    assert stored["fidelity"] is None


def test_fidelity_flag_rejects_garbage(capsys):
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--fidelity", "fast,please"
    )
    assert code == 2
    assert "--fidelity expects" in err


def test_fidelity_flag_rejects_a_bare_number(capsys):
    # json.loads happily parses "0.5"; it still is not a schedule.
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--fidelity", "0.5"
    )
    assert code == 2
    assert "--fidelity expects" in err
    assert "Traceback" not in err


def test_fidelity_flag_rejects_bad_ladders(capsys):
    # Valid syntax, invalid schedule (last rung must be 1.0).
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--no-artifacts", "--fidelity", "0.1,0.5"
    )
    assert code == 2
    assert "final rung" in err


def test_fidelity_flag_rejected_for_experiments(capsys):
    code, _out, err = run_cli(
        capsys, "run", "figure2", "--no-artifacts", "--fidelity", "0.1,1.0"
    )
    assert code == 2
    assert "--fidelity applies to RunSpec runs" in err


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
