"""CLI smoke tests: run / sweep / resume / experiments list / report.

``repro report`` must reproduce ``repro run`` stdout byte-for-byte from the
stored artifacts, which is what most of these tests pin down.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_SPEC = REPO_ROOT / "examples" / "specs" / "smoke_caching.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def artifact_dir_from(err: str) -> Path:
    for line in err.splitlines():
        if line.startswith("artifacts: "):
            return Path(line.split("artifacts: ", 1)[1])
    raise AssertionError(f"no artifacts line in stderr:\n{err}")


# -- experiments list ---------------------------------------------------------------


def test_experiments_list(capsys):
    code, out, _err = run_cli(capsys, "experiments", "list")
    assert code == 0
    for name in (
        "caching-search",
        "figure2",
        "table2",
        "ablations",
        "cost-accounting",
        "cc-compilation",
        "cc-behaviour",
    ):
        assert name in out
    assert "defaults:" in out


# -- run: spec file -----------------------------------------------------------------


def test_run_spec_then_report_byte_identical(capsys, tmp_path):
    code, run_out, run_err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path), "--quiet"
    )
    assert code == 0
    assert "Search run: smoke-caching" in run_out
    run_dir = artifact_dir_from(run_err)
    assert run_dir.exists()

    code, report_out, _ = run_cli(capsys, "report", str(run_dir))
    assert code == 0
    assert report_out == run_out


def test_run_spec_progress_on_stderr(capsys, tmp_path):
    _code, out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path)
    )
    assert "run started:" in err
    assert "run started:" not in out


def test_resume_completed_run_is_stable(capsys, tmp_path):
    _code, run_out, run_err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path), "--quiet"
    )
    run_dir = artifact_dir_from(run_err)
    code, resume_out, _ = run_cli(capsys, "resume", str(run_dir), "--quiet")
    assert code == 0
    assert resume_out == run_out


def test_resume_refuses_uncheckpointed_spec(capsys, tmp_path):
    spec = json.loads(SMOKE_SPEC.read_text())
    spec["checkpoint"] = False
    spec["name"] = "no-ckpt"
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    _code, _out, err = run_cli(
        capsys, "run", str(spec_file), "--artifacts", str(tmp_path), "--quiet"
    )
    run_dir = artifact_dir_from(err)
    code, _out, err = run_cli(capsys, "resume", str(run_dir))
    assert code == 2
    assert "nothing to resume" in err


# -- run: registered experiments ----------------------------------------------------


def test_run_experiment_then_report_byte_identical(capsys, tmp_path):
    code, run_out, run_err = run_cli(
        capsys,
        "run",
        "table2",
        "--set",
        "traces=4",
        "--set",
        "requests=1200",
        "--artifacts",
        str(tmp_path),
    )
    assert code == 0
    assert "Table 2" in run_out
    run_dir = artifact_dir_from(run_err)
    spec = json.loads((run_dir / "spec.json").read_text())
    assert spec["experiment"] == "table2"
    assert spec["params"]["traces"] == 4

    code, report_out, _ = run_cli(capsys, "report", str(run_dir))
    assert code == 0
    assert report_out == run_out


def test_run_experiment_seed_flag_applies(capsys, tmp_path):
    _code, _out, err = run_cli(
        capsys, "run", "cc-compilation", "--set", "candidates=10",
        "--set", "caching=false", "--seed", "99", "--artifacts", str(tmp_path),
    )
    run_dir = artifact_dir_from(err)
    spec = json.loads((run_dir / "spec.json").read_text())
    assert spec["params"]["seed"] == 99


def test_run_experiment_seed_flag_rejected_when_unsupported(capsys):
    code, _out, err = run_cli(capsys, "run", "figure2", "--seed", "1")
    assert code == 2
    assert "no seed parameter" in err


def test_run_figure2_quiet_suppresses_progress(capsys):
    _code, out, err = run_cli(
        capsys, "run", "figure2", "--set", "traces=2", "--set", "requests=600",
        "--no-artifacts", "--quiet",
    )
    assert "Figure 2" in out
    assert "simulating" not in err
    _code, _out, err = run_cli(
        capsys, "run", "figure2", "--set", "traces=2", "--set", "requests=600",
        "--no-artifacts",
    )
    assert "simulating" in err


def test_run_experiment_unknown_param(capsys):
    code, _out, err = run_cli(capsys, "run", "table2", "--set", "bogus=1")
    assert code == 2
    assert "bogus" in err


def test_run_unknown_target(capsys):
    code, _out, err = run_cli(capsys, "run", "not-an-experiment")
    assert code == 2
    assert "unknown experiment" in err


def test_stray_file_cannot_shadow_an_experiment(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table2").write_text("not json")
    code, out, _err = run_cli(
        capsys, "run", "table2", "--set", "traces=2", "--set", "requests=600",
        "--no-artifacts", "--quiet",
    )
    assert code == 0
    assert "Table 2" in out


def test_run_on_directory_gives_friendly_error(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "run", str(tmp_path))
    assert code == 2
    assert "not a RunSpec file" in err
    assert "repro report" in err


def test_run_on_sweep_spec_points_to_sweep_command(capsys, tmp_path):
    spec = json.loads(SMOKE_SPEC.read_text())
    spec["seeds"] = [0, 1]
    spec["checkpoint"] = False  # --no-artifacts below precludes checkpoints
    spec_file = tmp_path / "sweep_spec.json"
    spec_file.write_text(json.dumps(spec))
    code, _out, err = run_cli(capsys, "run", str(spec_file))
    assert code == 2
    assert "repro sweep" in err
    # --seed pins one seed and proceeds.
    code, out, _err = run_cli(
        capsys, "run", str(spec_file), "--seed", "1", "--no-artifacts", "--quiet"
    )
    assert code == 0
    assert "seed 1" in out


def test_run_no_artifacts_flag(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "run",
        "table2",
        "--set",
        "traces=2",
        "--set",
        "requests=800",
        "--no-artifacts",
    )
    assert code == 0
    assert "Table 2" in out
    assert "artifacts:" not in err


# -- sweep --------------------------------------------------------------------------


def test_sweep_and_report(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "sweep",
        str(SMOKE_SPEC),
        "--set",
        "seeds=[0, 1]",
        "--artifacts",
        str(tmp_path),
        "--quiet",
    )
    assert code == 0
    assert "Seed sweep: smoke-caching" in out
    sweep_dir = artifact_dir_from(err)
    assert (sweep_dir / "sweep.json").exists()
    assert (sweep_dir / "seed-0" / "result.json").exists()
    code, report_out, _ = run_cli(capsys, "report", str(sweep_dir))
    assert code == 0
    assert report_out == out


# -- the evaluation store -----------------------------------------------------------


def test_run_populates_eval_store_and_second_run_hits_it(capsys, tmp_path):
    # checkpoint=false so the rerun re-searches (a completed checkpoint
    # would short-circuit the whole run) and warm-starts from the store.
    spec = json.loads(SMOKE_SPEC.read_text())
    spec["checkpoint"] = False
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    first_code, first_out, _ = run_cli(
        capsys, "run", str(spec_file), "--artifacts", str(tmp_path), "--quiet"
    )
    assert first_code == 0
    evalstore = tmp_path / "evalstore"
    assert evalstore.exists()
    code, out, err = run_cli(
        capsys, "run", str(spec_file), "--artifacts", str(tmp_path), "--quiet"
    )
    assert code == 0
    assert out == first_out
    run_dir = artifact_dir_from(err)
    metadata = json.loads((run_dir / "metadata.json").read_text())
    record = metadata["eval_store"]
    assert record["hits"] == record["lookups"] > 0


def test_no_eval_store_flag(capsys, tmp_path):
    code, _out, _err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path),
        "--no-eval-store", "--quiet",
    )
    assert code == 0
    assert not (tmp_path / "evalstore").exists()


def test_explicit_eval_store_path(capsys, tmp_path):
    store_dir = tmp_path / "shared-cache"
    code, _out, _err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path / "runs"),
        "--eval-store", str(store_dir), "--quiet",
    )
    assert code == 0
    assert store_dir.exists()


def test_store_stats_gc_clear(capsys, tmp_path):
    run_cli(capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path), "--quiet")
    store_dir = str(tmp_path / "evalstore")

    code, out, _ = run_cli(capsys, "store", "stats", "--store", store_dir)
    assert code == 0
    assert "entries" in out
    assert "writers" in out

    code, out, _ = run_cli(capsys, "store", "stats", "--store", store_dir, "--json")
    assert code == 0
    stats = json.loads(out)
    assert stats["entries"] > 0
    assert stats["eval_configs"] == 1
    # The run announced itself in the writers ledger.
    assert stats["writers"]["count"] == 1
    (record,) = stats["writers"]["records"]
    assert record["label"].startswith("run-")
    assert record["pid"] and record["host"]

    code, out, _ = run_cli(
        capsys, "store", "gc", "--store", store_dir, "--max-entries", "2"
    )
    assert code == 0
    assert "removed" in out
    code, out, _ = run_cli(capsys, "store", "stats", "--store", store_dir, "--json")
    assert json.loads(out)["entries"] <= 2

    code, out, _ = run_cli(capsys, "store", "clear", "--store", store_dir)
    assert code == 0
    code, out, _ = run_cli(capsys, "store", "stats", "--store", store_dir, "--json")
    stats = json.loads(out)
    assert stats["entries"] == 0
    assert stats["writers"]["count"] == 0  # clear removes the ledger too


def test_store_gc_requires_a_bound(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, "store", "gc", "--store", str(tmp_path / "evalstore")
    )
    assert code == 2
    assert "--max-bytes" in err


# -- engine overrides ---------------------------------------------------------------


def test_executor_and_max_workers_flags(capsys, tmp_path):
    baseline_code, baseline_out, _ = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path / "a"), "--quiet"
    )
    assert baseline_code == 0
    code, out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path / "b"),
        "--set", "engine.executor=thread", "--set", "engine.max_workers=2", "--quiet",
    )
    assert code == 0
    # Same search trajectory, different engine configuration.
    assert out.splitlines()[0] == baseline_out.splitlines()[0]
    run_dir = artifact_dir_from(err)
    stored = json.loads((run_dir / "spec.json").read_text())
    assert stored["engine"] == {"executor": "thread", "max_workers": 2}


def test_static_screen_flag_records_metadata_and_certifies(capsys, tmp_path):
    code, run_out, run_err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--artifacts", str(tmp_path),
        "--set", "engine.static_screen=true", "--no-eval-store", "--quiet",
    )
    assert code == 0
    run_dir = artifact_dir_from(run_err)
    stored = json.loads((run_dir / "spec.json").read_text())
    assert stored["engine"] == {"static_screen": True}
    metadata = json.loads((run_dir / "metadata.json").read_text())
    record = metadata["static_screen"]
    assert record["enabled"] is True
    assert record["checks"] >= record["screened"] >= 0
    assert 0.0 <= record["screen_rate"] <= 1.0
    # The winner's certificate is part of the stored result...
    result = json.loads((run_dir / "result.json").read_text())
    assert result["certification"]["function"] == "priority"
    # ...rendered identically by run and report...
    code, report_out, _ = run_cli(capsys, "report", str(run_dir))
    assert code == 0
    assert report_out == run_out
    assert "Certified bounds:" in report_out
    # ...and re-derivable from the run directory alone.
    code, out, _err = run_cli(capsys, "certify", str(run_dir))
    assert code == 0
    assert "domain     : caching" in out
    assert "priority in" in out


def test_engine_flags_rejected_for_experiments(capsys):
    code, _out, err = run_cli(
        capsys, "run", "table2", "--set", "engine.executor=thread"
    )
    assert code == 2
    assert "experiment 'table2' has no parameter(s) ['engine.executor']" in err


def test_eval_store_flags_rejected_for_experiments(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, "run", "table2", "--eval-store", str(tmp_path / "es")
    )
    assert code == 2
    assert "RunSpec" in err
    code, _out, err = run_cli(capsys, "run", "table2", "--no-eval-store")
    assert code == 2
    assert "RunSpec" in err


def test_invalid_max_workers(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, "run", str(SMOKE_SPEC), "--set", "engine.max_workers=0", "--no-artifacts"
    )
    assert code == 2
    assert "positive" in err


# -- report errors ------------------------------------------------------------------


def test_report_on_non_run_dir(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "report", str(tmp_path))
    assert code == 2
    assert "not a run directory" in err


# -- the real entry point -----------------------------------------------------------


def test_python_dash_m_repro_subprocess(tmp_path):
    """`python -m repro` end to end, in a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    run_proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(SMOKE_SPEC),
         "--artifacts", str(tmp_path), "--quiet"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
    )
    assert run_proc.returncode == 0, run_proc.stderr
    run_dir = artifact_dir_from(run_proc.stderr)
    report_proc = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(run_dir)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert report_proc.returncode == 0, report_proc.stderr
    assert report_proc.stdout == run_proc.stdout
