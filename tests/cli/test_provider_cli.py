"""CLI surface of the LLM provider block: ``--set llm.provider=...`` on
run/sweep, and ``repro store --prompt-cache`` maintenance."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_SPEC = REPO_ROOT / "examples" / "specs" / "smoke_caching.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_provider_flag_and_prompt_cache_store_commands(capsys, tmp_path):
    cache_dir = tmp_path / "pc"
    provider = json.dumps(
        {"name": "synthetic", "retries": 1, "prompt_cache": str(cache_dir)}
    )
    code, _out, _err = run_cli(
        capsys,
        "run", str(SMOKE_SPEC),
        "--artifacts", str(tmp_path / "runs"),
        "--quiet", "--no-eval-store",
        "--set", f"llm.provider={provider}",
    )
    assert code == 0
    assert cache_dir.exists()

    code, out, _ = run_cli(
        capsys, "store", "stats", "--prompt-cache", "--store", str(cache_dir), "--json"
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["entries"] > 0

    code, out, _ = run_cli(
        capsys, "store", "gc", "--prompt-cache", "--store", str(cache_dir),
        "--max-entries", "1",
    )
    assert code == 0
    assert "1 entries" in out

    code, out, _ = run_cli(
        capsys, "store", "clear", "--prompt-cache", "--store", str(cache_dir)
    )
    assert code == 0
    assert out.startswith("removed 1 entries")

    code, out, _ = run_cli(
        capsys, "store", "stats", "--prompt-cache", "--store", str(cache_dir), "--json"
    )
    assert code == 0
    assert json.loads(out)["entries"] == 0


def test_bare_provider_name_accepted(capsys, tmp_path):
    code, _out, _err = run_cli(
        capsys,
        "run", str(SMOKE_SPEC),
        "--artifacts", str(tmp_path),
        "--quiet", "--set", "llm.provider=synthetic",
    )
    assert code == 0


def test_unknown_provider_is_a_clean_error(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys,
        "run", str(SMOKE_SPEC), "--no-artifacts", "--quiet",
        "--set", "llm.provider=openai",
    )
    assert code == 2
    assert "unknown LLM provider" in err


def test_malformed_provider_json_is_a_clean_error(capsys):
    code, _out, err = run_cli(
        capsys,
        "run", str(SMOKE_SPEC), "--no-artifacts", "--quiet",
        "--set", "llm.provider=[1, 2]",
    )
    assert code == 2
    assert "a provider reference must be a name or a mapping, got list" in err


def test_provider_flag_rejected_for_experiments(capsys):
    code, _out, err = run_cli(
        capsys, "run", "caching-search", "--set", "llm.provider=synthetic"
    )
    assert code == 2
    assert "experiment 'caching-search' has no parameter(s) ['llm.provider']" in err


def test_sweep_accepts_provider_flag(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys,
        "sweep", str(SMOKE_SPEC),
        "--set", "seeds=[3, 4]",
        "--artifacts", str(tmp_path),
        "--quiet", "--no-eval-store",
        "--set", "llm.provider=" + json.dumps({"name": "synthetic", "retries": 1}),
    )
    assert code == 0
    assert "seed" in out
    # --set reaches every seed's stored spec.
    stored = [json.loads(path.read_text()) for path in sorted(tmp_path.rglob("spec.json"))]
    assert sorted(spec["seed"] for spec in stored) == [3, 4]
    for spec in stored:
        assert spec["llm"]["provider"]["retries"] == 1
