"""Fast checks of the end-to-end benchmark itself, on tiny specs."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import child
import compare
import run
import spans
import workloads


_build_job = workloads.build_job


def tiny_job(workload: str, seed: int = 0) -> dict:
    """The workload's real job, shrunk to a fraction of a second."""
    job = _build_job(workload, seed)
    job["specs"], job["populate"] = job["specs"][:2], job["populate"][:2]
    for spec in job["specs"] + job["populate"]:
        spec["search"] = {"rounds": 2, "candidates_per_round": 6}
        if spec["domain"] == "caching":
            spec["domain_kwargs"]["trace"]["num_requests"] = 100
        else:
            spec["domain_kwargs"]["duration_s"] *= 0.1
    return job


def run_tiny(workload: str, root: Path, seed: int = 0, **extra) -> dict:
    job = {**tiny_job(workload, seed), "root": str(root), "spawned_at": time.time(), **extra}
    return child.run_job(job)


# -- spans ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("run"):  # 0 .. 9
        with tracer.span("outer"):  # 1 .. 6
            with tracer.span("inner"):  # 2 .. 3
                pass
            with tracer.span("inner"):  # 4 .. 5
                pass
        with tracer.span("inner"):  # 7 .. 8
            pass
    budget = tracer.budget()
    assert budget["run"] == {"count": 1, "busy_s": 9.0, "self_s": 3.0}
    assert budget["outer"] == {"count": 1, "busy_s": 5.0, "self_s": 3.0}
    assert budget["inner"] == {"count": 3, "busy_s": 3.0, "self_s": 3.0}
    assert tracer.coverage() == pytest.approx(6.0 / 9.0)
    assert sum(row["self_s"] for row in budget.values()) == budget["run"]["busy_s"]


def test_reentrant_layer_is_one_span_and_wrappers_come_off():
    class Composite:
        def check(self, depth):
            return self.check(depth - 1) if depth else "ok"

    tracer = spans.Tracer()
    original = Composite.__dict__["check"]
    tracer.wrap(Composite, "check", "check", lambda args, result: {"passed": 1})
    assert Composite().check(3) == "ok"
    assert tracer.budget()["check"]["count"] == 1
    assert tracer.counters["check"] == {"passed": 1}
    tracer.uninstall()
    assert Composite.__dict__["check"] is original

    class Derived(Composite):
        pass

    tracer.wrap(Derived, "check", "check")
    assert "check" in Derived.__dict__
    tracer.uninstall()
    assert "check" not in Derived.__dict__


def test_wrappers_restored_when_run_raises(tmp_path):
    job = tiny_job("caching-default")
    for spec in job["specs"]:
        spec["domain_kwargs"]["trace"]["dataset"] = "no-such-dataset"
    job.update(root=str(tmp_path), spawned_at=time.time(), traced=True)
    with pytest.raises(RuntimeError, match="every timed run raised"):
        child.run_job(job)
    assert spans.leftover_wrappers() == []


# -- workloads and digests -----------------------------------------------------------


def _without(spec: dict, *path: str) -> dict:
    """A deep copy of ``spec`` with the value at ``path`` removed."""
    spec = json.loads(json.dumps(spec))
    inner = spec
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return spec


@pytest.mark.parametrize("workload", workloads.workload_names())
def test_seed_changes_one_knob_and_nothing_else(workload):
    knob = ("domain_kwargs", "duration_s") if workload == "cc-default" else ("seed",)
    base, other = workloads.build_job(workload, 0), workloads.build_job(workload, 7)
    assert base != other and base == workloads.build_job(workload, 0)
    for job in (base, other):
        for runs in ("specs", "populate"):
            job[runs] = [_without(spec, *knob) for spec in job[runs]]
    assert base == other


def test_caching_workloads_share_model_seeds_that_no_other_seed_uses():
    def seeds(workload, seed, runs="specs"):
        return [spec["seed"] for spec in workloads.build_job(workload, seed)[runs]]

    assert seeds("caching-tuned", 3) == list(range(21, 28))
    assert seeds("caching-default", 3) == list(range(21, 24))
    assert seeds("caching-warm", 3, "populate") == list(range(21, 26))
    assert seeds("caching-warm", 3) == 2 * list(range(21, 26))
    assert not set(seeds("caching-tuned", 3)) & set(seeds("caching-tuned", 4))


def test_digest_stable_across_runs_and_store_state(tmp_path):
    cold = run_tiny("caching-default", tmp_path / "cold")
    again = run_tiny("caching-default", tmp_path / "again")
    assert cold["digest"] == again["digest"]
    assert cold["failed"] == 0 and cold["attempted"] == cold["candidates"] > 0
    # Set-up fills the store with a cold run; every warm run must find what it found.
    warm = run_tiny("caching-warm", tmp_path / "warm")
    assert warm["checks"] == {
        "no_run_raised": True,
        "has_winner": True,
        "warm_digest_matches_cold": True,
        "all_store_hits": True,
    }


def test_traced_tuned_run_uses_what_it_asked_for(tmp_path):
    sample = run_tiny("caching-tuned", tmp_path, traced=True, probe=True)
    assert all(sample["checks"].values()), sample["checks"]
    layers = sample["layers"]
    assert layers["executors.units"] > 0 and layers["evaluate.calls"] == 0  # in workers
    assert layers["ladder.rung_evaluations"] > 0 and layers["screen.checks"] > 0
    assert 0.0 < layers["trace.coverage"] <= 1.0
    assert layers["probe.simulate.vectorized.requests_per_s"] > 0


def test_cache_hit_split_adds_up_to_the_engine_counter(tmp_path):
    from repro.core import RunSpec
    from repro.core import run as run_spec

    for workload in ("caching-default", "caching-tuned", "cc-default"):
        outcome = run_spec(RunSpec.from_dict(tiny_job(workload)["specs"][0]))
        memo, dedup = child.cache_hit_split(outcome.result)
        assert memo + dedup == outcome.result.eval_cache_hits


# -- the driver ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["caching-warm", "cc-default"])
def test_driver_prints_every_declared_metric_with_its_unit(workload, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "build_job", tiny_job)
    contract = run.load_contract()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        declared = {m["name"]: m["unit"] for m in contract[group]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert not run.WORK_PARENT.exists()


def test_failed_check_fails_the_command(monkeypatch, capsys):
    def job_expecting_another_backend(workload, seed):
        job = tiny_job(workload, seed)
        job["expect"]["backend"] = "vectorized"
        return job

    monkeypatch.setattr(workloads, "build_job", job_expecting_another_backend)
    assert run.main(["--workload", "caching-tuned", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False
    assert "check requested_backend failed" in captured.err


def test_every_workload_form_feeds_compare(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(workloads, "build_job", tiny_job)
    monkeypatch.setattr(run, "REPEATS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)  # the time-boxed form's test covers them
    out = tmp_path / "suite.json"
    assert run.main(["--seconds", "0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    contract = run.load_contract()
    report = json.loads(out.read_text())
    assert report["environment"]["k"] == 2 and report["environment"]["seed"] == 0
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed_share"] == 0.0
        assert {m["name"] for m in contract["end_to_end"]} == set(entry["end_to_end"])
        assert all(stat["n"] == 2 for stat in entry["end_to_end"].values())
        assert set(entry["per_layer"]) == (
            {m["name"] for m in contract["per_layer"]} | {"trace.overhead_share"}
        )
        assert len(report["invocations"][name]) == 3
    assert "trace.overhead_share" in printed and "candidates_per_s" in printed
    # The same file on both sides: nothing regressed, nothing improved.
    assert compare.main([str(out), str(out)]) == 0
    assert "regressed" not in capsys.readouterr().out


def test_contract_names_the_workloads_the_driver_runs():
    contract = run.load_contract()
    assert [w["name"] for w in contract["workloads"]] == workloads.workload_names()
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()
    }
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


# -- compare -------------------------------------------------------------------------


def _stat(samples):
    ordered = sorted(samples)
    return {"value": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1],
            "samples": samples}


def test_compare_tells_unresolved_from_unchanged():
    steady = _stat([10.0, 10.1, 10.2, 9.9, 10.0])
    noisy = _stat([8.0, 10.0, 12.5, 9.0, 11.5])
    assert compare.judge(steady, _stat([10.1, 10.0, 10.2, 10.3, 9.9]), "lower", 0.1)[0] == "unchanged"
    assert compare.judge(noisy, _stat([10.1, 10.0, 10.2, 10.3, 9.9]), "lower", 0.1)[0] == "unresolved"
    assert compare.judge(steady, _stat([12.0, 12.1, 11.9, 12.2, 12.0]), "lower", 0.1)[0] == "regressed"
    assert compare.judge(steady, _stat([9.0, 9.1, 9.2, 8.9, 9.0]), "lower", 0.1)[0] == "improved"
    assert compare.judge(steady, _stat([9.0, 9.1, 9.2, 8.9, 9.0]), "higher", 0.05)[0] == "regressed"
