"""Acceptance: fixed-seed ``result.json`` is byte-identical across DSL backends.

The execution backend (interpreter / compiled / vectorized) is pure
mechanism: it may only change how fast candidates are scored, never what
they score.  For a fixed seed the entire search trajectory -- and therefore
``result.json`` -- must be byte-for-byte identical under every backend, in
both shipped domains.  The requested backend and any fallbacks are recorded
in ``metadata.json`` (which, like wall time, is allowed to differ).
"""

import json
from pathlib import Path

import pytest

from repro.cache.search import CachingEvaluator
from repro.core.spec import RunSpec, run
from repro.dsl.parser import parse
from repro.workloads import build_trace

BACKENDS = ("interpreter", "compiled", "vectorized")

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

CACHING_SPEC = dict(
    domain="caching",
    name="backend-caching",
    domain_kwargs={
        "workloads": [
            {"name": "caching/zipf-hot", "num_requests": 400, "num_objects": 120},
            {"name": "caching/scan-storm", "num_requests": 400, "num_objects": 120},
        ],
        "reducer": "mean",
    },
    search={"rounds": 1, "candidates_per_round": 3},
)

CC_SPEC = dict(
    domain="cc",
    name="backend-cc",
    domain_kwargs={"duration_s": 0.4},
    search={"rounds": 1, "candidates_per_round": 3},
)


@pytest.mark.parametrize("base", [CACHING_SPEC, CC_SPEC], ids=["caching", "cc"])
def test_result_json_identical_across_backends(base, tmp_path):
    results = {}
    for backend in BACKENDS:
        spec = RunSpec(**base, engine={"dsl_backend": backend})
        outcome = run(spec, store=tmp_path / backend, eval_store=None)
        results[backend] = (outcome.artifact_dir / "result.json").read_bytes()
        metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
        record = metadata["dsl_backend"]
        assert record["requested"] == backend
        assert sum(record["resolved"].values()) > 0
        assert record["fallbacks"] == 0  # grammar candidates all vectorize
    assert results["compiled"] == results["interpreter"]
    assert results["vectorized"] == results["interpreter"]


@pytest.mark.parametrize("base", [CACHING_SPEC, CC_SPEC], ids=["caching", "cc"])
def test_a_run_that_names_no_backend_is_a_vectorized_run(base, tmp_path):
    outcomes = {
        label: run(RunSpec(**base, engine=engine), store=tmp_path / label, eval_store=None)
        for label, engine in (("default", {}), ("pinned", {"dsl_backend": "vectorized"}))
    }
    metadata = json.loads((outcomes["default"].artifact_dir / "metadata.json").read_text())
    assert metadata["dsl_backend"]["requested"] == "vectorized"
    assert set(metadata["dsl_backend"]["resolved"]) == {"vectorized"}
    assert (outcomes["default"].artifact_dir / "result.json").read_bytes() == (
        outcomes["pinned"].artifact_dir / "result.json"
    ).read_bytes()


#: The program the benchmark's seed 1 breeds (model seeds 7-9 at 20x25 on 2000
#: requests): valid to the checker, raising on every request with now < 300.
#: Its failing evaluation reads a store-entry slot, a refreshed aggregate and
#: a history method -- the columns the old fused loop's error path lost.
RAISING_ARCHETYPE = """def priority(now, obj_id, obj_info, counts, ages, sizes, history) {
    x = obj_info.count + counts.mean() + history.count_of(obj_id)
    return x // (now // 300 / 2)
}"""

RAISING_SPEC = dict(
    domain="caching",
    name="backend-raising",
    domain_kwargs={
        "workloads": [{"name": "caching/zipf-hot", "num_requests": 400, "num_objects": 120}],
        "reducer": "mean",
    },
    search={"rounds": 2, "candidates_per_round": 4},
    llm={"archetypes": [RAISING_ARCHETYPE], "archetype_weight": 0.5},
)


def test_raising_candidates_fail_identically_on_every_backend_and_executor(tmp_path):
    results = {}
    for backend in BACKENDS:
        for label, executor in (
            ("serial", {}),
            ("process", {"executor": "process", "max_workers": 2}),
        ):
            spec = RunSpec(**RAISING_SPEC, engine={"dsl_backend": backend, **executor})
            outcome = run(spec, store=tmp_path / f"{backend}-{label}", eval_store=None)
            results[backend, label] = (outcome.artifact_dir / "result.json").read_bytes()
            raised = [
                item.evaluation
                for item in outcome.result.candidates
                if item.evaluation is not None and item.evaluation.error
            ]
            assert raised, "the archetype should have been drawn at least once"
            for evaluation in raised:
                assert evaluation.error.endswith("runtime error: division by zero")
                assert not evaluation.transient and not evaluation.valid
    oracle = results["interpreter", "serial"]
    assert [key for key, result in results.items() if result != oracle] == []


@pytest.mark.parametrize("name", ["smoke_caching", "fidelity_caching", "matrix_cc"])
def test_the_backend_record_is_the_same_from_workers_as_in_process(name, tmp_path):
    """Each fresh result carries the backend it ran on and the engine tallies
    them, so ``metadata.json`` records a pool's evaluations (ladder rungs,
    scenario shards and programs that raised included) as a serial run does."""
    records = []
    for label, engine in (
        ("serial", {"max_workers": 1}),
        ("pool", {"executor": "process", "max_workers": 2}),
    ):
        data = RunSpec.from_file(SPECS / f"{name}.json").to_dict()
        data["engine"] = {**data["engine"], **engine}
        data["checkpoint"] = False
        outcome = run(RunSpec.from_dict(data), store=tmp_path / label, eval_store=None)
        metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
        records.append(metadata["dsl_backend"])
    assert records[0] == records[1]
    assert records[0]["requested"] == "vectorized"
    assert sum(records[0]["resolved"].values()) > 0


def test_engine_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="dsl_backend"):
        RunSpec(**CC_SPEC, engine={"dsl_backend": "numba"}).engine_config()


def test_explicit_domain_backend_wins_over_engine_default(tmp_path):
    spec = RunSpec(
        domain="cc",
        name="backend-explicit",
        domain_kwargs={"duration_s": 0.2, "backend": "compiled"},
        search={"rounds": 1, "candidates_per_round": 2},
        engine={"dsl_backend": "vectorized"},
    )
    outcome = run(spec, store=tmp_path, eval_store=None)
    metadata = json.loads((outcome.artifact_dir / "metadata.json").read_text())
    assert metadata["dsl_backend"]["requested"] == "compiled"


def test_caching_evaluator_counts_fallbacks():
    trace = build_trace("caching/zipf-hot", num_requests=200, num_objects=60)
    evaluator = CachingEvaluator(trace, backend="vectorized")
    sig = "def f(now, obj_id, obj_info, counts, ages, sizes, history)"
    plain = evaluator.evaluate(parse(f"{sig} {{ return obj_info.count }}"))
    # An expression method-argument is unvectorizable: resolves one rung down.
    fallback = evaluator.evaluate(parse(f"{sig} {{ return counts.percentile(now % 1) }}"))
    # A program that raises at run time still reports the backend it ran on.
    raising = evaluator.evaluate(parse(f"{sig} {{ return 1 // (now - now) }}"))
    assert [plain.backends, fallback.backends] == [{"vectorized": 1}, {"compiled": 1}]
    assert not raising.valid and raising.backends == {"vectorized": 1}
