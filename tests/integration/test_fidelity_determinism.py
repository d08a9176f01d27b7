"""The fidelity ladder in both domains, on fixed-seed runs with a 3-rung
ladder: at these configurations screen mode reaches **equal final quality**
(the same best candidate at the same full-fidelity score as the
ladder-disabled run) while evaluating strictly fewer candidates in full, and
a screen-mode run writes one store file per batch of results, not one per
result.

That a shadow ladder leaves ``result.json`` byte-identical to no ladder, and
a screen ladder leaves it byte-identical whatever the store's state, is
asserted by the conformance matrix (``tests/integration/test_golden_results.py``).
"""

import pytest

from repro.core.spec import RunSpec, run
from repro.core.store import EvaluationStore

LADDER = {"rungs": [0.1, 0.3, 1.0], "eta": 3.0, "min_keep": 3}

CACHING_SPEC = dict(
    domain="caching",
    name="fid-caching",
    domain_kwargs={
        "workloads": [
            {"name": "caching/zipf-hot", "num_requests": 500, "num_objects": 150},
            {"name": "caching/scan-storm", "num_requests": 500, "num_objects": 150},
        ],
        "reducer": "mean",
    },
    search={"rounds": 2, "candidates_per_round": 8},
)

CC_SPEC = dict(
    domain="cc",
    name="fid-cc",
    domain_kwargs={"duration_s": 0.8},
    search={"rounds": 2, "candidates_per_round": 6},
)

DOMAINS = pytest.mark.parametrize(
    "base", [CACHING_SPEC, CC_SPEC], ids=["caching", "cc"]
)


@DOMAINS
def test_screen_ladder_reaches_equal_final_quality(base, tmp_path):
    off = run(RunSpec(**base), store=tmp_path / "off", eval_store=None)
    screen = run(
        RunSpec(**base, fidelity=dict(LADDER)),
        store=tmp_path / "screen",
        eval_store=None,
    )
    assert off.result.best is not None and screen.result.best is not None
    assert (
        screen.result.best.candidate.candidate_id
        == off.result.best.candidate.candidate_id
    )
    assert screen.result.best.score == off.result.best.score
    assert screen.result.best.evaluation.full_fidelity
    # The ladder actually screened: some candidates stopped at a cheap rung,
    # and every such record is visibly sub-full in result.json.
    screened = [
        c
        for c in screen.result.candidates
        if c.evaluation is not None and not c.evaluation.full_fidelity
    ]
    assert screened
    assert all(c.evaluation.fidelity < 1.0 for c in screened)
    # Metadata records the ladder's live telemetry.
    import json

    metadata = json.loads(
        (screen.artifact_dir / "metadata.json").read_text(encoding="utf-8")
    )
    assert metadata["fidelity"]["schedule"]["rungs"] == [0.1, 0.3, 1.0]
    assert metadata["fidelity"]["rung_eliminations"] == len(screened) > 0


@DOMAINS
def test_screen_ladder_runs_fewer_full_fidelity_evaluations(base, tmp_path, evaluated_fidelities):
    """What the ladder saves: full-fidelity evaluations.  Without it every
    evaluation is one; with it the eliminated candidates only ran a rung."""
    run(RunSpec(**base), store=tmp_path / "off", eval_store=None)
    off = list(evaluated_fidelities)
    del evaluated_fidelities[:]
    run(RunSpec(**base, fidelity=dict(LADDER)), store=tmp_path / "screen", eval_store=None)
    assert set(off) == {1.0}
    full = evaluated_fidelities.count(1.0)
    assert 0 < full < len(off)
    assert len(evaluated_fidelities) > full


def test_screen_ladder_writes_one_store_file_per_saved_batch(tmp_path, monkeypatch):
    """No wall-clock: every ``put_many`` that saved a result -- one per
    evaluated result set, full fidelity and each screening rung -- created
    exactly one file, and those files hold every result the engine wrote."""
    saved = []
    put_many = EvaluationStore.put_many

    def counting(self, eval_key, items):
        written = put_many(self, eval_key, items)
        if written:
            saved.append((eval_key, written))
        return written

    monkeypatch.setattr(EvaluationStore, "put_many", counting)
    outcome = run(
        RunSpec(**CACHING_SPEC, fidelity=dict(LADDER)),
        store=tmp_path / "runs",
        eval_store=tmp_path / "store",
    )
    files = [p for p in EvaluationStore(tmp_path / "store").schema_root.rglob("*") if p.is_file()]
    assert len(files) == len(saved)
    # Full fidelity and at least the first rung (a rung that cannot
    # eliminate is skipped) each saved under their own eval key.
    assert len({eval_key for eval_key, _written in saved}) >= 2
    assert sum(written for _key, written in saved) == outcome.setup.engine.store_writes
    assert outcome.setup.engine.store_writes > 2 * len(files)
