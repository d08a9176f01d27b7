"""Acceptance: the fidelity ladder's determinism contract, in both domains.

Three properties, each asserted on fixed-seed runs with a 3-rung ladder:

* a **shadow**-mode ladder run produces byte-identical ``result.json`` to
  the ladder-disabled run -- rung evaluations are pure telemetry and can
  never perturb scores, the search trajectory, counters or serialization;
* a **screen**-mode ladder run is byte-identical across evaluation-store
  states (disabled / cold / warm): screening decisions depend only on the
  spec and seed, never on what the store happens to contain;
* at these configurations screen mode reaches **equal final quality**: the
  same best candidate at the same full-fidelity score as the ladder-disabled
  run, while evaluating strictly fewer candidates in full.

Beside them, a count: a screen-mode run writes one store file per batch of
results, not one per result.
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


def result_bytes(outcome):
    return (outcome.artifact_dir / "result.json").read_bytes()


@DOMAINS
def test_shadow_ladder_is_byte_identical_to_ladder_off(base, tmp_path):
    off = run(RunSpec(**base), store=tmp_path / "off", eval_store=None)
    shadow = run(
        RunSpec(**base, fidelity={**LADDER, "mode": "shadow"}),
        store=tmp_path / "shadow",
        eval_store=None,
    )
    assert result_bytes(off) == result_bytes(shadow)
    # The ladder really ran: rung decisions were taken and recorded live.
    assert shadow.setup.engine.totals.rung_evaluations > 0
    assert shadow.setup.engine.totals.rung_eliminations > 0


@DOMAINS
def test_screen_ladder_is_byte_identical_across_store_states(base, tmp_path):
    spec = RunSpec(**base, fidelity=dict(LADDER))
    shared = tmp_path / "store"
    disabled = run(spec, store=tmp_path / "a", eval_store=None)
    cold = run(spec, store=tmp_path / "b", eval_store=shared)
    warm = run(spec, store=tmp_path / "c", eval_store=shared)
    assert result_bytes(disabled) == result_bytes(cold) == result_bytes(warm)
    # The warm run re-ran no rung evaluations: every rung score and every
    # promoted full evaluation was served from the store.
    assert warm.setup.engine.totals.rung_evaluations == 0
    assert warm.setup.engine.totals.store_hits == warm.setup.engine.totals.store_lookups > 0


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
