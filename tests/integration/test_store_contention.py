"""Acceptance: concurrent runs can share one evaluation store safely.

Several searches pointed at the same store tree at the same time must not
corrupt each other: every run's ``result.json`` stays byte-identical to what
an isolated run of the same seed produces, and the store ends up with every
run registered in its writers ledger.
"""

import threading

from repro.core.spec import RunSpec, run
from repro.core.store import EvaluationStore

BASE_SPEC = dict(
    domain="caching",
    name="contend",
    domain_kwargs={
        "workloads": [
            {"name": "caching/zipf-hot", "num_requests": 400, "num_objects": 120},
        ],
        "reducer": "mean",
    },
    search={"rounds": 1, "candidates_per_round": 3},
)

SEEDS = [0, 1, 2, 3]


def test_concurrent_runs_share_one_store_tree(tmp_path):
    shared = tmp_path / "shared-store"

    # Reference: each seed in isolation, each with a private store.
    isolated = {}
    for seed in SEEDS:
        spec = RunSpec(**BASE_SPEC, seeds=[seed])
        outcome = run(
            spec.for_seed(seed),
            store=tmp_path / f"iso-{seed}",
            eval_store=tmp_path / f"iso-store-{seed}",
        )
        isolated[seed] = (outcome.artifact_dir / "result.json").read_bytes()

    # Contended: all four seeds at once, one store tree.
    contended = {}
    errors = []

    def one(seed):
        try:
            spec = RunSpec(**BASE_SPEC, seeds=[seed])
            outcome = run(
                spec.for_seed(seed),
                store=tmp_path / f"con-{seed}",
                eval_store=shared,
            )
            contended[seed] = (outcome.artifact_dir / "result.json").read_bytes()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((seed, exc))

    threads = [threading.Thread(target=one, args=(seed,)) for seed in SEEDS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, errors
    for seed in SEEDS:
        assert contended[seed] == isolated[seed], f"seed {seed} diverged under contention"

    # Every run left a writer record behind, and the store is intact.
    store = EvaluationStore(shared)
    stats = store.stats()
    assert stats.writers == len(SEEDS)
    labels = {record["writer_id"] for record in stats.writer_records}
    assert len(labels) == len(SEEDS)
    assert stats.entries > 0

    # A fresh run over the contended store is pure disk hits.
    warm = run(
        RunSpec(**BASE_SPEC, seeds=[0]).for_seed(0),
        store=tmp_path / "warm",
        eval_store=shared,
    )
    assert warm.setup.engine.totals.store_hits == warm.setup.engine.totals.store_lookups > 0
    assert (warm.artifact_dir / "result.json").read_bytes() == isolated[0]
