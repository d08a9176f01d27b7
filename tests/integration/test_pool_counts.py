"""Count-based gate: a process-pool search pays for its pool per batch.

No wall-clock: counting wrappers around ``ProcessExecutor``.  A search on a
fidelity ladder makes one pool, whatever the number of rungs, and ships each
batch as a few chunk tasks rather than one task per unit -- while its
``result.json`` stays byte-identical to the serial run's.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.executors import ProcessExecutor
from repro.core.spec import RunSpec, run

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

MAX_WORKERS = 2


def _spec(engine):
    data = RunSpec.from_file(SPECS / "smoke_caching.json").to_dict()
    data["search"] = {"rounds": 5, "candidates_per_round": 12}
    data["fidelity"] = {"rungs": [0.1, 0.3, 1.0], "mode": "screen"}
    data["engine"] = engine
    data["checkpoint"] = False
    return RunSpec.from_dict(data)


def test_a_laddered_process_search_makes_one_pool_and_few_tasks(monkeypatch, tmp_path):
    pools, calls = [], []  # calls: (units, submits) per run_units
    make_pool, submit, run_units = (
        ProcessExecutor._make_pool,
        ProcessExecutor._submit,
        ProcessExecutor.run_units,
    )

    def counting_make_pool(self):
        pools.append(self)
        return make_pool(self)

    def counting_submit(self, pool, chunk):
        calls[-1][1] += 1
        return submit(self, pool, chunk)

    def counting_run_units(self, units, stats):
        calls.append([len(units), 0])
        return run_units(self, units, stats)

    monkeypatch.setattr(ProcessExecutor, "_make_pool", counting_make_pool)
    monkeypatch.setattr(ProcessExecutor, "_submit", counting_submit)
    monkeypatch.setattr(ProcessExecutor, "run_units", counting_run_units)

    pooled = run(
        _spec({"executor": "process", "max_workers": MAX_WORKERS}),
        store=tmp_path / "pooled",
        eval_store=None,
    )
    serial = run(_spec({}), store=tmp_path / "serial", eval_store=None)

    assert pooled.setup.engine.totals.rung_evaluations > 0  # the ladder ran
    assert len(pools) == 1
    assert max(submits for _units, submits in calls) <= 4 * MAX_WORKERS
    assert sum(submits for _units, submits in calls) < sum(units for units, _ in calls)
    result = "result.json"
    assert (pooled.artifact_dir / result).read_bytes() == (serial.artifact_dir / result).read_bytes()
