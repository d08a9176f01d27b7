"""Count-based gate: a process-pool search pays for its pool per batch.

No wall-clock: counting wrappers around ``ProcessExecutor``.  A search on a
fidelity ladder makes one pool, whatever the number of rungs, and ships each
batch as a few chunk tasks rather than one task per unit -- while its
``result.json`` stays byte-identical to the serial run's.  A spec that leaves
``max_workers`` unset gets a pool of the usable CPUs, and a sweep of such
specs runs its seeds in turn rather than multiply pools.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from repro.core import engine
from repro.core.engine import EngineConfig, usable_cpus
from repro.core.executors import ProcessExecutor
from repro.core.spec import RunSpec, run, run_sweep, seeds_in_flight

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
    serial = run(_spec({"max_workers": 1}), store=tmp_path / "serial", eval_store=None)

    assert pooled.setup.engine.totals.rung_evaluations > 0  # the ladder ran
    assert len(pools) == 1
    assert max(submits for _units, submits in calls) <= 4 * MAX_WORKERS
    assert sum(submits for _units, submits in calls) < sum(units for units, _ in calls)
    result = "result.json"
    assert (pooled.artifact_dir / result).read_bytes() == (serial.artifact_dir / result).read_bytes()


def _stub_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda: None)


def _count_pools(monkeypatch):
    """The ``max_workers`` of every pool the process executor makes; ``peak``
    holds the most workers alive at once."""
    sizes, alive, peak, lock = [], [0], [0], threading.Lock()
    make_pool, discard_pool = ProcessExecutor._make_pool, ProcessExecutor._discard_pool

    def counting_make_pool(self):
        with lock:
            sizes.append(self.config.max_workers)
            alive[0] += self.config.max_workers
            peak[0] = max(peak[0], alive[0])
        return make_pool(self)

    def counting_discard_pool(self, wait):
        with lock:
            alive[0] -= self.config.max_workers if self._pool is not None else 0
        discard_pool(self, wait)

    monkeypatch.setattr(ProcessExecutor, "_make_pool", counting_make_pool)
    monkeypatch.setattr(ProcessExecutor, "_discard_pool", counting_discard_pool)
    return sizes, peak


def test_max_workers_defaults_to_the_usable_cpus(monkeypatch):
    assert EngineConfig().max_workers == usable_cpus()
    monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda: None)
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    _stub_cpus(monkeypatch, 4)
    assert EngineConfig().max_workers == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert EngineConfig().max_workers == 1


@pytest.mark.parametrize(
    "cpu_max,expected",
    [
        ("max 100000\n", 8),
        ("150000 100000\n", 2),
        ("50000 100000\n", 1),
        ("garbage\n", 8),
    ],
    ids=["max", "one-and-a-half-cpus", "half-a-cpu", "garbage"],
)
def test_usable_cpus_honours_a_cgroup_v2_cpu_quota(monkeypatch, tmp_path, cpu_max, expected):
    """A container capped by ``cpu.max`` sizes its default pool by the quota
    (rounded up), not by the host's CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(8)), raising=False)
    cpu_max_file = tmp_path / "cpu.max"
    cpu_max_file.write_text(cpu_max)
    monkeypatch.setattr(engine, "_cgroup_cpu_max_path", lambda: str(cpu_max_file))
    assert usable_cpus() == EngineConfig().max_workers == expected
    cpu_max_file.unlink()  # no cgroup v2 file: no limit
    assert usable_cpus() == 8


def test_a_spec_without_an_engine_block_fans_out_over_one_pool(monkeypatch, tmp_path):
    _stub_cpus(monkeypatch, 2)
    sizes, _peak = _count_pools(monkeypatch)
    data = RunSpec.from_file(SPECS / "smoke_caching.json").to_dict()
    del data["engine"]
    data["checkpoint"] = False
    default = run(RunSpec.from_dict(data), store=tmp_path / "default", eval_store=None)
    assert sizes == [2]
    data["engine"] = {"max_workers": 1}
    serial = run(RunSpec.from_dict(data), store=tmp_path / "serial", eval_store=None)
    assert sizes == [2]  # max_workers 1 is the in-process reference path
    default_bytes = (default.artifact_dir / "result.json").read_bytes()
    assert default_bytes == (serial.artifact_dir / "result.json").read_bytes()


def _sweep_spec(seeds, engine=None):
    data = _spec(engine or {}).to_dict()
    data["search"] = {"rounds": 2, "candidates_per_round": 6}
    data.pop("fidelity")
    data["seeds"] = seeds
    return RunSpec.from_dict(data)


def _digests(sweep):
    return [(o.seed, (o.artifact_dir / "result.json").read_bytes()) for o in sweep.outcomes]


def test_a_default_sweep_runs_its_seeds_in_turn_on_every_cpu(monkeypatch, tmp_path):
    """A spec that leaves ``max_workers`` unset gets a pool of every CPU per
    seed, so its seeds run one at a time: never more workers than CPUs."""
    _stub_cpus(monkeypatch, 4)
    sizes, peak = _count_pools(monkeypatch)
    spec = _sweep_spec([0, 1, 2, 3])
    assert seeds_in_flight(spec) == 1
    pooled = run_sweep(spec, store=tmp_path / "pooled", eval_store=None)
    assert sizes == [4] * 4
    assert peak == [4]
    serial = run_sweep(
        _sweep_spec([0, 1, 2, 3], {"max_workers": 1}), store=tmp_path / "serial", eval_store=None
    )
    assert sizes == [4] * 4
    assert _digests(pooled) == _digests(serial)


def test_a_sweep_honours_an_explicit_max_workers_and_max_parallel(monkeypatch, tmp_path):
    _stub_cpus(monkeypatch, 4)
    sizes, _peak = _count_pools(monkeypatch)
    spec = _sweep_spec([0, 1], {"max_workers": 3})
    assert seeds_in_flight(spec) == 2  # a seed per CPU, as many as there are
    run_sweep(spec, store=tmp_path, eval_store=None)
    assert sizes == [3, 3]
    assert seeds_in_flight(_sweep_spec([0, 1, 2]), max_parallel=2) == 2
