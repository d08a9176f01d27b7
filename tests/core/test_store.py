"""The persistent evaluation store: addressing, robustness, GC, contention.

The store's contract is "never wrong, at worst slow": any malformed pack --
truncated JSON, garbage, another schema version, another eval key's pack --
must read as a miss (falling back to fresh evaluation), and concurrent
processes sharing one directory must never observe a torn pack.
"""

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import EvaluationResult
from repro.core.store import (
    STALE_TMP_AGE_S,
    STORE_SCHEMA_VERSION,
    EvaluationStore,
)

EVAL_KEY = "e" * 64
OTHER_EVAL_KEY = "f" * 64


def result_for(score: float, **kwargs) -> EvaluationResult:
    return EvaluationResult(score=score, valid=True, **kwargs)


def store_in(tmp_path, **kwargs) -> EvaluationStore:
    return EvaluationStore(tmp_path / "evalstore", **kwargs)


def packs(store, eval_key=EVAL_KEY):
    return sorted(store.eval_dir(eval_key).glob("*.json"))


# -- round-trip ---------------------------------------------------------------------


def test_roundtrip_preserves_result_fields(tmp_path):
    store = store_in(tmp_path)
    original = EvaluationResult(
        score=-0.25,
        valid=True,
        details={"miss_ratio": 0.25, "evictions": 12.0},
        scenario_scores={"zipf": -0.2, "scan": -0.3},
        wall_time_s=0.5,
    )
    assert store.put(EVAL_KEY, "prog1", original)
    loaded = store.get(EVAL_KEY, "prog1")
    assert loaded is not None
    assert loaded.score == original.score
    assert loaded.valid is True
    assert loaded.details == original.details
    assert loaded.scenario_scores == original.scenario_scores


def test_roundtrip_nonfinite_scores(tmp_path):
    store = store_in(tmp_path)
    failure = EvaluationResult.failure("crashed", float("-inf"))
    store.put(EVAL_KEY, "bad", failure)
    loaded = store.get(EVAL_KEY, "bad")
    assert loaded is not None
    assert loaded.score == float("-inf")
    assert not loaded.valid
    assert loaded.error == "crashed"


def test_miss_on_unknown_keys(tmp_path):
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog1", result_for(1.0))
    assert store.get(EVAL_KEY, "prog2") is None
    assert store.get(OTHER_EVAL_KEY, "prog1") is None


def test_eval_configs_are_isolated(tmp_path):
    """The same program under two evaluator configs has two entries."""
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog", result_for(1.0))
    store.put(OTHER_EVAL_KEY, "prog", result_for(2.0))
    assert store.get(EVAL_KEY, "prog").score == 1.0
    assert store.get(OTHER_EVAL_KEY, "prog").score == 2.0
    assert store.stats().eval_configs == 2


def test_unwritable_store_degrades_to_not_persisted(tmp_path):
    """A broken store (unwritable path, full disk) must never abort the
    search: put() returns False instead of raising."""
    store = store_in(tmp_path)
    # A regular file where the schema tree should be makes every mkdir fail
    # with an OSError (chmod tricks don't work when tests run as root).
    store.root.mkdir(parents=True)
    store.schema_root.touch()
    assert not store.put(EVAL_KEY, "prog", result_for(1.0))
    assert store.write_errors == 1
    assert store.get(EVAL_KEY, "prog") is None


def test_transient_results_are_never_persisted(tmp_path):
    store = store_in(tmp_path)
    timeout = EvaluationResult.failure("timed out", -1.0, transient=True)
    assert not store.put(EVAL_KEY, "slow", timeout)
    assert store.get(EVAL_KEY, "slow") is None
    assert store.stats().entries == 0


# -- packs ------------------------------------------------------------------------


def test_put_many_writes_one_pack_and_skips_transient_results(tmp_path):
    store = store_in(tmp_path)
    timeout = EvaluationResult.failure("timed out", -1.0, transient=True)
    items = [("a", result_for(1.0)), ("slow", timeout), ("b", result_for(2.0))]
    assert store.put_many(EVAL_KEY, items) == 2
    (pack,) = packs(store)
    payload = json.loads(pack.read_text())
    assert sorted(payload["entries"]) == ["a", "b"]
    assert payload["eval_key"] == EVAL_KEY
    assert store.put_many(EVAL_KEY, [("slow", timeout)]) == 0
    assert len(packs(store)) == 1
    reader = store_in(tmp_path)
    assert reader.get(EVAL_KEY, "b").score == 2.0
    assert reader.get(EVAL_KEY, "slow") is None


def test_wide_scenario_maps_round_trip_inline(tmp_path):
    store = store_in(tmp_path)
    scores = {f"scenario-{i:03d}": -i / 100 for i in range(64)}
    store.put(EVAL_KEY, "wide", EvaluationResult(score=-0.5, valid=True, scenario_scores=scores))
    files = [path for path in store.schema_root.rglob("*") if path.is_file()]
    assert [path.suffix for path in files] == [".json"]
    assert store_in(tmp_path).get(EVAL_KEY, "wide").scenario_scores == scores


# -- corruption / schema tolerance --------------------------------------------------


def test_truncated_json_entry_degrades_to_miss(tmp_path):
    store = store_in(tmp_path)
    store.put_many(EVAL_KEY, [("prog", result_for(1.0)), ("other", result_for(2.0))])
    (pack,) = packs(store)
    pack.write_text(pack.read_text()[:20])
    reader = store_in(tmp_path)
    assert reader.get(EVAL_KEY, "prog") is None
    assert reader.get(EVAL_KEY, "other") is None
    assert reader.corrupt_reads == 1  # one damaged pack, read once


def test_garbage_entry_degrades_to_miss(tmp_path):
    store = store_in(tmp_path)
    entry = store.entry_path(EVAL_KEY, "prog")
    entry.parent.mkdir(parents=True)
    entry.write_text("not json at all {{{")
    assert store.get(EVAL_KEY, "prog") is None


def test_schema_version_mismatch_is_a_silent_miss(tmp_path):
    """A future (or past) payload schema must be ignored, never misread."""
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog", result_for(1.0))
    (pack,) = packs(store)
    payload = json.loads(pack.read_text())
    payload["schema_version"] = STORE_SCHEMA_VERSION + 1
    pack.write_text(json.dumps(payload))
    reader = store_in(tmp_path)
    assert reader.get(EVAL_KEY, "prog") is None
    # Not corruption -- a cleanly-written foreign schema.
    assert reader.corrupt_reads == 0


def test_key_mismatch_inside_payload_is_a_miss(tmp_path):
    """A pack copied into another eval key's directory cannot resurface there."""
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog", result_for(1.0))
    (pack,) = packs(store)
    store.eval_dir(OTHER_EVAL_KEY).mkdir(parents=True)
    shutil.copy(pack, store.eval_dir(OTHER_EVAL_KEY) / pack.name)
    reader = store_in(tmp_path)
    assert reader.get(OTHER_EVAL_KEY, "prog") is None
    assert reader.corrupt_reads == 1
    assert reader.get(EVAL_KEY, "prog").score == 1.0


# -- stats / gc / clear -------------------------------------------------------------


def test_stats_counts_entries_and_bytes(tmp_path):
    store = store_in(tmp_path)
    store.put_many(EVAL_KEY, [(f"prog{i}", result_for(float(i))) for i in range(3)])
    for i in range(3, 5):
        store.put(EVAL_KEY, f"prog{i}", result_for(float(i)))
    stats = store.stats()
    assert len(packs(store)) == 3
    assert stats.entries == 5  # results, not files
    assert stats.total_bytes == sum(path.stat().st_size for path in packs(store))
    assert stats.eval_configs == 1
    assert stats.schema_version == STORE_SCHEMA_VERSION


def test_gc_evicts_least_recently_used_first(tmp_path):
    store = store_in(tmp_path)
    for i in range(4):
        before = set(packs(store))
        store.put_many(EVAL_KEY, [(f"prog{i}{half}", result_for(float(i))) for half in "ab"])
        (pack,) = set(packs(store)) - before
        # Distinct mtimes even on coarse-grained filesystems.
        os.utime(pack, (1_000_000 + i, 1_000_000 + i))
    # A hit refreshes its pack's recency, so batch 1 becomes the LRU victim.
    assert store_in(tmp_path).get(EVAL_KEY, "prog0a") is not None
    outcome = store.gc(max_entries=5)
    # Eviction is per pack: batches 1 and 2 go whole, 4 results for 2 packs.
    assert outcome.removed_entries == 4
    assert outcome.remaining_entries == 4
    reader = store_in(tmp_path)
    for key in ("prog1a", "prog1b", "prog2a", "prog2b"):
        assert reader.get(EVAL_KEY, key) is None
    for key in ("prog0a", "prog0b", "prog3a", "prog3b"):
        assert reader.get(EVAL_KEY, key) is not None


def test_gc_byte_bound(tmp_path):
    store = store_in(tmp_path)
    for i in range(6):
        store.put(EVAL_KEY, f"prog{i}", result_for(float(i)))
    total = store.stats().total_bytes
    outcome = store.gc(max_bytes=total // 2)
    assert outcome.remaining_bytes <= total // 2
    assert outcome.removed_entries >= 3


def test_bounded_store_self_collects_on_put(tmp_path):
    store = store_in(tmp_path, max_entries=3, gc_interval=1)
    for i in range(8):
        store.put(EVAL_KEY, f"prog{i}", result_for(float(i)))
    assert store.stats().entries <= 3


def test_gc_removes_foreign_schema_trees_and_dangling_sidecars(tmp_path):
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog", result_for(1.0))
    old = store.root / "v0" / "aa" / ("a" * 64)
    old.mkdir(parents=True)
    (old / "stale.json").write_text("{}")
    dangling = store.entry_path(EVAL_KEY, "gone").with_suffix(".npz")
    dangling.write_bytes(b"orphan")
    store.gc(max_entries=10)
    assert not (store.root / "v0").exists()
    assert not dangling.exists()
    assert store.get(EVAL_KEY, "prog") is not None


def test_gc_and_clear_never_touch_foreign_directories(tmp_path):
    """Pointing the store at a directory holding other data (say, an
    artifact root) must not destroy it: only v<N> schema trees are ours."""
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog", result_for(1.0))
    run_dir = store.root / "smoke-caching-abc-s0"
    run_dir.mkdir(parents=True)
    (run_dir / "result.json").write_text("{}")
    (store.root / "sweep.json").write_text("{}")
    store.gc(max_entries=0)
    store.clear()
    assert (run_dir / "result.json").exists()
    assert (store.root / "sweep.json").exists()


def test_gc_on_empty_or_missing_store_is_a_no_op(tmp_path):
    # Root directory does not even exist yet.
    store = store_in(tmp_path)
    outcome = store.gc(max_entries=0)
    assert outcome.removed_entries == 0 and outcome.freed_bytes == 0
    assert outcome.remaining_entries == 0 and outcome.remaining_bytes == 0
    assert store.clear() == 0
    # An existing-but-empty schema tree behaves the same.
    store.schema_root.mkdir(parents=True)
    outcome = store.gc(max_bytes=0)
    assert outcome.removed_entries == 0 and outcome.remaining_entries == 0


def test_gc_max_bytes_zero_evicts_every_entry(tmp_path):
    store = store_in(tmp_path)
    wide = {f"scenario-{i}": float(i) for i in range(33)}
    store.put(EVAL_KEY, "plain", result_for(1.0))
    store.put(EVAL_KEY, "wide", result_for(2.0, scenario_scores=wide))
    total = store.stats().total_bytes
    outcome = store.gc(max_bytes=0)
    assert outcome.removed_entries == 2
    assert outcome.freed_bytes == total
    assert outcome.remaining_entries == 0 and outcome.remaining_bytes == 0
    assert store.get(EVAL_KEY, "plain") is None
    assert not list(store.schema_root.rglob("*.json"))


def test_gc_collects_a_sidecar_only_store(tmp_path):
    """A crash between sidecar and entry writes can leave a store holding
    nothing but orphaned ``.npz`` files; GC must sweep them without counting
    them as evicted entries."""
    store = store_in(tmp_path)
    orphan_dir = store.schema_root / "aa" / EVAL_KEY
    orphan_dir.mkdir(parents=True)
    for i in range(3):
        (orphan_dir / f"prog{i}.npz").write_bytes(b"orphan")
    outcome = store.gc(max_entries=10)
    assert outcome.removed_entries == 0
    assert not list(store.schema_root.rglob("*.npz"))
    assert store.stats().entries == 0


def test_gc_collects_an_unreadable_pack_as_garbage_not_as_an_entry(tmp_path):
    """A truncated pack holds no result a reader can use: stats do not count
    it, and gc removes it rather than evicting a valid pack in its place."""
    store = store_in(tmp_path)
    for i, names in enumerate((["prog0a", "prog0b"], ["prog1"], ["prog2"])):
        before = set(packs(store))
        store.put_many(EVAL_KEY, [(name, result_for(float(i))) for name in names])
        (pack,) = set(packs(store)) - before
        os.utime(pack, (1_000_000 + i, 1_000_000 + i))
    pack.write_text(pack.read_text()[:20])  # the newest pack, prog2's
    assert store.stats().entries == 3
    outcome = store.gc(max_entries=1)
    assert not pack.exists()
    assert (outcome.removed_entries, outcome.remaining_entries) == (2, 1)
    assert store_in(tmp_path).get(EVAL_KEY, "prog1") is not None


def test_clear_counts_an_unreadable_pack_as_stats_does(tmp_path):
    """A truncated pack holds no entry for clear either, not one."""
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog0", result_for(0.0))
    before = set(packs(store))
    store.put_many(EVAL_KEY, [("prog1a", result_for(1.0)), ("prog1b", result_for(1.0))])
    (pack,) = set(packs(store)) - before
    pack.write_text(pack.read_text()[:20])
    assert store.stats().entries == 1
    assert store.clear() == 1
    assert not store.schema_root.exists()


def test_clear_removes_everything(tmp_path):
    store = store_in(tmp_path)
    for i in range(3):
        store.put(EVAL_KEY, f"prog{i}", result_for(float(i)))
    assert store.clear() == 3
    assert store.stats().entries == 0
    assert store.get(EVAL_KEY, "prog0") is None


def test_clear_and_gc_empty_the_in_memory_index(tmp_path):
    """What an object wrote or read is served from memory until clear/gc."""
    store = store_in(tmp_path)
    store.put_many(EVAL_KEY, [("a", result_for(1.0)), ("b", result_for(2.0))])
    assert store.get(EVAL_KEY, "a").score == 1.0
    assert store.clear() == 2
    assert store.get(EVAL_KEY, "a") is None and store.get(EVAL_KEY, "b") is None
    store.put(EVAL_KEY, "c", result_for(3.0))
    store.gc(max_entries=0)
    assert store.get(EVAL_KEY, "c") is None


def test_gc_removes_stale_temp_files(tmp_path):
    """A writer killed between mkstemp and os.replace leaves a ``.tmp``
    behind: gc removes it once it is older than any write in flight."""
    store = store_in(tmp_path)
    store.put(EVAL_KEY, "prog", result_for(1.0))
    directory = store.eval_dir(EVAL_KEY)
    stale = directory / "tmpdead.tmp"
    stale.write_text("x" * 100)
    old = time.time() - STALE_TMP_AGE_S - 60
    os.utime(stale, (old, old))
    fresh = directory / "tmpbusy.tmp"
    fresh.write_text("partial")
    outcome = store.gc()
    assert not stale.exists()
    assert fresh.exists()
    assert outcome.freed_bytes == 100
    assert outcome.removed_entries == 0 and outcome.remaining_entries == 1
    assert store_in(tmp_path).get(EVAL_KEY, "prog").score == 1.0


def test_a_v1_tree_reads_as_misses_and_gc_removes_it(tmp_path):
    """A store written before packs (one file + ``.npz`` per result) is
    ignored, never misread, and gc removes it: an upgrade starts cold once."""
    fixture = Path(__file__).resolve().parents[1] / "golden" / "evalstore_5e31b47"
    shutil.copytree(fixture, tmp_path / "evalstore")
    store = store_in(tmp_path)
    old_files = [path for path in (store.root / "v1").rglob("*") if path.is_file()]
    assert len(old_files) == 3
    for program_key in ("a" * 40, "b" * 40):
        assert store.get(EVAL_KEY, program_key) is None
    assert store.corrupt_reads == 0
    assert store.stats().entries == 0
    old_bytes = sum(path.stat().st_size for path in old_files)
    outcome = store.gc()
    assert not (store.root / "v1").exists()
    assert outcome.removed_entries == 2
    assert outcome.freed_bytes == old_bytes


def test_a_second_store_object_sees_packs_written_after_its_first_miss(tmp_path):
    writer, reader = store_in(tmp_path), store_in(tmp_path)
    writer.put(EVAL_KEY, "first", result_for(1.0))
    # Date the directory back, so the reader's listing below cannot share
    # an mtime tick with the write after it.
    os.utime(reader.eval_dir(EVAL_KEY), ns=(1, 1))
    assert reader.get(EVAL_KEY, "second") is None
    writer.put_many(EVAL_KEY, [("second", result_for(2.0)), ("third", result_for(3.0))])
    assert reader.get(EVAL_KEY, "second").score == 2.0
    assert reader.get(EVAL_KEY, "third").score == 3.0
    assert reader.get(EVAL_KEY, "first").score == 1.0


def test_store_validation():
    with pytest.raises(ValueError):
        EvaluationStore("x", max_entries=-1)
    with pytest.raises(ValueError):
        EvaluationStore("x", max_bytes=-1)
    with pytest.raises(ValueError):
        EvaluationStore("x", gc_interval=0)
    store = EvaluationStore("x")
    with pytest.raises(ValueError):
        store.entry_path("", "p")
    with pytest.raises(ValueError):
        store.bind("")


# -- contention: two processes, one directory ---------------------------------------


def _hammer_store(args):
    """Worker: interleave writes and reads against the shared directory."""
    root, worker, rounds = args
    store = EvaluationStore(root)
    mismatches = 0
    for i in range(rounds):
        key = f"prog{i % 10}"
        expected = float(i % 10)
        store.put(EVAL_KEY, key, EvaluationResult(score=expected, valid=True))
        loaded = store.get(EVAL_KEY, key)
        # A concurrent GC/clear could make this a miss; a *wrong* score never.
        if loaded is not None and loaded.score != expected:
            mismatches += 1
    return mismatches


def test_two_processes_share_one_store_directory(tmp_path):
    """Concurrent writers/readers: atomic replace means no torn entries and
    never a wrong score -- the write-same-content race is benign."""
    root = str(tmp_path / "shared-store")
    with ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(
            pool.map(_hammer_store, [(root, w, 60) for w in range(2)])
        )
    assert outcomes == [0, 0]
    store = EvaluationStore(root)
    assert store.stats().entries == 10
    for i in range(10):
        assert store.get(EVAL_KEY, f"prog{i}").score == float(i)


def test_threads_sharing_one_store_object_read_their_own_writes(tmp_path):
    """A sweep's seed threads share one store object and so its index:
    under forced thread switches, every thread reads back what it wrote."""
    store = store_in(tmp_path)
    failures = []

    def worker(thread):
        for i in range(30):
            keys = [f"t{thread}-{i}-{j}" for j in range(3)] + [f"shared-{i}"]
            store.put_many(EVAL_KEY, [(key, result_for(float(len(key)))) for key in keys])
            for key in keys:
                loaded = store.get(EVAL_KEY, key)
                if loaded is None or loaded.score != float(len(key)):
                    failures.append((key, loaded))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert store_in(tmp_path).stats().entries >= 4 * 30 * 3


# -- model-based: two objects, one directory, one damaged pack ----------------------

PROGRAM_KEYS = [f"prog{i}" for i in range(5)]


def model_result(eval_key: str, program_key: str) -> EvaluationResult:
    """The one result each (eval key, program key) ever has."""
    offset = 0.0 if eval_key == EVAL_KEY else 100.0
    index = float(PROGRAM_KEYS.index(program_key))
    return result_for(offset + index, details={"index": index}, scenario_scores={"s": -index})


GARBAGE = [
    "not json at all {{{",
    "[1, 2, 3]",
    json.dumps({"schema_version": STORE_SCHEMA_VERSION, "eval_key": EVAL_KEY,
                "entries": {"prog0": 5, "prog1": {"score": "x", "valid": True}}}),
]

STORE_OPS = st.one_of(
    st.tuples(st.just("put_many"), st.lists(st.sampled_from(PROGRAM_KEYS), max_size=4)),
    st.tuples(st.just("put"), st.sampled_from(PROGRAM_KEYS)),
    st.tuples(st.just("get"), st.sampled_from(PROGRAM_KEYS)),
    st.tuples(st.just("gc"), st.integers(0, 6)),
    st.tuples(st.just("clear"), st.none()),
)


def _damage(root: Path, pick: int, how: int) -> None:
    """Truncate a pack, copy one into the other eval key's directory, or drop
    a garbage one into an eval key (``how`` -1, -2, or a :data:`GARBAGE` index)."""
    store = EvaluationStore(root)
    found = sorted(store.schema_root.rglob("*.json"))
    if found and how < 0:
        pack = found[pick % len(found)]
        if how == -1:
            pack.write_text(pack.read_text()[: pick % 40])
            return
        other = OTHER_EVAL_KEY if pack.parent.name == EVAL_KEY else EVAL_KEY
        store.eval_dir(other).mkdir(parents=True, exist_ok=True)
        shutil.copy(pack, store.eval_dir(other) / pack.name)
        return
    directory = store.eval_dir(EVAL_KEY)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{'0' * 39}{pick % 10}.json").write_text(GARBAGE[how % len(GARBAGE)])


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from([EVAL_KEY, OTHER_EVAL_KEY]), STORE_OPS),
        max_size=24,
    ),
    damage_at=st.integers(0, 24),
    pick=st.integers(0, 1000),
    how=st.integers(-2, len(GARBAGE) - 1),
)
def test_two_objects_never_read_a_result_other_than_the_one_written(
    steps, damage_at, pick, how
):
    with tempfile.TemporaryDirectory() as root:
        stores = [EvaluationStore(root), EvaluationStore(root)]
        for step, (who, eval_key, (op, arg)) in enumerate(steps):
            if step == damage_at:
                _damage(Path(root), pick, how)
            store = stores[who]
            if op == "put_many":
                items = [(key, model_result(eval_key, key)) for key in arg]
                assert store.put_many(eval_key, items) == len(set(arg))
            elif op == "put":
                assert store.put(eval_key, arg, model_result(eval_key, arg))
            elif op == "get":
                loaded = store.get(eval_key, arg)
                assert loaded is None or loaded == model_result(eval_key, arg)
            elif op == "gc":
                store.gc(max_entries=arg)
            else:
                store.clear()
        if damage_at >= len(steps):
            _damage(Path(root), pick, how)
        # Whatever survived reads back as written, through a fresh object too.
        for store in (*stores, EvaluationStore(root)):
            for eval_key in (EVAL_KEY, OTHER_EVAL_KEY):
                for key in PROGRAM_KEYS:
                    loaded = store.get(eval_key, key)
                    assert loaded is None or loaded == model_result(eval_key, key)
