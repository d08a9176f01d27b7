"""Persistent content-addressed evaluation store: the engine's disk memo tier.

Nearly all of a search's wall-clock goes to re-evaluating candidate
programs, and the in-memory memo (:class:`~repro.core.engine.EvaluationEngine`)
dies with the process.  This module persists evaluation results on disk so
sweep seeds, ``repro resume`` and repeated ``run(spec)`` invocations
warm-start across processes: the engine's lookup order becomes
memory -> disk -> evaluate.

Keying
------
An entry is addressed by three coordinates:

* the **program key** -- SHA-1 of the candidate's canonical source (the same
  :func:`~repro.dsl.codegen.canonical_key` the memo uses), so syntactic
  variants share one entry;
* the **evaluation-config key** -- SHA-256 of the canonical JSON of
  everything that determines a program's score (domain name + declarative
  ``domain_kwargs``; see :meth:`~repro.core.spec.RunSpec.eval_config_hash`),
  so different traces/scenarios/backends can never alias;
* the **store schema version** -- bumped when the payload layout changes;
  entries written by another schema are ignored, never misread.

Layout: ``<root>/v<schema>/<eval key prefix>/<eval key>/<pack>.json``.  A
*pack* is one evaluated batch -- ``{"schema_version", "eval_key",
"entries": {program key: result}}`` -- written once and never modified,
named by the SHA-1 of its payload, so a batch costs one file however many
results it holds.  Everything about the store is defensive: writes are
atomic (temp file + ``os.replace``; two writers of the same batch replace
each other harmlessly) so concurrent processes sharing one directory can
never observe a torn pack; reads treat *any* malformed pack -- truncated
JSON, a schema or eval-key mismatch -- as a miss and fall back to fresh
evaluation (wrong scores are impossible, only wasted work).  Each store
object indexes the packs it has read or written in memory and re-lists an
eval key's directory only on a miss after the directory's mtime moved, so
another process's pack becomes visible at the first miss after it lands
(one written in the same mtime tick as a listing may stay hidden until the
next write: a re-evaluation, never a wrong score).  A hit touches the
pack's mtime, which is what makes :meth:`EvaluationStore.gc`'s oldest-first
eviction an LRU over packs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.archive import evaluation_from_dict, evaluation_to_dict
from repro.core.evaluator import EvaluationResult

#: Version of the on-disk payload; readers ignore packs written by any
#: other schema (bump on breaking changes to the payload layout).  2: one
#: pack per batch replaced one file (plus ``.npz`` sidecar) per result.
STORE_SCHEMA_VERSION = 2

#: A temp file older than this (seconds) is an orphan -- its writer died
#: between ``mkstemp`` and ``os.replace`` -- and :meth:`ContentAddressedStore.gc`
#: removes it; a younger one may be a write in flight.
STALE_TMP_AGE_S = 3600.0

_ENTRY_SUFFIX = ".json"
_TMP_SUFFIX = ".tmp"

#: Schema trees are the only directories gc/clear may remove wholesale.
_SCHEMA_DIR_RE = re.compile(r"v\d+")

#: Where writer registrations live (outside the schema trees: gc never
#: touches them, only :meth:`ContentAddressedStore.clear` does).
_WRITERS_DIRNAME = "writers"


@dataclass(frozen=True)
class StoreStats:
    """What ``repro store stats`` reports.

    ``writers`` counts the distinct registered writers -- runs and sweep
    seeds that announced themselves via
    :meth:`ContentAddressedStore.register_writer` -- so operators can see
    how many concurrent producers have shared this tree.  ``writer_records``
    carries their registration payloads (host, pid, label, start time).
    """

    root: str
    schema_version: int
    entries: int
    total_bytes: int
    eval_configs: int
    writers: int = 0
    writer_records: Tuple[dict, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "schema_version": self.schema_version,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "eval_configs": self.eval_configs,
            "writers": {
                "count": self.writers,
                "records": list(self.writer_records),
            },
        }


@dataclass(frozen=True)
class GcOutcome:
    """What one :meth:`ContentAddressedStore.gc` pass removed and kept."""

    removed_entries: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int


class ContentAddressedStore:
    """Shared disk machinery for schema-versioned content-addressed caches.

    Subclasses (:class:`EvaluationStore`, the prompt cache in
    :mod:`repro.llm.cache`) define *what* an entry holds; this base owns the
    defensive plumbing they must agree on: the ``v<schema>`` root, atomic
    temp-file writes, mtime touch-on-hit, and LRU garbage collection that
    only ever deletes ``v<N>`` trees (anything else under the root is not
    ours to remove).

    ``max_entries`` / ``max_bytes`` (optional) bound the store: every
    ``gc_interval`` writes the store garbage-collects itself down to the
    bounds, evicting least-recently-*used* files first.  ``max_entries``
    counts what the files hold (:meth:`_entry_count`), not files.  An
    unbounded store only collects when :meth:`gc` is called explicitly (the
    ``repro store gc`` command).
    """

    #: On-disk payload schema of the concrete store (subclasses override).
    schema_version: int = 1

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        gc_interval: int = 64,
    ):
        self.root = Path(root)
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries cannot be negative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes cannot be negative")
        if gc_interval <= 0:
            raise ValueError("gc_interval must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.gc_interval = gc_interval
        self._puts_since_gc = 0
        # Diagnostics (per-process, best effort under concurrency).
        self.corrupt_reads = 0
        self.write_errors = 0
        self._forget()

    # -- addressing ---------------------------------------------------------------

    @property
    def schema_root(self) -> Path:
        return self.root / f"v{self.schema_version}"

    @property
    def writers_root(self) -> Path:
        return self.root / _WRITERS_DIRNAME

    # -- writer registry ----------------------------------------------------------

    def register_writer(self, label: str) -> None:
        """Announce this process as a writer of the store (best effort).

        One JSON record per (host, pid, label) under ``<root>/writers/``;
        purely observability -- ``repro store stats`` surfaces the distinct
        holders so operators can see multi-run/multi-host sharing.  Never
        raises: a store that cannot record writers must still serve entries.
        """
        host = socket.gethostname()
        pid = os.getpid()
        writer_id = hashlib.sha1(f"{host}:{pid}:{label}".encode("utf-8")).hexdigest()[:16]
        record = {
            "writer_id": writer_id,
            "host": host,
            "pid": pid,
            "label": label,
            "started": time.time(),
        }
        try:
            self.writers_root.mkdir(parents=True, exist_ok=True)
            self._atomic_write_text(
                self.writers_root / f"{writer_id}.json",
                json.dumps(record, sort_keys=True),
            )
        except OSError:
            self.write_errors += 1

    def writer_records(self) -> List[dict]:
        """Every readable writer registration, sorted by start time."""
        records = []
        if not self.writers_root.is_dir():
            return records
        for path in self.writers_root.glob("*.json"):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                records.append(record)
        records.sort(key=lambda r: (r.get("started", 0.0), r.get("writer_id", "")))
        return records

    # -- write/gc bookkeeping -----------------------------------------------------

    def _note_put(self) -> None:
        """Count one successful write; periodically GC a bounded store."""
        self._puts_since_gc += 1
        if (
            (self.max_entries is not None or self.max_bytes is not None)
            and self._puts_since_gc >= self.gc_interval
        ):
            self._puts_since_gc = 0
            self.gc()

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:  # a concurrent GC may have evicted the entry
            pass

    @staticmethod
    def _atomic_write_text(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=_TMP_SUFFIX)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance --------------------------------------------------------------

    def _forget(self) -> None:
        """Drop what this object remembers of the tree (on init, gc, clear)."""

    def _entry_count(self, path: Path) -> int:
        """How many entries the file at ``path`` holds (one per file here)."""
        return 1

    def _scan(self) -> Tuple[List[Tuple[Path, float, int, int]], List[Tuple[Path, int]]]:
        """The schema tree's files: entries and garbage.

        Entries come as ``(path, mtime, bytes, entries held)``; garbage as
        ``(path, bytes)`` -- every other file, except a temp file younger
        than :data:`STALE_TMP_AGE_S` (a write that may still be in flight).
        """
        entries: List[Tuple[Path, float, int, int]] = []
        garbage: List[Tuple[Path, int]] = []
        if not self.schema_root.exists():
            return entries, garbage
        stale_before = time.time() - STALE_TMP_AGE_S
        for path in self.schema_root.rglob("*"):
            try:
                if not path.is_file():
                    continue
                stat = path.stat()
                if path.suffix == _ENTRY_SUFFIX:
                    count = self._entry_count(path)
                    entries.append((path, stat.st_mtime, stat.st_size, count))
                elif path.suffix != _TMP_SUFFIX or stat.st_mtime < stale_before:
                    garbage.append((path, stat.st_size))
            except OSError:  # racing a concurrent GC/clear
                continue
        return entries, garbage

    def stats(self) -> StoreStats:
        entries, _garbage = self._scan()
        writer_records = self.writer_records()
        return StoreStats(
            root=str(self.root),
            schema_version=self.schema_version,
            entries=sum(count for *_rest, count in entries),
            total_bytes=sum(size for _path, _mtime, size, _count in entries),
            eval_configs=len({path.parent for path, *_rest in entries}),
            writers=len(writer_records),
            writer_records=tuple(writer_records),
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> GcOutcome:
        """Evict least-recently-used files until within the given bounds.

        Bounds default to the store's configured ``max_entries`` /
        ``max_bytes``; with neither set anywhere, GC only removes garbage
        (see :meth:`_scan`; its bytes count in ``freed_bytes``) and trees of
        other schema versions.
        """
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        removed = 0
        freed = 0
        # Entries written by another schema are dead weight: unreadable by
        # this version, invisible to its LRU.  Only ``v<N>`` trees qualify --
        # anything else under the root is not ours to delete (e.g. the store
        # was pointed at an artifact root by mistake).
        if self.root.exists():
            for child in self.root.iterdir():
                if (
                    child.is_dir()
                    and child != self.schema_root
                    and _SCHEMA_DIR_RE.fullmatch(child.name)
                ):
                    removed_c, freed_c = self._remove_tree(child)
                    removed += removed_c
                    freed += freed_c
        entries, garbage = self._scan()
        for path, size in garbage:
            if self._unlink(path):
                freed += size
        entries.sort(key=lambda item: item[1])  # oldest mtime first
        live = sum(count for *_rest, count in entries)
        live_bytes = sum(size for _path, _mtime, size, _count in entries)
        for path, _mtime, size, count in entries:
            over_entries = max_entries is not None and live > max_entries
            over_bytes = max_bytes is not None and live_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            if self._unlink(path):
                removed += count
                freed += size
                live -= count
                live_bytes -= size
        self._forget()
        return GcOutcome(
            removed_entries=removed,
            freed_bytes=freed,
            remaining_entries=live,
            remaining_bytes=live_bytes,
        )

    def clear(self) -> int:
        """Remove every entry (all schema versions); returns how many.

        Like :meth:`gc`, only ``v<N>`` schema trees (plus our own
        ``writers/`` registry) are touched: pointing ``repro store clear``
        at a directory holding anything else must not destroy that data.
        """
        removed = 0
        if self.root.exists():
            for child in list(self.root.iterdir()):
                if child.is_dir() and _SCHEMA_DIR_RE.fullmatch(child.name):
                    removed_c, _freed = self._remove_tree(child)
                    removed += removed_c
        # Writer registrations describe the entries; clearing the entries
        # retires them too (gc, by contrast, leaves them alone).
        if self.writers_root.is_dir():
            for path in self.writers_root.glob("*.json"):
                self._unlink(path)
            try:
                self.writers_root.rmdir()
            except OSError:
                pass
        self._forget()
        return removed

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def _remove_tree(self, root: Path) -> Tuple[int, int]:
        """Remove a directory tree; returns (entries removed, bytes freed)."""
        removed = 0
        freed = 0
        for path in sorted(root.rglob("*"), key=lambda p: len(p.parts), reverse=True):
            try:
                if path.is_dir():
                    path.rmdir()
                    continue
                size = path.stat().st_size
                count = self._entry_count(path) if path.suffix == _ENTRY_SUFFIX else 0
                path.unlink()
                freed += size
                removed += count
            except OSError:
                continue
        try:
            root.rmdir()
        except OSError:
            pass
        return removed, freed


class _Listing:
    """What one store object knows of one eval key's directory."""

    __slots__ = ("directory", "mtime_ns", "packs", "results")

    def __init__(self, directory: Path):
        self.directory = directory
        self.mtime_ns: Optional[int] = None  # directory mtime at the last listing
        self.packs: Set[str] = set()  # pack file names read or written
        self.results: Dict[str, Tuple[Path, dict]] = {}  # program key -> (pack, result)


class EvaluationStore(ContentAddressedStore):
    """Disk-backed evaluation results under one root directory.

    Results are written a batch at a time (:meth:`put_many`), each batch as
    one immutable pack; reads go through a per-object in-memory index of
    the packs seen so far (see the module docstring for when other
    processes' packs become visible).
    """

    schema_version = STORE_SCHEMA_VERSION

    def _forget(self) -> None:
        self._index: Dict[str, _Listing] = {}

    # -- addressing ---------------------------------------------------------------

    def eval_dir(self, eval_key: str) -> Path:
        if not eval_key:
            raise ValueError("store packs need a non-empty eval key")
        return self.schema_root / eval_key[:2] / eval_key

    def entry_path(self, eval_key: str, name: str) -> Path:
        """Where the pack ``name`` (the SHA-1 of its payload) of ``eval_key`` lives."""
        if not name:
            raise ValueError("store packs need a non-empty name")
        return self.eval_dir(eval_key) / f"{name}{_ENTRY_SUFFIX}"

    def bind(self, eval_key: str) -> "BoundEvalStore":
        """A view of the store pinned to one evaluation configuration."""
        return BoundEvalStore(self, eval_key)

    def _listing(self, eval_key: str) -> _Listing:
        # A sweep's seed threads share one store object; setdefault keeps them
        # on one listing (other races cost a re-evaluation, never a wrong score).
        listing = self._index.get(eval_key)
        return listing or self._index.setdefault(eval_key, _Listing(self.eval_dir(eval_key)))

    # -- reads --------------------------------------------------------------------

    def get(self, eval_key: str, program_key: str) -> Optional[EvaluationResult]:
        """The stored result, or ``None`` on miss *or any* malformed pack."""
        listing = self._listing(eval_key)
        if program_key not in listing.results:
            self._relist(eval_key, listing)
        hit = listing.results.get(program_key)
        if hit is None:
            return None
        path, data = hit
        try:
            result = evaluation_from_dict(data)
        except Exception:  # noqa: BLE001 - any malformed entry is a miss
            self.corrupt_reads += 1
            listing.results.pop(program_key, None)
            return None
        self._touch(path)
        return result

    def _relist(self, eval_key: str, listing: _Listing) -> None:
        """Read the packs of ``eval_key`` not seen yet, if its directory moved."""
        try:
            mtime_ns = os.stat(listing.directory).st_mtime_ns
            if mtime_ns == listing.mtime_ns:
                return
            # Taken before listing: a pack landing meanwhile moves the mtime
            # again, so the next miss looks once more.
            listing.mtime_ns = mtime_ns
            names = os.listdir(listing.directory)
        except OSError:  # no such directory (yet), or not one
            return
        for name in names:
            if name.endswith(_ENTRY_SUFFIX) and name not in listing.packs:
                self._read_pack(eval_key, listing, name)

    def _read_pack(self, eval_key: str, listing: _Listing, name: str) -> None:
        path = listing.directory / name
        listing.packs.add(name)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload["schema_version"] != self.schema_version:
                return
            if payload["eval_key"] != eval_key:
                # A moved/copied pack must not resurface under the wrong key.
                raise ValueError("pack of another eval key")
            for program_key, data in payload["entries"].items():
                listing.results.setdefault(program_key, (path, data))
        except FileNotFoundError:  # evicted by a concurrent gc
            listing.packs.discard(name)
        except Exception:  # noqa: BLE001 - any malformed pack is a miss
            self.corrupt_reads += 1

    def _entry_count(self, path: Path) -> int:
        try:
            return len(json.loads(path.read_text(encoding="utf-8"))["entries"])
        except Exception:  # noqa: BLE001 - not a readable pack: one file, one entry
            return 1

    # -- writes -------------------------------------------------------------------

    def put(self, eval_key: str, program_key: str, result: EvaluationResult) -> bool:
        """Persist one result (a pack of one); returns False when nothing was stored."""
        return self.put_many(eval_key, [(program_key, result)]) == 1

    def put_many(
        self, eval_key: str, items: Iterable[Tuple[str, EvaluationResult]]
    ) -> int:
        """Persist ``(program key, result)`` pairs as one pack; returns how many.

        Transient failures (timeouts, dead workers) describe the execution
        environment, not the program -- persisting them would replay the
        failure forever -- so they are skipped.  Deterministic failures (a
        program that always crashes) are stored like any other outcome.  A
        write that fails at the filesystem level (read-only directory, disk
        full, quota) stores nothing and returns 0: the store's contract is
        "at worst wasted work", so a broken store must never abort a
        running search.
        """
        entries = {
            program_key: evaluation_to_dict(result)
            for program_key, result in items
            if not result.transient
        }
        if not entries:
            return 0
        listing = self._listing(eval_key)
        payload = {"schema_version": self.schema_version, "eval_key": eval_key, "entries": entries}
        text = json.dumps(payload, sort_keys=True)
        path = self.entry_path(eval_key, hashlib.sha1(text.encode("utf-8")).hexdigest())
        try:
            listing.directory.mkdir(parents=True, exist_ok=True)
            self._atomic_write_text(path, text)
        except OSError:
            self.write_errors += 1
            return 0
        listing.packs.add(path.name)
        for program_key, data in entries.items():
            listing.results[program_key] = (path, data)
        self._note_put()
        return len(entries)


def fidelity_eval_key(eval_key: str, fraction: float) -> str:
    """The evaluation-config key of one fidelity rung.

    The fidelity fraction joins the content address: a rung evaluation (10%
    of the trace, 30% of the netsim run, ...) scores a *different* question
    than the full-fidelity one, so its entries live under their own
    evaluation-config key and can never collide with -- or be mistaken for
    -- full-fidelity scores.  ``fraction == 1.0`` is the identity: full
    fidelity keeps the unqualified key, so ladder and non-ladder runs share
    one warm-start population of full results.
    """
    if fraction == 1.0:
        return eval_key
    qualified = f"{eval_key}|fidelity={fraction!r}"
    return hashlib.sha256(qualified.encode("utf-8")).hexdigest()


class BoundEvalStore:
    """An :class:`EvaluationStore` view pinned to one evaluation config.

    This is what the engine holds: it only ever sees program keys, and can
    never mix entries from different evaluator configurations.
    """

    def __init__(self, store: EvaluationStore, eval_key: str):
        if not eval_key:
            raise ValueError("a BoundEvalStore needs a non-empty eval_key")
        self.store = store
        self.eval_key = eval_key

    def get(self, program_key: str) -> Optional[EvaluationResult]:
        return self.store.get(self.eval_key, program_key)

    def put(self, program_key: str, result: EvaluationResult) -> bool:
        return self.store.put(self.eval_key, program_key, result)

    def put_many(self, items: Iterable[Tuple[str, EvaluationResult]]) -> int:
        return self.store.put_many(self.eval_key, items)

    def at_fidelity(self, fraction: float) -> "BoundEvalStore":
        """A view keyed for one fidelity rung (see :func:`fidelity_eval_key`)."""
        if fraction == 1.0:
            return self
        return BoundEvalStore(self.store, fidelity_eval_key(self.eval_key, fraction))
