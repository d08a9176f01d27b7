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

Layout: ``<root>/v<schema>/<eval key prefix>/<eval key>/<program key>.json``
(plus an ``.npz`` sidecar for wide scenario matrices).  Everything about the
store is defensive: writes are atomic (temp file + ``os.replace``) so
concurrent processes sharing one directory can never observe a torn entry;
reads treat *any* malformed entry -- truncated JSON, a missing or corrupt
npz sidecar, a schema mismatch -- as a miss and fall back to fresh
evaluation (wrong scores are impossible, only wasted work).  A hit touches
the entry's mtime, which is what makes :meth:`EvaluationStore.gc`'s
oldest-first eviction an LRU.
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
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.archive import evaluation_from_dict, evaluation_to_dict
from repro.core.evaluator import EvaluationResult

#: Version of the on-disk entry payload; readers ignore entries written by
#: any other schema (bump on breaking changes to the payload layout).
STORE_SCHEMA_VERSION = 1

#: Entries whose per-scenario score/detail maps exceed this many values keep
#: the float payload in a binary ``.npz`` sidecar instead of inline JSON
#: (compact and fast to decode for wide scenario matrices).
NPZ_THRESHOLD = 32

_ENTRY_SUFFIX = ".json"
_SIDECAR_SUFFIX = ".npz"

#: Schema trees are the only directories gc/clear may remove wholesale.
_SCHEMA_DIR_RE = re.compile(r"v\d+")

#: Where writer registrations live (outside the schema trees: gc never
#: touches them, only :meth:`ContentAddressedStore.clear` does).
_WRITERS_DIRNAME = "writers"


@dataclass(frozen=True)
class StoreStats:
    """What ``repro store stats`` reports.

    ``writers`` counts the distinct registered writers -- runs, sweep seeds
    and distributed workers that announced themselves via
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
    bounds, evicting least-recently-*used* entries first.  An unbounded
    store only collects when :meth:`gc` is called explicitly (the
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
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
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

    def _entries(self) -> List[Tuple[Path, float, int]]:
        """Every entry as ``(json path, mtime, bytes incl. sidecar)``."""
        found = []
        if not self.schema_root.exists():
            return found
        for path in self.schema_root.rglob(f"*{_ENTRY_SUFFIX}"):
            try:
                stat = path.stat()
                size = stat.st_size
                sidecar = path.with_suffix(_SIDECAR_SUFFIX)
                if sidecar.exists():
                    size += sidecar.stat().st_size
                found.append((path, stat.st_mtime, size))
            except OSError:  # racing a concurrent GC/clear
                continue
        return found

    def stats(self) -> StoreStats:
        entries = self._entries()
        configs = {path.parent for path, _mtime, _size in entries}
        writer_records = self.writer_records()
        return StoreStats(
            root=str(self.root),
            schema_version=self.schema_version,
            entries=len(entries),
            total_bytes=sum(size for _path, _mtime, size in entries),
            eval_configs=len(configs),
            writers=len(writer_records),
            writer_records=tuple(writer_records),
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> GcOutcome:
        """Evict least-recently-used entries until within the given bounds.

        Bounds default to the store's configured ``max_entries`` /
        ``max_bytes``; with neither set anywhere, GC only removes dangling
        sidecars and entries from other schema versions.
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
        entries = self._entries()
        entries.sort(key=lambda item: item[1])  # oldest mtime first
        live = len(entries)
        live_bytes = sum(size for _path, _mtime, size in entries)
        for path, _mtime, size in entries:
            over_entries = max_entries is not None and live > max_entries
            over_bytes = max_bytes is not None and live_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            if self._remove_entry(path):
                removed += 1
                freed += size
                live -= 1
                live_bytes -= size
        self._remove_dangling_sidecars()
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
                try:
                    path.unlink()
                except OSError:
                    pass
            try:
                self.writers_root.rmdir()
            except OSError:
                pass
        return removed

    @staticmethod
    def _remove_entry(path: Path) -> bool:
        ok = False
        try:
            path.unlink()
            ok = True
        except OSError:
            pass
        try:
            path.with_suffix(_SIDECAR_SUFFIX).unlink()
        except OSError:
            pass
        return ok

    def _remove_dangling_sidecars(self) -> None:
        if not self.schema_root.exists():
            return
        for sidecar in self.schema_root.rglob(f"*{_SIDECAR_SUFFIX}"):
            if not sidecar.with_suffix(_ENTRY_SUFFIX).exists():
                try:
                    sidecar.unlink()
                except OSError:
                    pass

    @staticmethod
    def _remove_tree(root: Path) -> Tuple[int, int]:
        """Remove a directory tree; returns (entries removed, bytes freed)."""
        removed = 0
        freed = 0
        for path in sorted(root.rglob("*"), key=lambda p: len(p.parts), reverse=True):
            try:
                if path.is_dir():
                    path.rmdir()
                    continue
                size = path.stat().st_size
                entry = path.suffix == _ENTRY_SUFFIX
                path.unlink()
                freed += size
                if entry:
                    removed += 1
            except OSError:
                continue
        try:
            root.rmdir()
        except OSError:
            pass
        return removed, freed


class EvaluationStore(ContentAddressedStore):
    """Disk-backed evaluation results under one root directory."""

    schema_version = STORE_SCHEMA_VERSION

    # -- addressing ---------------------------------------------------------------

    def entry_path(self, eval_key: str, program_key: str) -> Path:
        if not eval_key or not program_key:
            raise ValueError("store entries need non-empty eval and program keys")
        return self.schema_root / eval_key[:2] / eval_key / f"{program_key}{_ENTRY_SUFFIX}"

    def bind(self, eval_key: str) -> "BoundEvalStore":
        """A view of the store pinned to one evaluation configuration."""
        return BoundEvalStore(self, eval_key)

    # -- reads --------------------------------------------------------------------

    def get(self, eval_key: str, program_key: str) -> Optional[EvaluationResult]:
        """The stored result, or ``None`` on miss *or any* malformed entry."""
        path = self.entry_path(eval_key, program_key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.corrupt_reads += 1
            return None
        try:
            if payload["schema_version"] != self.schema_version:
                return None
            if payload["eval_key"] != eval_key or payload["program_key"] != program_key:
                # A moved/renamed file must not resurface under the wrong key.
                self.corrupt_reads += 1
                return None
            data = payload["result"]
            if payload.get("sidecar"):
                data = dict(data)
                sidecar = self._read_sidecar(path, data)
                data.update(sidecar)
            result = evaluation_from_dict(data)
        except Exception:  # noqa: BLE001 - any malformed entry is a miss
            self.corrupt_reads += 1
            return None
        self._touch(path)
        return result

    def _read_sidecar(self, entry_path: Path, data: dict) -> Dict[str, dict]:
        """Rebuild the float maps whose values live in the ``.npz`` sidecar."""
        with np.load(entry_path.with_suffix(_SIDECAR_SUFFIX)) as arrays:
            return {
                field: dict(
                    zip(data[f"{field}_keys"], arrays[field].tolist())
                )
                for field in ("details", "scenario_scores")
            }

    # -- writes -------------------------------------------------------------------

    def put(self, eval_key: str, program_key: str, result: EvaluationResult) -> bool:
        """Persist ``result``; returns False when nothing was stored.

        Transient failures (timeouts, dead workers) describe the execution
        environment, not the program -- persisting them would replay the
        failure forever.  Deterministic failures (a program that always
        crashes) are stored like any other outcome.  A write that fails at
        the filesystem level (read-only directory, disk full, quota) also
        returns False: the store's contract is "at worst wasted work", so a
        broken store must never abort a running search.
        """
        if result.transient:
            return False
        path = self.entry_path(eval_key, program_key)
        data = evaluation_to_dict(result)
        sidecar = len(data["details"]) + len(data["scenario_scores"]) > NPZ_THRESHOLD
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if sidecar:
                data = self._split_sidecar(path, data)
            payload = {
                "schema_version": self.schema_version,
                "eval_key": eval_key,
                "program_key": program_key,
                "sidecar": sidecar,
                "result": data,
            }
            self._atomic_write_text(path, json.dumps(payload, sort_keys=True))
        except OSError:
            self.write_errors += 1
            return False
        self._note_put()
        return True

    def _split_sidecar(self, entry_path: Path, data: dict) -> dict:
        """Move the float maps' values into an ``.npz`` next to the entry.

        The JSON keeps the (ordered) key lists; the sidecar holds one float
        array per map.  Written *before* the JSON entry so a crash between
        the two leaves a dangling sidecar (garbage-collected later) rather
        than an entry pointing at nothing.
        """
        slim = dict(data)
        arrays = {}
        for field in ("details", "scenario_scores"):
            items: List[Tuple[str, float]] = list(data[field].items())
            slim[f"{field}_keys"] = [key for key, _value in items]
            arrays[field] = np.array(
                [float(value) for _key, value in items], dtype=np.float64
            )
            del slim[field]
        sidecar_path = entry_path.with_suffix(_SIDECAR_SUFFIX)
        fd, tmp = tempfile.mkstemp(
            dir=str(entry_path.parent), suffix=_SIDECAR_SUFFIX + ".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, sidecar_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return slim


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

    def at_fidelity(self, fraction: float) -> "BoundEvalStore":
        """A view keyed for one fidelity rung (see :func:`fidelity_eval_key`)."""
        if fraction == 1.0:
            return self
        return BoundEvalStore(self.store, fidelity_eval_key(self.eval_key, fraction))
