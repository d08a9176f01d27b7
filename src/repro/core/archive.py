"""Heuristic archive: the growing library of synthesized policies (§3.1.2).

Over time PolicySmith builds a library of heuristics, one (or more) per
context, that a runtime adaptation system can choose from.  The archive is a
small persistent store keyed by context name; entries carry the heuristic
source, its score, and free-form metadata (which trace it was tuned on, the
search configuration, ...).

This module also provides :class:`SearchCheckpoint`, the per-round search
state the evolutionary search persists so that long multi-context runs
survive interruption: the scored population, round summaries, the engine's
evaluation memo, and (when the LLM client supports it) the generator's RNG
state, so a resumed search continues the exact trajectory of an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, TextIO

from repro.core.checker import CheckIssue
from repro.core.context import Context
from repro.core.evaluator import EvaluationResult
from repro.core.events import encode_non_finite
from repro.core.results import Candidate, RoundSummary, ScoredCandidate


@dataclass
class ArchiveEntry:
    """One archived heuristic."""

    context_name: str
    name: str
    source: str
    score: float
    metadata: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ArchiveEntry":
        return cls(
            context_name=data["context_name"],
            name=data["name"],
            source=data["source"],
            score=float(data["score"]),
            metadata=dict(data.get("metadata", {})),
        )


class HeuristicArchive:
    """In-memory archive with JSON persistence."""

    def __init__(self) -> None:
        self._entries: Dict[str, List[ArchiveEntry]] = {}

    # -- mutation -------------------------------------------------------------------

    def add(self, entry: ArchiveEntry) -> None:
        self._entries.setdefault(entry.context_name, []).append(entry)

    def add_candidate(
        self,
        context: Context,
        candidate: ScoredCandidate,
        name: Optional[str] = None,
        **metadata: str,
    ) -> ArchiveEntry:
        """Archive a search winner under ``context``."""
        entry = ArchiveEntry(
            context_name=context.name,
            name=name or candidate.candidate.candidate_id,
            source=candidate.source,
            score=candidate.score,
            metadata={k: str(v) for k, v in metadata.items()},
        )
        self.add(entry)
        return entry

    # -- queries ---------------------------------------------------------------------

    def contexts(self) -> List[str]:
        return sorted(self._entries)

    def entries_for(self, context_name: str) -> List[ArchiveEntry]:
        return list(self._entries.get(context_name, []))

    def best_for(self, context_name: str) -> Optional[ArchiveEntry]:
        entries = self._entries.get(context_name)
        if not entries:
            return None
        return max(entries, key=lambda e: e.score)

    def all_entries(self) -> List[ArchiveEntry]:
        return [entry for entries in self._entries.values() for entry in entries]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    # -- persistence -------------------------------------------------------------------

    def save(self, path: Path | str) -> None:
        path = Path(path)
        payload = {
            "version": 1,
            "entries": [entry.to_dict() for entry in self.all_entries()],
        }
        path.write_text(json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path: Path | str) -> "HeuristicArchive":
        path = Path(path)
        payload = json.loads(path.read_text())
        if payload.get("version") != 1:
            raise ValueError(f"unsupported archive version in {path}")
        archive = cls()
        for raw in payload.get("entries", []):
            archive.add(ArchiveEntry.from_dict(raw))
        return archive


# --------------------------------------------------------------------------
# Search checkpointing
# --------------------------------------------------------------------------


def _encode_float(value: float):
    """Non-finite floats as strings (shared convention lives in core.events)."""
    return encode_non_finite(value)


def _decode_float(value) -> float:
    return float(value)


def _evaluation_to_dict(evaluation: EvaluationResult) -> dict:
    return {
        "score": _encode_float(evaluation.score),
        "valid": evaluation.valid,
        "error": evaluation.error,
        "wall_time_s": evaluation.wall_time_s,
        "details": {k: _encode_float(v) for k, v in evaluation.details.items()},
        "scenario_scores": {
            k: _encode_float(v) for k, v in evaluation.scenario_scores.items()
        },
        "fidelity": evaluation.fidelity,
    }


def _evaluation_from_dict(data: dict) -> EvaluationResult:
    return EvaluationResult(
        score=_decode_float(data["score"]),
        valid=bool(data["valid"]),
        error=data.get("error"),
        wall_time_s=float(data.get("wall_time_s", 0.0)),
        details={k: _decode_float(v) for k, v in data.get("details", {}).items()},
        scenario_scores={
            k: _decode_float(v) for k, v in data.get("scenario_scores", {}).items()
        },
        fidelity=float(data.get("fidelity", 1.0)),
    )


_ROUND_FLOAT_FIELDS = ("best_score", "best_overall_score")


def _round_to_dict(summary: RoundSummary) -> dict:
    data = asdict(summary)
    for key in _ROUND_FLOAT_FIELDS:
        data[key] = _encode_float(data[key])
    data["scenario_best"] = {
        k: _encode_float(v) for k, v in summary.scenario_best.items()
    }
    return data


def _round_from_dict(data: dict) -> RoundSummary:
    data = dict(data)
    for key in _ROUND_FLOAT_FIELDS:
        if key in data:
            data[key] = _decode_float(data[key])
    if "scenario_best" in data:
        data["scenario_best"] = {
            k: _decode_float(v) for k, v in data["scenario_best"].items()
        }
    return RoundSummary(**data)


#: Public serialization helpers (the artifact store reuses the checkpoint
#: encoding so stored rounds/results stay readable by both layers).
round_summary_to_dict = _round_to_dict
round_summary_from_dict = _round_from_dict
evaluation_to_dict = _evaluation_to_dict
evaluation_from_dict = _evaluation_from_dict


def scored_candidate_to_dict(scored: ScoredCandidate) -> dict:
    """JSON-serializable form of one scored candidate."""
    candidate = scored.candidate
    return {
        # What ``asdict`` gives, in field order, without its deep copy
        # (about a fifth of the time it takes to write a candidate).
        "candidate": {
            "candidate_id": candidate.candidate_id,
            "source": candidate.source,
            "round_index": candidate.round_index,
            "parent_ids": list(candidate.parent_ids),
            "repaired": candidate.repaired,
            "origin": candidate.origin,
        },
        "check_ok": scored.check_ok,
        "check_issues": [
            {"code": issue.code, "message": issue.message}
            for issue in scored.check_issues
        ],
        "canonical_source": scored.canonical_source,
        "evaluation": (
            _evaluation_to_dict(scored.evaluation)
            if scored.evaluation is not None
            else None
        ),
    }


def scored_candidate_from_dict(data: dict) -> ScoredCandidate:
    """Rebuild a scored candidate; it keeps the stored canonical source."""
    evaluation = data.get("evaluation")
    scored = ScoredCandidate(
        candidate=Candidate(**data["candidate"]),
        check_ok=bool(data["check_ok"]),
        check_issues=[
            CheckIssue(code=issue["code"], message=issue["message"])
            for issue in data.get("check_issues", [])
        ],
        evaluation=_evaluation_from_dict(evaluation) if evaluation else None,
    )
    if scored.check_ok:
        scored.canonical_source = data.get("canonical_source") or None
    return scored


@contextmanager
def atomic_text(path: Path, suffix: str = ".tmp") -> Iterator[TextIO]:
    """Write ``path`` through a temp file beside it, renamed into place.

    The temp file's name is unique to this write (so two writers of one
    path never share it) and ends in ``suffix``; it is created with the
    mode a plain ``open`` gives.  An exception while writing removes it and
    leaves ``path`` as it was: a reader never sees a partial file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}{suffix}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class SearchCheckpoint:
    """Per-round snapshot of an evolutionary search, JSON-persistable.

    ``memo`` maps canonical-source hashes to evaluation results (the
    engine's cross-round cache); ``generator_state`` is an opaque blob from
    the LLM client (RNG + token-usage counters for the synthetic client),
    restored on resume so the continued search is byte-identical to an
    uninterrupted run.

    Resume validation compares the template name, context name and context
    parameters; evaluator settings that are not part of the context (e.g. a
    custom ``backend=``) are the caller's responsibility -- resume with the
    configuration that wrote the checkpoint.
    """

    template_name: str = ""
    context_name: str = ""
    context_parameters: List[list] = field(default_factory=list)
    completed_rounds: int = 0
    counter: int = 0
    population: List[ScoredCandidate] = field(default_factory=list)
    rounds: List[RoundSummary] = field(default_factory=list)
    memo: Dict[str, EvaluationResult] = field(default_factory=dict)
    generator_state: Optional[Dict[str, Any]] = None
    seed_stats: Dict[str, int] = field(default_factory=dict)

    def save(self, path: Path | str) -> None:
        payload = {
            "version": 1,
            "kind": "search-checkpoint",
            "template_name": self.template_name,
            "context_name": self.context_name,
            "context_parameters": [list(item) for item in self.context_parameters],
            "completed_rounds": self.completed_rounds,
            "counter": self.counter,
            "population": [scored_candidate_to_dict(s) for s in self.population],
            "rounds": [_round_to_dict(r) for r in self.rounds],
            "memo": {k: _evaluation_to_dict(v) for k, v in self.memo.items()},
            "generator_state": self.generator_state,
            "seed_stats": dict(self.seed_stats),
        }
        text = json.dumps(payload, allow_nan=False)
        with atomic_text(Path(path)) as fh:
            fh.write(text)

    @classmethod
    def load(cls, path: Path | str) -> "SearchCheckpoint":
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != 1 or payload.get("kind") != "search-checkpoint":
            raise ValueError(f"unsupported checkpoint file {path}")
        return cls(
            template_name=payload.get("template_name", ""),
            context_name=payload.get("context_name", ""),
            context_parameters=[
                list(item) for item in payload.get("context_parameters", [])
            ],
            completed_rounds=int(payload["completed_rounds"]),
            counter=int(payload["counter"]),
            population=[
                scored_candidate_from_dict(raw) for raw in payload.get("population", [])
            ],
            rounds=[_round_from_dict(raw) for raw in payload.get("rounds", [])],
            memo={
                key: _evaluation_from_dict(raw)
                for key, raw in payload.get("memo", {}).items()
            },
            generator_state=payload.get("generator_state"),
            seed_stats={
                k: int(v) for k, v in payload.get("seed_stats", {}).items()
            },
        )
