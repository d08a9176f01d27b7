"""Versioned artifact store: every run is a re-renderable directory on disk.

A *run directory* is the durable form of one run -- a search driven by a
:class:`~repro.core.spec.RunSpec` or one registered experiment -- laid out as

=================  =======================================================
``spec.json``      the declarative spec (or experiment name + parameters)
``result.json``    the run's outcome, canonical JSON, volatile wall-clock
                   fields stripped so identical specs produce *byte-identical*
                   files
``rounds.jsonl``   one JSON line per search round (search runs)
``events.jsonl``   the streamed event log (search runs)
``metadata.json``  reproducibility record: artifact format version, config
                   hash, seed(s), repro package version, wall time
=================  =======================================================

Run-directory names are deterministic -- ``<name>-<config-hash prefix>`` plus
the seed -- so rerunning an identical spec overwrites the same directory with
identical content instead of accumulating near-duplicates, and ``repro
report`` / ``repro resume`` can address runs stably.  ``ARTIFACT_VERSION``
gates the layout; readers reject directories written by a future format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import __version__ as _REPRO_VERSION
from repro.core.archive import (
    round_summary_from_dict,
    round_summary_to_dict,
    scored_candidate_from_dict,
    scored_candidate_to_dict,
)
from repro.core.events import read_event_log
from repro.core.results import (
    BUDGET_FIELDS,
    RoundSummary,
    ScoredCandidate,
    SearchResult,
    budget_kwargs,
)

#: Version of the run-directory layout (bump on breaking changes).
ARTIFACT_VERSION = 1

SPEC_FILE = "spec.json"
RESULT_FILE = "result.json"
ROUNDS_FILE = "rounds.jsonl"
EVENTS_FILE = "events.jsonl"
METADATA_FILE = "metadata.json"
SWEEP_FILE = "sweep.json"
CHECKPOINT_FILE = "checkpoint.json"


def canonical_json(data: Any) -> str:
    """Deterministic JSON rendering (sorted keys, fixed layout, newline-terminated)."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_json(path: Path, data: Any) -> None:
    path.write_text(canonical_json(data), encoding="utf-8")


# -- SearchResult <-> dict ----------------------------------------------------------


#: The budget counters, zeroed: how a deterministic file records them.
_ZERO_BUDGET = dict.fromkeys(BUDGET_FIELDS, 0)


def _strip_volatile_round(data: dict) -> dict:
    """Zero a round dictionary's execution telemetry.

    The budget counters (see :class:`~repro.core.results.BudgetCounters`)
    describe how evaluation was budgeted, not what the search found; the
    phase timings are wall-clock (and a pipelined run must stay
    byte-identical to a serial one).  Live values go to ``metadata.json``.
    """
    return dict(data, **_ZERO_BUDGET, generation_s=0.0, evaluation_s=0.0, overlap_s=0.0)


def search_result_to_dict(result: SearchResult, include_timing: bool = False) -> dict:
    """JSON form of a whole :class:`SearchResult`.

    With ``include_timing=False`` (the artifact-store default) per-candidate
    and total wall-clock fields are zeroed -- and so are the budget
    counters, which depend on execution state rather than the spec --
    so the dictionary -- and therefore ``result.json`` -- is a pure function
    of the spec: rerunning an identical spec yields byte-identical output,
    with the store cold, warm or disabled.  Timing and live budget counters
    go to ``metadata.json``, which is allowed to differ between reruns.
    """
    candidates = []
    for scored in result.candidates:
        data = scored_candidate_to_dict(scored)
        if not include_timing and data["evaluation"] is not None:
            data["evaluation"] = dict(data["evaluation"], wall_time_s=0.0)
        candidates.append(data)
    rounds = [round_summary_to_dict(r) for r in result.rounds]
    if not include_timing:
        rounds = [_strip_volatile_round(r) for r in rounds]
    return {
        "best_candidate_id": (
            result.best.candidate.candidate_id if result.best is not None else None
        ),
        "candidates": candidates,
        "rounds": rounds,
        "context_name": result.context_name,
        "template_name": result.template_name,
        "total_candidates": result.total_candidates,
        "wall_time_s": result.wall_time_s if include_timing else 0.0,
        "prompt_tokens": result.prompt_tokens,
        "completion_tokens": result.completion_tokens,
        "estimated_cost_usd": result.estimated_cost_usd,
        "eval_cache_lookups": result.eval_cache_lookups,
        "eval_cache_hits": result.eval_cache_hits,
        **(result.budget() if include_timing else _ZERO_BUDGET),
    }


def search_result_from_dict(data: dict) -> SearchResult:
    """Rebuild a :class:`SearchResult` from its stored form."""
    candidates: List[ScoredCandidate] = [
        scored_candidate_from_dict(raw) for raw in data.get("candidates", [])
    ]
    rounds: List[RoundSummary] = [
        round_summary_from_dict(raw) for raw in data.get("rounds", [])
    ]
    best = None
    best_id = data.get("best_candidate_id")
    if best_id is not None:
        for scored in candidates:
            if scored.candidate.candidate_id == best_id:
                best = scored
                break
    return SearchResult(
        best=best,
        candidates=candidates,
        rounds=rounds,
        context_name=data.get("context_name", ""),
        template_name=data.get("template_name", ""),
        total_candidates=int(data.get("total_candidates", len(candidates))),
        wall_time_s=float(data.get("wall_time_s", 0.0)),
        prompt_tokens=int(data.get("prompt_tokens", 0)),
        completion_tokens=int(data.get("completion_tokens", 0)),
        estimated_cost_usd=float(data.get("estimated_cost_usd", 0.0)),
        eval_cache_lookups=int(data.get("eval_cache_lookups", 0)),
        eval_cache_hits=int(data.get("eval_cache_hits", 0)),
        **budget_kwargs(data),
    )


# -- reading a run directory --------------------------------------------------------


class RunArtifact:
    """Read-only view of one run directory (lazy, dictionary-level access)."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not (self.path / SPEC_FILE).exists():
            raise FileNotFoundError(
                f"{self.path} is not a run directory (no {SPEC_FILE}); "
                "pass the directory printed by `repro run`"
            )
        self._spec: Optional[dict] = None
        self._result: Optional[dict] = None
        self._metadata: Optional[dict] = None

    def _read(self, name: str) -> dict:
        return json.loads((self.path / name).read_text(encoding="utf-8"))

    @property
    def spec(self) -> dict:
        if self._spec is None:
            self._spec = self._read(SPEC_FILE)
        return self._spec

    @property
    def result(self) -> dict:
        if self._result is None:
            self._result = self._read(RESULT_FILE)
        return self._result

    @property
    def metadata(self) -> dict:
        if self._metadata is None:
            self._metadata = self._read(METADATA_FILE)
            version = int(self._metadata.get("artifact_version", 0))
            if version > ARTIFACT_VERSION:
                raise ValueError(
                    f"{self.path} was written by artifact format v{version}; "
                    f"this version of repro reads up to v{ARTIFACT_VERSION}"
                )
        return self._metadata

    @property
    def kind(self) -> str:
        """``"experiment"`` or ``"search"``."""
        return "experiment" if "experiment" in self.spec else "search"

    def rounds(self) -> List[dict]:
        path = self.path / ROUNDS_FILE
        return read_event_log(path) if path.exists() else []

    def events(self) -> List[dict]:
        path = self.path / EVENTS_FILE
        return read_event_log(path) if path.exists() else []

    def search_result(self) -> SearchResult:
        """The stored result as a live :class:`SearchResult` (search runs)."""
        if self.kind != "search":
            raise ValueError(f"{self.path} holds an experiment, not a search run")
        return search_result_from_dict(self.result)


def is_sweep_dir(path: Union[str, Path]) -> bool:
    return (Path(path) / SWEEP_FILE).exists()


def load_sweep(path: Union[str, Path]) -> dict:
    sweep = json.loads((Path(path) / SWEEP_FILE).read_text(encoding="utf-8"))
    version = int(sweep.get("artifact_version", 0))
    if version > ARTIFACT_VERSION:
        raise ValueError(
            f"{path} was written by artifact format v{version}; "
            f"this version of repro reads up to v{ARTIFACT_VERSION}"
        )
    return sweep


# -- writing run directories --------------------------------------------------------


def prepare_run_dir(path: Union[str, Path], spec_data: dict) -> Path:
    """Create ``path`` and write ``spec.json`` before the run starts.

    Writing the spec up front makes an interrupted run resumable: the
    directory already identifies what was being run.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    _write_json(path / SPEC_FILE, spec_data)
    # A rerun must not inherit a stale outcome from a previous layout.
    for name in (RESULT_FILE, ROUNDS_FILE, METADATA_FILE):
        stale = path / name
        if stale.exists():
            stale.unlink()
    return path


def finalize_run_dir(
    path: Union[str, Path],
    spec_data: dict,
    result: SearchResult,
    *,
    config_hash: str,
    seed: int,
    eval_store: Optional[Dict[str, Any]] = None,
    fidelity: Optional[Dict[str, Any]] = None,
    dsl_backend: Optional[Dict[str, Any]] = None,
    pipeline: Optional[Dict[str, Any]] = None,
    static_screen: Optional[Dict[str, Any]] = None,
    certification: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write result.json / rounds.jsonl / metadata.json for a finished search.

    ``eval_store`` (optional) is the run's live evaluation-store record --
    path, eval-config hash, lookup/hit/write counters -- stored in
    ``metadata.json`` only: like wall time, it describes *this* execution,
    not the spec.  ``fidelity`` (optional) is the run's live ladder record
    (schedule + rung counters), stored the same way.  ``dsl_backend``
    (optional) records which DSL execution backend was requested and what
    ``make_runner`` reported per evaluation (the requested name for a bound
    kernel, ``compiled`` / ``interpreter`` for its fallbacks); it stays out
    of ``result.json``: scores are backend-independent.  ``pipeline`` (optional) is
    the run's live generation/evaluation overlap record (summed phase
    timings) -- wall-clock telemetry, metadata only, for the same reason.
    ``static_screen`` (optional) is the run's live screening record (knob
    state + check/screen counters), metadata only like the rung counters.  ``certification`` (optional) is
    the winner's interval certificate -- a pure function of the winning
    program and the evaluator's declared input intervals, independent of the
    screening knob -- so it *does* go into ``result.json``.
    """
    path = Path(path)
    result_data = search_result_to_dict(result)
    if certification is not None:
        result_data["certification"] = certification
    _write_json(path / RESULT_FILE, result_data)
    rounds_lines = [
        json.dumps(_strip_volatile_round(round_summary_to_dict(r)), sort_keys=True)
        for r in result.rounds
    ]
    (path / ROUNDS_FILE).write_text(
        "".join(line + "\n" for line in rounds_lines), encoding="utf-8"
    )
    metadata = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "search",
        "config_hash": config_hash,
        "seed": seed,
        "seeds": [seed],
        "repro_version": _REPRO_VERSION,
        "wall_time_s": result.wall_time_s,
    }
    if eval_store is not None:
        metadata["eval_store"] = eval_store
    if fidelity is not None:
        metadata["fidelity"] = fidelity
    if dsl_backend is not None:
        metadata["dsl_backend"] = dsl_backend
    if pipeline is not None:
        metadata["pipeline"] = pipeline
    if static_screen is not None:
        metadata["static_screen"] = static_screen
    _write_json(path / METADATA_FILE, metadata)
    return path


def write_experiment_dir(
    path: Union[str, Path],
    *,
    experiment: str,
    params: Dict[str, Any],
    payload: dict,
    config_hash: str,
) -> Path:
    """Write a run directory for one registered experiment."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    _write_json(
        path / SPEC_FILE,
        {"version": ARTIFACT_VERSION, "experiment": experiment, "params": params},
    )
    _write_json(path / RESULT_FILE, payload)
    _write_json(
        path / METADATA_FILE,
        {
            "artifact_version": ARTIFACT_VERSION,
            "kind": "experiment",
            "experiment": experiment,
            "config_hash": config_hash,
            "repro_version": _REPRO_VERSION,
        },
    )
    return path


def write_sweep_dir(
    path: Union[str, Path],
    spec_data: dict,
    runs: List[dict],
    *,
    config_hash: str,
    best_seed: Optional[int],
) -> Path:
    """Write the sweep-level index (per-seed dirs are normal run dirs).

    ``best_seed`` is computed by the caller (``SweepOutcome.best``) so the
    stored index and the in-memory outcome can never disagree.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    _write_json(
        path / SWEEP_FILE,
        {
            "artifact_version": ARTIFACT_VERSION,
            "kind": "sweep",
            "spec": spec_data,
            "config_hash": config_hash,
            "repro_version": _REPRO_VERSION,
            "runs": runs,
            "best_seed": best_seed,
        },
    )
    return path


class ArtifactStore:
    """Addresses run directories under one root (default ``./runs``)."""

    def __init__(self, root: Union[str, Path] = "runs"):
        self.root = Path(root)

    # -- naming -------------------------------------------------------------------

    @staticmethod
    def _hash_prefix(config_hash: str) -> str:
        return config_hash[:10]

    def run_dir(self, name: str, config_hash: str, seed: int) -> Path:
        return self.root / f"{name}-{self._hash_prefix(config_hash)}-s{seed}"

    def sweep_dir(self, name: str, config_hash: str) -> Path:
        return self.root / f"{name}-{self._hash_prefix(config_hash)}-sweep"

    def experiment_dir(self, name: str, config_hash: str) -> Path:
        return self.root / f"{name}-{self._hash_prefix(config_hash)}"

    # -- access -------------------------------------------------------------------

    def load(self, path: Union[str, Path]) -> RunArtifact:
        return RunArtifact(path)

    def runs(self) -> List[Path]:
        """Every run directory under the root (sweeps listed once)."""
        if not self.root.exists():
            return []
        found = []
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            if (child / SPEC_FILE).exists() or (child / SWEEP_FILE).exists():
                found.append(child)
        return found
