"""Typed run events: the streaming observability channel of a search run.

Every run of :class:`~repro.core.search.EvolutionarySearch` (and the
:class:`~repro.core.engine.EvaluationEngine` beneath it) narrates itself as a
stream of typed events -- :class:`RunStarted`, :class:`CandidateEvaluated`,
:class:`RoundCompleted`, :class:`CheckpointWritten`, :class:`RunFinished` --
published on an :class:`EventBus` to any number of pluggable subscribers.
Frontends attach what they need: the CLI attaches a :class:`ProgressPrinter`
for live progress lines, the artifact store a :class:`JsonlEventLog` so the
whole trajectory is replayable offline, and tests attach plain lists.

Emission is observation only: subscribers receive events after the fact and
cannot perturb the search trajectory, so a run with subscribers is
byte-identical to a run without them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, ClassVar, Dict, IO, List, Optional, Union


def encode_non_finite(value):
    """Non-finite floats as strings (json.dumps would emit non-RFC Infinity).

    The single definition of the convention: the checkpoint/artifact
    serializers in :mod:`repro.core.archive` delegate here, so events.jsonl
    and result.json can never disagree on the encoding of the same value.
    """
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return str(value)
    return value


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return encode_non_finite(value)


@dataclass(frozen=True)
class RunEvent:
    """Base class of every event on the bus."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """JSON-serializable form, ``{"event": kind, ...fields}``."""
        payload = {"event": self.kind}
        for f in fields(self):
            payload[f.name] = _json_safe(getattr(self, f.name))
        return payload


@dataclass(frozen=True)
class RunStarted(RunEvent):
    """The search is about to execute (emitted after any checkpoint restore)."""

    kind: ClassVar[str] = "run_started"

    template_name: str = ""
    context_name: str = ""
    rounds: int = 0
    candidates_per_round: int = 0
    #: Rounds restored from a checkpoint (0 for a fresh run).
    resumed_rounds: int = 0


@dataclass(frozen=True)
class GenerationStarted(RunEvent):
    """The round's candidate generation is about to run.

    Emitted before the first client call of the round (serial and pipelined
    paths alike), so a frontend can show generation progress instead of
    going silent between round summaries.
    """

    kind: ClassVar[str] = "generation_started"

    round_index: int = 0
    #: Candidates the round will ask the client for.
    requested: int = 0
    #: Parent examples embedded in the prompt (0 in the first round).
    parents: int = 0


@dataclass(frozen=True)
class GenerationCompleted(RunEvent):
    """The round's candidate generation finished.

    ``generated`` can fall short of ``requested`` when completions carry no
    code block; ``chunks`` is the number of client calls the round streamed
    the prompt through (1 on the serial path).  ``wall_time_s`` is telemetry
    only -- it never enters result.json.
    """

    kind: ClassVar[str] = "generation_completed"

    round_index: int = 0
    requested: int = 0
    generated: int = 0
    chunks: int = 1
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class CandidateEvaluated(RunEvent):
    """One candidate received an evaluation result (fresh or cached)."""

    kind: ClassVar[str] = "candidate_evaluated"

    candidate_id: str = ""
    round_index: int = 0
    origin: str = "generated"
    valid: bool = False
    score: float = float("-inf")
    #: True when the result came from a cache tier (memory or disk) instead
    #: of a fresh simulation.
    cached: bool = False
    #: Which tier served the result: ``"memory"`` (dedup/memo), ``"disk"``
    #: (the persistent evaluation store), ``"fresh"`` (evaluated now) or
    #: ``"screened"`` (sentinel from the static screener, never evaluated).
    cache_tier: str = "fresh"
    #: Per-scenario score breakdown (empty for single-scenario evaluation).
    scenario_scores: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CandidateScreened(RunEvent):
    """A candidate was rejected by the static screener (rung "-1").

    The interval abstract interpreter proved the candidate degenerate --
    ``reason`` is the rule that fired (``"constant"``,
    ``"input-independent"``, ``"pinned-min"`` / ``"pinned-max"``) and
    ``detail`` the human-readable evidence.  Screened candidates receive a
    sentinel failure result at zero evaluator cost; they never reach the
    memo, the store or an executor.
    """

    kind: ClassVar[str] = "candidate_screened"

    candidate_id: str = ""
    round_index: int = 0
    reason: str = ""
    detail: str = ""


@dataclass(frozen=True)
class CandidatePromoted(RunEvent):
    """A candidate survived one screening rung of the fidelity ladder.

    ``fraction`` is the rung's fidelity (a sub-1.0 budget fraction);
    ``score`` the rung score the promotion decision ranked on -- telemetry
    only, never consumed by ranking or selection.  ``kept`` / ``pool`` sizes
    the decision (top ``kept`` of ``pool`` survived).
    """

    kind: ClassVar[str] = "candidate_promoted"

    candidate_id: str = ""
    round_index: int = 0
    rung: int = 0
    fraction: float = 1.0
    score: float = float("-inf")
    kept: int = 0
    pool: int = 0


@dataclass(frozen=True)
class CandidateEliminated(RunEvent):
    """A candidate was screened out at one rung of the fidelity ladder.

    In ``screen`` mode the candidate's recorded evaluation stays at this
    rung's fidelity; in ``shadow`` mode the event is telemetry only and the
    candidate still receives a full-fidelity evaluation.
    """

    kind: ClassVar[str] = "candidate_eliminated"

    candidate_id: str = ""
    round_index: int = 0
    rung: int = 0
    fraction: float = 1.0
    score: float = float("-inf")
    kept: int = 0
    pool: int = 0


@dataclass(frozen=True)
class RoundCompleted(RunEvent):
    """One search round finished (mirrors the round's RoundSummary)."""

    kind: ClassVar[str] = "round_completed"

    round_index: int = 0
    generated: int = 0
    evaluated: int = 0
    best_score: float = float("-inf")
    best_overall_score: float = float("-inf")
    eval_cache_lookups: int = 0
    eval_cache_hits: int = 0
    #: Persistent-store traffic this round (0/0 when no store is attached).
    store_lookups: int = 0
    store_hits: int = 0
    #: Best per-scenario score among this round's valid candidates (empty
    #: for single-scenario runs).
    scenario_best: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckpointWritten(RunEvent):
    """Search state was persisted to disk."""

    kind: ClassVar[str] = "checkpoint_written"

    path: str = ""
    completed_rounds: int = 0


@dataclass(frozen=True)
class RunFinished(RunEvent):
    """The search completed and produced its SearchResult."""

    kind: ClassVar[str] = "run_finished"

    total_candidates: int = 0
    valid_candidates: int = 0
    rounds: int = 0
    best_candidate_id: Optional[str] = None
    best_score: float = float("-inf")
    wall_time_s: float = 0.0


#: A subscriber is any callable taking one event.
Subscriber = Callable[[RunEvent], None]


class EventBus:
    """Fans events out to subscribers, in subscription order.

    An empty bus is free to emit on (``if bus:`` guards the hot path), so the
    search can always carry one without a performance cost.
    """

    def __init__(self, subscribers: Optional[List[Subscriber]] = None):
        self._subscribers: List[Subscriber] = list(subscribers or [])

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.remove(subscriber)

    def emit(self, event: RunEvent) -> None:
        """Deliver ``event`` to every subscriber.

        A failing subscriber is dropped (with one stderr warning) instead of
        aborting the run: observation must never cost the search its work.
        """
        broken = None
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception as exc:  # noqa: BLE001 - observer boundary
                if broken is None:
                    broken = []
                broken.append(subscriber)
                try:
                    print(
                        f"warning: event subscriber {subscriber!r} failed "
                        f"({type(exc).__name__}: {exc}); unsubscribed",
                        file=sys.stderr,
                    )
                except Exception:  # stderr itself may be the broken pipe
                    pass
        if broken:
            for subscriber in broken:
                self._subscribers.remove(subscriber)

    def __bool__(self) -> bool:
        return bool(self._subscribers)

    def __len__(self) -> int:
        return len(self._subscribers)


class ProgressPrinter:
    """Human-readable progress lines, one per lifecycle event.

    Candidate-level events are summarised by the round lines unless
    ``verbose`` is set.  Writes to ``stream`` (stderr by default in the CLI,
    so report output on stdout stays machine-comparable).
    """

    def __init__(self, stream: IO[str], verbose: bool = False):
        self.stream = stream
        self.verbose = verbose
        self._total_rounds = 0

    def _line(self, text: str) -> None:
        self.stream.write(text + "\n")

    def __call__(self, event: RunEvent) -> None:
        if isinstance(event, RunStarted):
            self._total_rounds = event.rounds
            resumed = (
                f", resumed after round {event.resumed_rounds}"
                if event.resumed_rounds
                else ""
            )
            self._line(
                f"run started: {event.template_name} on {event.context_name or '<no context>'} "
                f"({event.rounds} rounds x {event.candidates_per_round} candidates{resumed})"
            )
        elif isinstance(event, GenerationStarted):
            parents = (
                f" from {event.parents} parent(s)" if event.parents else ""
            )
            self._line(
                f"round {event.round_index}/{self._total_rounds}: "
                f"generating {event.requested} candidates{parents}..."
            )
        elif isinstance(event, GenerationCompleted):
            if self.verbose:
                chunks = f" in {event.chunks} chunk(s)" if event.chunks > 1 else ""
                self._line(
                    f"  generated {event.generated}/{event.requested}{chunks} "
                    f"({event.wall_time_s:.1f}s)"
                )
        elif isinstance(event, CandidateEvaluated):
            if self.verbose:
                self._line(
                    f"  {event.candidate_id}: score {event.score:.4f} "
                    f"({'valid' if event.valid else 'invalid'}, {event.cache_tier})"
                )
        elif isinstance(event, CandidateScreened):
            if self.verbose:
                self._line(
                    f"  {event.candidate_id}: screened ({event.reason}: {event.detail})"
                )
        elif isinstance(event, (CandidatePromoted, CandidateEliminated)):
            if self.verbose:
                verb = (
                    "promoted" if isinstance(event, CandidatePromoted) else "eliminated"
                )
                self._line(
                    f"  {event.candidate_id}: {verb} at rung {event.rung} "
                    f"({event.fraction:.0%} fidelity, score {event.score:.4f}, "
                    f"kept {event.kept}/{event.pool})"
                )
        elif isinstance(event, RoundCompleted):
            disk = (
                f", disk {event.store_hits}/{event.store_lookups}"
                if event.store_lookups
                else ""
            )
            self._line(
                f"round {event.round_index}/{self._total_rounds}: "
                f"evaluated {event.evaluated}/{event.generated}, "
                f"best {event.best_score:.4f}, best so far {event.best_overall_score:.4f} "
                f"(cache {event.eval_cache_hits}/{event.eval_cache_lookups}{disk})"
            )
        elif isinstance(event, CheckpointWritten):
            self._line(
                f"checkpoint after round {event.completed_rounds} -> {event.path}"
            )
        elif isinstance(event, RunFinished):
            self._line(
                f"run finished: {event.valid_candidates}/{event.total_candidates} valid, "
                f"best {event.best_score:.4f} ({event.best_candidate_id}) "
                f"in {event.wall_time_s:.1f}s"
            )


class JsonlEventLog:
    """Appends every event as one JSON line; the replayable run transcript.

    The file is truncated on open so a rerun (or a resume) of the same run
    directory yields a self-consistent log.  Lines are flushed eagerly so a
    crashed run still leaves a usable prefix.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh: Optional[IO[str]] = self.path.open("w", encoding="utf-8")

    def __call__(self, event: RunEvent) -> None:
        if self._fh is None:
            raise ValueError(f"event log {self.path} is closed")
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_event_log(path: Union[str, Path]) -> List[Dict]:
    """Parse a JSONL file (events.jsonl, rounds.jsonl) into dictionaries."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]
