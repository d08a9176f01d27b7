"""Declarative run specifications: a whole search run as serializable data.

A :class:`RunSpec` captures everything needed to reproduce a run -- domain
name, domain keyword arguments (with traces referenced declaratively),
``SearchConfig`` / ``EngineConfig`` / synthetic-LLM overrides, a seed or a
seed-sweep list, and the checkpoint policy -- and round-trips through JSON
(:meth:`RunSpec.to_dict` / :meth:`RunSpec.from_dict`).  Any frontend (CLI,
tests, sweep driver) can therefore submit the same run, observe it through
the event stream, and re-render its artifacts without re-running anything.

:func:`run` executes one spec (layered on
:func:`~repro.core.domain.build_search`) and, when given an artifact store,
writes the versioned run directory described in
:mod:`repro.core.artifacts`.  :func:`run_sweep` runs one independent search
per seed of the spec's seed list (in turn, or over a thread pool, see
:func:`seeds_in_flight`) and writes a sweep index over the per-seed run
directories.

Traces are referenced, not embedded: a caching spec's ``domain_kwargs`` may
set ``"trace"`` to ``{"dataset": "cloudphysics", "index": 89,
"num_requests": 3000}`` (or ``"msr"`` / ``"synthetic"``), which is resolved
to a concrete deterministic trace at run time.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core import artifacts as artifact_store
from repro.core.domain import SearchDomain, SearchSetup, build_search, get_domain
from repro.core.engine import EngineConfig, usable_cpus
from repro.core.events import EventBus, JsonlEventLog, Subscriber
from repro.core.fidelity import FidelitySchedule
from repro.core.results import SearchResult
from repro.core.search import SearchConfig
from repro.core.store import STORE_SCHEMA_VERSION, EvaluationStore
from repro.llm.client import ProviderConfig
from repro.llm.mock import SyntheticLLMConfig
from repro.typecheck import check_field_types

#: Directory name of the shared evaluation store under an artifact root.
EVAL_STORE_DIRNAME = "evalstore"

SPEC_VERSION = 1

#: Fields of the wrapped config dataclasses that a spec may override.
#: ``cost_model`` is an object, not JSON-configurable.
SEARCH_FIELDS = frozenset(
    f.name for f in fields(SearchConfig) if f.name != "cost_model"
)
ENGINE_FIELDS = frozenset(f.name for f in fields(EngineConfig))
_NO_PIPELINE = "the pipeline scheduler was removed; every round generates, then evaluates"
_NO_DISTRIBUTED = "the distributed executor was removed; use `executor: process`"
#: Keys that stopped being options, per block, and what a spec naming one
#: should do instead (they are rejected like any unknown key).
REMOVED_KEYS = {
    "search": {"pipeline": _NO_PIPELINE},
    "engine": {
        "dedup": "always on since PR 24",
        "memoize": "always on since PR 24",
        "pipeline": _NO_PIPELINE,
        "queue_dir": _NO_DISTRIBUTED,
        "worker_count": _NO_DISTRIBUTED,
        "lease_ttl_s": _NO_DISTRIBUTED,
    },
    "provider": {"batch_size": _NO_PIPELINE},
}
#: ``llm`` overrides map onto :class:`SyntheticLLMConfig` fields, plus the
#: ``"provider"`` block (a :class:`~repro.llm.client.ProviderConfig`
#: reference: retries, timeouts, prompt cache) which configures the client
#: *adapter* stack rather than the synthetic model itself.
PROVIDER_KEY = "provider"
PROVIDER_FIELDS = frozenset(f.name for f in fields(ProviderConfig))
LLM_FIELDS = frozenset(
    {f.name for f in fields(SyntheticLLMConfig)} | {PROVIDER_KEY}
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _check_overrides(
    label: str,
    overrides: Dict[str, Any],
    allowed: frozenset,
    removed: Optional[Dict[str, str]] = None,
) -> None:
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        gone = [f"{key!r}: {removed[key]}" for key in unknown if removed and key in removed]
        raise ValueError(
            f"unknown {label} override(s) {unknown}; allowed: {sorted(allowed)}"
            + (f"; removed -- {'; '.join(gone)}" if gone else "")
        )


@dataclass
class RunSpec:
    """One declarative run: domain + overrides + seed(s) + checkpoint policy.

    ``search`` / ``engine`` / ``llm`` are plain field->value override
    dictionaries layered onto the domain's defaults at run time, so the spec
    stays trivially serializable.  ``seeds`` (when set) declares a seed
    sweep; ``seed`` is the single-run seed.  ``checkpoint`` enables
    per-round persistence into the run's artifact directory
    (``checkpoint.json``), which is what makes ``repro resume`` work.
    ``fidelity`` (optional) declares a multi-fidelity evaluation schedule --
    a rung list or a ``{"rungs": ..., "eta": ..., "min_keep": ...,
    "mode": ...}`` mapping (see :mod:`repro.core.fidelity`).
    """

    domain: str
    name: str = ""
    domain_kwargs: Dict[str, Any] = field(default_factory=dict)
    search: Dict[str, Any] = field(default_factory=dict)
    engine: Dict[str, Any] = field(default_factory=dict)
    llm: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    seeds: Optional[List[int]] = None
    checkpoint: bool = False
    checkpoint_every: int = 1
    fidelity: Optional[Any] = None

    def __post_init__(self) -> None:
        check_field_types(self, "spec")
        if not self.domain:
            raise ValueError("a RunSpec must name a search domain")
        if not self.name:
            self.name = self.domain
        if set(self.name) - _NAME_OK:
            raise ValueError(
                f"spec name {self.name!r} may only contain [A-Za-z0-9._-] "
                "(it becomes a directory name)"
            )
        _check_overrides("search", self.search, SEARCH_FIELDS, REMOVED_KEYS["search"])
        _check_overrides("engine", self.engine, ENGINE_FIELDS, REMOVED_KEYS["engine"])
        _check_overrides("llm", self.llm, LLM_FIELDS)
        # Built once to validate, so a bad value fails here and not after
        # the run directory has been created.
        SearchConfig(**self.search)
        EngineConfig(**self.engine)
        if isinstance(self.llm.get(PROVIDER_KEY), dict):
            _check_overrides(
                "provider", self.llm[PROVIDER_KEY], PROVIDER_FIELDS, REMOVED_KEYS["provider"]
            )
        # Validate (and normalise) the provider block early, exactly like the
        # fidelity block: a typoed provider name or unknown key fails at spec
        # construction, and the canonical dict form keeps config hashes
        # independent of how the block was spelled.
        provider = ProviderConfig.from_ref(self.llm.get(PROVIDER_KEY))
        if provider is not None:
            self.llm = dict(self.llm)
            self.llm[PROVIDER_KEY] = provider.to_ref()
        elif PROVIDER_KEY in self.llm:
            self.llm = {k: v for k, v in self.llm.items() if k != PROVIDER_KEY}
        # Validate (and normalise) the declarative fidelity block early so a
        # bad ladder fails at spec construction, not mid-run.
        schedule = FidelitySchedule.from_ref(self.fidelity)
        self.fidelity = schedule.to_ref() if schedule is not None else None
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.seeds is not None:
            if not self.seeds:
                raise ValueError("seeds, when given, must be a non-empty list")
            if any(isinstance(s, bool) or not isinstance(s, int) for s in self.seeds):
                raise ValueError(f"spec.seeds must be a list of integers, got {self.seeds!r}")
            if len(set(self.seeds)) != len(self.seeds):
                raise ValueError(
                    f"seeds {self.seeds} contains duplicates; each seed runs "
                    "(and writes a run directory) exactly once"
                )

    # -- seeds ---------------------------------------------------------------------

    @property
    def seed_list(self) -> List[int]:
        """The seeds this spec runs: ``seeds`` if set, else ``[seed]``."""
        return list(self.seeds) if self.seeds is not None else [self.seed]

    @property
    def is_sweep(self) -> bool:
        """True when the spec declares a seed list -- even a single-element
        one: a declared ``seeds`` must never be silently ignored in favour of
        the unrelated ``seed`` field."""
        return self.seeds is not None

    def for_seed(self, seed: int) -> "RunSpec":
        """A single-run copy of this spec pinned to one seed."""
        return replace(self, seed=seed, seeds=None)

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "domain": self.domain,
            "domain_kwargs": dict(self.domain_kwargs),
            "search": dict(self.search),
            "engine": dict(self.engine),
            "llm": dict(self.llm),
            "seed": self.seed,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "checkpoint": self.checkpoint,
            "checkpoint_every": self.checkpoint_every,
            "fidelity": self.fidelity,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        # Top-level copies, so the spec never shares a block with the caller.
        data = {k: v.copy() if isinstance(v, (dict, list)) else v for k, v in data.items()}
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported RunSpec version {version} (this repro reads v{SPEC_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RunSpec field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**{"domain": "", **data})

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def config_hash(self) -> str:
        """SHA-256 of the canonical spec JSON: the run's reproducibility key."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def eval_config_hash(self) -> str:
        """The evaluation-store key: a hash of everything that determines a
        candidate program's *score*.

        That is the domain plus its declarative ``domain_kwargs`` (trace
        references, scenario matrix, reducer, backend, ...) -- and nothing
        else: search shape, seeds, LLM behaviour and engine parallelism
        change *which* programs are generated, never what one program
        scores.  Every seed of a sweep therefore shares one eval config,
        which is exactly what lets sweep seeds warm-start from each other's
        evaluations.  The ``fidelity`` block is deliberately excluded too:
        full-fidelity scores are ladder-independent (so ladder and
        non-ladder runs share one warm-start population), and sub-full rung
        entries are segregated by
        :func:`~repro.core.store.fidelity_eval_key` instead.  The store schema version and the repro package version
        are folded in, so neither a payload-format change nor a release that
        touches evaluator/simulator behaviour can alias old entries (after
        *uncommitted* changes to scoring code, run ``repro store clear``).
        """
        from repro import __version__ as repro_version

        canonical = json.dumps(
            {
                "domain": self.domain,
                "domain_kwargs": self.domain_kwargs,
                "store_schema": STORE_SCHEMA_VERSION,
                "repro_version": repro_version,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- layering onto the domain defaults -----------------------------------------

    def fidelity_schedule(self) -> Optional[FidelitySchedule]:
        """The spec's multi-fidelity schedule (``None`` when disabled)."""
        return FidelitySchedule.from_ref(self.fidelity)

    def search_config(self, domain: SearchDomain) -> SearchConfig:
        return replace(domain.default_search_config(), **self.search)

    def engine_config(self) -> Optional[EngineConfig]:
        return EngineConfig(**self.engine) if self.engine else None

    def llm_config(self, domain: SearchDomain) -> Optional[SyntheticLLMConfig]:
        overrides = {k: v for k, v in self.llm.items() if k != PROVIDER_KEY}
        if not overrides:
            return None
        return replace(domain.default_llm_config(), **overrides)

    def provider_config(self) -> Optional[ProviderConfig]:
        """The spec's LLM provider block (``None`` when not configured)."""
        return ProviderConfig.from_ref(self.llm.get(PROVIDER_KEY))


# -- trace references ---------------------------------------------------------------


def resolve_domain_kwargs(domain_kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Materialise declarative references into objects.

    ``trace`` references become concrete traces; ``workloads`` (a scenario
    matrix: list of registry names or ``{"name": ..., **overrides}``
    dictionaries) become :class:`~repro.workloads.spec.WorkloadSpec` objects
    and ``reducer`` a :class:`~repro.core.scenarios.ScoreReducer`.
    """
    resolved = dict(domain_kwargs)
    trace = resolved.get("trace")
    if isinstance(trace, dict):
        resolved["trace"] = build_trace(trace)
    if resolved.get("workloads") is not None:
        from repro.workloads import resolve_workload_ref

        resolved["workloads"] = [
            resolve_workload_ref(ref) for ref in resolved["workloads"]
        ]
    if resolved.get("reducer") is not None:
        from repro.core.scenarios import ScoreReducer

        resolved["reducer"] = ScoreReducer.from_ref(resolved["reducer"])
    return resolved


def build_trace(ref: Dict[str, Any]):
    """Build a deterministic trace from its declarative reference.

    ``{"dataset": "cloudphysics" | "msr", "index": int, "num_requests": int}``
    selects a corpus trace; ``{"dataset": "synthetic", ...}`` forwards the
    remaining keys to :class:`~repro.traces.synthetic.SyntheticWorkloadConfig`;
    ``{"dataset": "workload", "name": <workload name>, ...overrides}``
    resolves a built-in caching workload (see :mod:`repro.workloads`).  All
    of them are built by the caching workload builders.
    """
    from repro.workloads import WorkloadSpec, build_workload
    from repro.workloads import build_trace as build_workload_trace

    ref = dict(ref)
    try:
        dataset = ref.pop("dataset")
    except KeyError:
        raise ValueError(
            f"a trace reference needs a 'dataset' key; got {sorted(ref)}"
        ) from None
    if dataset == "workload":
        return build_workload_trace(ref)
    if dataset == "synthetic":
        # The builder drops a workload's cache_fraction; in a trace
        # reference it is a misplaced domain kwarg.
        if "cache_fraction" in ref:
            raise ValueError("a synthetic trace reference takes no 'cache_fraction'")
    else:
        index = ref.pop("index", 0)
        num_requests = ref.pop("num_requests", None)
        if ref:
            raise ValueError(
                f"unknown trace-reference key(s) {sorted(ref)} for dataset {dataset!r}"
            )
        if dataset not in ("cloudphysics", "msr"):
            raise ValueError(
                f"unknown trace dataset {dataset!r} "
                "(use 'cloudphysics', 'msr', 'synthetic' or 'workload')"
            )
        ref = {"index": index, **_maybe(num_requests)}
    return build_workload(
        WorkloadSpec.create(name=dataset, domain="caching", kind=dataset, params=ref)
    )


def _maybe(num_requests: Optional[int]) -> Dict[str, int]:
    return {} if num_requests is None else {"num_requests": num_requests}


# -- running a spec -----------------------------------------------------------------


@dataclass
class RunOutcome:
    """What :func:`run` hands back: result, full setup, and the artifact path."""

    spec: RunSpec
    seed: int
    result: SearchResult
    setup: SearchSetup
    artifact_dir: Optional[Path] = None
    #: Domain kwargs after reference resolution (e.g. the concrete Trace),
    #: so callers can reuse the run's context without rebuilding it.
    resolved_domain_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Interval certificate of the winning candidate (``None`` when the run
    #: produced no winner or the evaluator declares no input intervals).
    #: A pure function of the winning program and the declared intervals,
    #: computed whether or not static screening was enabled.
    certification: Optional[Dict[str, Any]] = None


@dataclass
class SweepOutcome:
    """Per-seed outcomes of :func:`run_sweep`, in the spec's seed order."""

    spec: RunSpec
    outcomes: List[RunOutcome]
    artifact_dir: Optional[Path] = None

    @property
    def best(self) -> Optional[RunOutcome]:
        """The outcome with the best valid score (ties: earlier seed wins)."""
        best = None
        for outcome in self.outcomes:
            if outcome.result.best is None:
                continue
            if best is None or outcome.result.best.score > best.result.best.score:
                best = outcome
        return best


def build_from_spec(
    spec: RunSpec,
    *,
    seed: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    events: Optional[EventBus] = None,
    resolved_kwargs: Optional[Dict[str, Any]] = None,
) -> SearchSetup:
    """Assemble the full search a spec describes (one seed)."""
    if spec.is_sweep and seed is None:
        raise ValueError(
            f"spec {spec.name!r} declares a seed sweep {spec.seeds}; "
            "pass seed=... to build one of its runs, or use run_sweep()"
        )
    domain = get_domain(spec.domain)
    if resolved_kwargs is None:
        resolved_kwargs = resolve_domain_kwargs(spec.domain_kwargs)
    setup = build_search(
        spec.domain,
        seed=spec.seed if seed is None else seed,
        search_config=spec.search_config(domain),
        engine_config=spec.engine_config(),
        llm_config=spec.llm_config(domain),
        provider=spec.provider_config(),
        checkpoint_path=checkpoint_path,
        checkpoint_every=spec.checkpoint_every,
        events=events,
        **resolved_kwargs,
    )
    schedule = spec.fidelity_schedule()
    if schedule is not None and setup.engine is not None:
        setup.engine.attach_fidelity(schedule)
    return setup


def resolve_eval_store(
    eval_store: Union[None, str, Path, EvaluationStore],
    artifact_root: Optional[Path],
) -> Optional[EvaluationStore]:
    """Materialise an evaluation-store argument.

    ``"auto"`` (the :func:`run` / :func:`run_sweep` default) places the
    store at ``<artifact root>/evalstore`` -- shared by every run, sweep and
    resume under that root -- and disables it when the run writes no
    artifacts at all.  A path or :class:`EvaluationStore` pins it
    explicitly; ``None`` disables the disk tier.
    """
    if eval_store is None:
        return None
    if isinstance(eval_store, EvaluationStore):
        return eval_store
    if eval_store == "auto":
        if artifact_root is None:
            return None
        return EvaluationStore(artifact_root / EVAL_STORE_DIRNAME)
    return EvaluationStore(Path(eval_store))


def run(
    spec: RunSpec,
    *,
    store: Optional[Union[str, Path, "artifact_store.ArtifactStore"]] = None,
    run_dir: Optional[Union[str, Path]] = None,
    subscribers: Sequence[Subscriber] = (),
    seed: Optional[int] = None,
    eval_store: Union[None, str, Path, EvaluationStore] = "auto",
) -> RunOutcome:
    """Execute one spec; returns the result plus the artifact directory.

    ``store`` (an :class:`~repro.core.artifacts.ArtifactStore` or a root
    path) enables artifact persistence; ``run_dir`` pins the run to an
    explicit directory instead (used by sweeps and ``repro resume``).
    Without either, nothing touches disk and ``artifact_dir`` is ``None``.
    ``subscribers`` join the run's event stream (progress printers, logs).

    ``eval_store`` attaches the persistent evaluation store (the engine's
    disk memo tier): ``"auto"`` (default) uses ``<artifact root>/evalstore``
    whenever artifacts are written, a path or
    :class:`~repro.core.store.EvaluationStore` selects one explicitly,
    ``None`` disables it.  The store only ever changes *where* evaluation
    results come from, never what they are -- a fixed seed produces a
    byte-identical ``result.json`` with the store cold, warm or disabled.
    """
    if spec.is_sweep and seed is None:
        raise ValueError(
            f"spec {spec.name!r} declares a seed sweep {spec.seeds}; use run_sweep()"
        )
    effective_seed = spec.seed if seed is None else seed
    effective_spec = spec.for_seed(effective_seed)

    artifact_dir: Optional[Path] = None
    artifact_root: Optional[Path] = None
    if run_dir is not None:
        artifact_dir = artifact_store.prepare_run_dir(
            run_dir, effective_spec.to_dict()
        )
        # A sweep seed directory lives one level below the artifact root
        # (<root>/<sweep>/seed-N); the shared store sits beside the sweep,
        # not inside it, so resuming a seed finds what the sweep populated.
        artifact_root = artifact_dir.parent
        if artifact_store.is_sweep_dir(artifact_root):
            artifact_root = artifact_root.parent
    elif store is not None:
        if not isinstance(store, artifact_store.ArtifactStore):
            store = artifact_store.ArtifactStore(store)
        artifact_dir = artifact_store.prepare_run_dir(
            store.run_dir(spec.name, effective_spec.config_hash(), effective_seed),
            effective_spec.to_dict(),
        )
        artifact_root = store.root
    evaluation_store = resolve_eval_store(eval_store, artifact_root)

    if spec.checkpoint and artifact_dir is None:
        raise ValueError(
            "spec requests checkpointing, which needs an artifact directory; "
            "provide an artifact store (from the CLI: drop --no-artifacts) "
            "or set \"checkpoint\": false in the spec"
        )
    checkpoint_path = (
        artifact_dir / artifact_store.CHECKPOINT_FILE
        if (spec.checkpoint and artifact_dir is not None)
        else None
    )

    events = EventBus(list(subscribers))
    event_log: Optional[JsonlEventLog] = None
    if artifact_dir is not None:
        event_log = JsonlEventLog(artifact_dir / artifact_store.EVENTS_FILE)
        events.subscribe(event_log)

    try:
        resolved_kwargs = resolve_domain_kwargs(spec.domain_kwargs)
        setup = build_from_spec(
            spec,
            seed=effective_seed,
            checkpoint_path=checkpoint_path,
            events=events,
            resolved_kwargs=resolved_kwargs,
        )
        if evaluation_store is not None and setup.engine is not None:
            setup.engine.attach_store(
                evaluation_store.bind(effective_spec.eval_config_hash())
            )
            evaluation_store.register_writer(
                f"run-{effective_spec.name}-seed{effective_seed}"
            )
        result = setup.search.run()
    finally:
        if event_log is not None:
            event_log.close()

    # Certify the winner's output interval.  Computed unconditionally (not
    # just when static screening ran): certification is a pure function of
    # the winning program and the evaluator's declared input intervals, so
    # it lands in result.json without breaking the screening-knob
    # byte-identity guarantee.
    certification_record: Optional[Dict[str, Any]] = None
    winner = result.best.program if result.best is not None else None
    if winner is not None:
        intervals = setup.evaluator.input_intervals()
        if intervals is not None:
            from repro.dsl.abstract import certify_program

            certification_record = certify_program(winner, intervals).to_dict()

    if artifact_dir is not None:
        eval_store_record = None
        if evaluation_store is not None and setup.engine is not None:
            eval_store_record = {
                "path": str(evaluation_store.root),
                "eval_config_hash": effective_spec.eval_config_hash(),
                "lookups": setup.engine.totals.store_lookups,
                "hits": setup.engine.totals.store_hits,
                "writes": setup.engine.store_writes,
            }
        fidelity_record = None
        schedule = effective_spec.fidelity_schedule()
        if schedule is not None and setup.engine is not None:
            fidelity_record = {
                "schedule": schedule.to_ref(),
                "rung_evaluations": setup.engine.totals.rung_evaluations,
                "rung_promotions": setup.engine.totals.rung_promotions,
                "rung_eliminations": setup.engine.totals.rung_eliminations,
            }
        backend_record = None
        if setup.engine is not None and setup.engine.backends:
            requested = getattr(setup.evaluator, "backend", None)
            resolved = dict(setup.engine.backends)
            backend_record = {
                "requested": requested,
                "resolved": resolved,
                "fallbacks": sum(
                    count for name, count in resolved.items() if name != requested
                ),
            }
        # Round-phase timings are volatile (wall-clock), so they are zeroed
        # in result.json; the live sums land here instead, alongside the
        # prompt-cache counters when a caching provider is attached.
        pipeline_record: Dict[str, Any] = {
            "generation_s": round(
                sum(r.generation_s for r in result.rounds), 6
            ),
            "evaluation_s": round(
                sum(r.evaluation_s for r in result.rounds), 6
            ),
        }
        generator_client = setup.search.generator.client
        cache = getattr(generator_client, "cache", None)
        if cache is not None and hasattr(generator_client, "hits"):
            pipeline_record["prompt_cache"] = {
                "path": str(cache.root),
                "hits": generator_client.hits,
                "misses": generator_client.misses,
                "corrupt_reads": cache.corrupt_reads,
            }
        # The live screening record is volatile telemetry (how evaluation
        # was budgeted), so like the store/rung counters it goes to
        # metadata.json only.
        screen_record = None
        if setup.engine is not None and setup.engine.config.static_screen:
            checks = setup.engine.totals.screen_checks
            screen_record = {
                "enabled": True,
                "checks": checks,
                "screened": setup.engine.totals.screened,
                "screen_rate": (
                    setup.engine.totals.screened / checks if checks else 0.0
                ),
            }
        artifact_store.finalize_run_dir(
            artifact_dir,
            effective_spec.to_dict(),
            result,
            config_hash=effective_spec.config_hash(),
            seed=effective_seed,
            eval_store=eval_store_record,
            fidelity=fidelity_record,
            dsl_backend=backend_record,
            pipeline=pipeline_record,
            static_screen=screen_record,
            certification=certification_record,
        )
    return RunOutcome(
        spec=spec,
        seed=effective_seed,
        result=result,
        setup=setup,
        artifact_dir=artifact_dir,
        resolved_domain_kwargs=resolved_kwargs,
        certification=certification_record,
    )


def seeds_in_flight(spec: RunSpec, max_parallel: Optional[int] = None) -> int:
    """How many seeds :func:`run_sweep` runs at once: ``max_parallel`` if
    given, else one for a spec that leaves ``max_workers`` unset (each
    seed's engine has a pool of every usable CPU), else one per CPU."""
    default = usable_cpus() if "max_workers" in spec.engine else 1
    return min(len(spec.seed_list), max_parallel or default)


def run_sweep(
    spec: RunSpec,
    *,
    store: Optional[Union[str, Path, "artifact_store.ArtifactStore"]] = None,
    subscribers: Sequence[Subscriber] = (),
    max_parallel: Optional[int] = None,
    eval_store: Union[None, str, Path, EvaluationStore] = "auto",
) -> SweepOutcome:
    """Run every seed of a sweep spec; seeds may execute in parallel.

    Each seed is an independent deterministic search (its own client, engine
    and evaluator), so outcomes are identical whatever the scheduling; they
    are returned in the spec's seed order.  Per-seed artifacts land in
    ``<sweep dir>/seed-<n>/`` with a ``sweep.json`` index at the top.

    All seeds share one evaluation store (and one eval-config hash, since
    seeds differ only in trajectory, never in scoring), so a candidate
    program evaluated by any seed is a disk hit for every other -- and a
    repeated sweep over a populated store warm-starts entirely from disk.
    Store reads/writes are atomic, so concurrent seeds (and concurrent
    sweeps on one machine) can share a directory safely.

    ``subscribers`` are shared by every seed's event stream and may be
    called from multiple threads concurrently -- pass stateless/thread-safe
    subscribers, or cap ``max_parallel=1``.  :func:`seeds_in_flight` says
    how many seeds run at once.
    """
    seeds = spec.seed_list
    sweep_dir: Optional[Path] = None
    artifact_root: Optional[Path] = None
    if store is not None:
        if not isinstance(store, artifact_store.ArtifactStore):
            store = artifact_store.ArtifactStore(store)
        sweep_dir = store.sweep_dir(spec.name, spec.config_hash())
        artifact_root = store.root
    evaluation_store = resolve_eval_store(eval_store, artifact_root)
    in_flight = seeds_in_flight(spec, max_parallel)

    def _one(seed: int) -> RunOutcome:
        return run(
            spec,
            seed=seed,
            run_dir=(sweep_dir / f"seed-{seed}") if sweep_dir is not None else None,
            subscribers=subscribers,
            eval_store=evaluation_store,
        )

    if in_flight <= 1:
        outcomes = [_one(seed) for seed in seeds]
    else:
        with ThreadPoolExecutor(max_workers=in_flight) as pool:
            outcomes = list(pool.map(_one, seeds))

    sweep = SweepOutcome(spec=spec, outcomes=outcomes, artifact_dir=sweep_dir)
    if sweep_dir is not None:
        runs = []
        for outcome in outcomes:
            best = outcome.result.best
            runs.append(
                {
                    "seed": outcome.seed,
                    "dir": outcome.artifact_dir.name,
                    "best_score": best.score if best is not None else None,
                    "best_candidate_id": (
                        best.candidate.candidate_id if best is not None else None
                    ),
                    "valid_candidates": len(outcome.result.valid_candidates()),
                    "total_candidates": outcome.result.total_candidates,
                }
            )
        artifact_store.write_sweep_dir(
            sweep_dir,
            spec.to_dict(),
            runs,
            config_hash=spec.config_hash(),
            best_seed=sweep.best.seed if sweep.best is not None else None,
        )
    return sweep
