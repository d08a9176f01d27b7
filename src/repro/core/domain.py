"""Search domains and the one-call ``build_search`` entry point.

A *domain* bundles everything that makes a search instance of the framework
concrete: the Template (program space + constraints), the paired Checker,
the context-specific Evaluator, the synthetic-LLM configuration (archetypes,
hallucination rates, grammar) and a Context factory.  The paper's two case
studies are the two domains, listed in one table here: ``"caching"``
(:mod:`repro.cache.search`) and ``"cc"`` (:mod:`repro.cc.search`).

``build_search(domain_name, ...)`` is the single assembly path used by
``experiments/`` and ``examples/``: it resolves the domain, builds every
component, wires them into an :class:`~repro.core.engine.EvaluationEngine`
and an :class:`~repro.core.search.EvolutionarySearch`, and returns the whole
:class:`SearchSetup` so callers can reach any layer (tests poke at the
client, experiments at the evaluator).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.checker import Checker
from repro.core.context import Context
from repro.core.engine import EngineConfig, EvaluationEngine
from repro.core.evaluator import Evaluator
from repro.core.events import EventBus
from repro.core.generator import LLMGenerator
from repro.core.scenarios import MultiScenarioEvaluator, ScoreReducer
from repro.core.search import EvolutionarySearch, SearchConfig
from repro.core.template import Template
from repro.dsl.grammar import GrammarConfig
from repro.llm.client import ProviderConfig, wrap_client
from repro.llm.mock import SyntheticLLMClient, SyntheticLLMConfig


class SearchDomain:
    """Base class of the two search domains.

    Subclasses override the ``build_*`` factories; every factory that takes
    ``**kwargs`` receives the caller's domain-specific keyword arguments
    (e.g. ``trace=...`` for caching, ``duration_s=...`` for congestion
    control) and should ignore keys it does not know.
    """

    #: The domain's key in :data:`_DOMAINS`, e.g. ``"caching"`` or ``"cc"``.
    name: str = ""

    #: Keyword arguments the domain's factories understand; ``build_search``
    #: rejects anything else so typos (``duration=`` for ``duration_s=``)
    #: fail loudly instead of silently running a default configuration.
    accepted_kwargs: frozenset = frozenset()

    #: Keyword arguments that remain meaningful alongside a ``workloads=``
    #: scenario matrix (e.g. ``backend=``).  Single-scenario arguments such
    #: as ``trace=`` or ``duration_s=`` are rejected in matrix mode -- the
    #: per-scenario values live on the workload references -- instead of
    #: being silently ignored.
    matrix_kwargs: frozenset = frozenset()

    def build_template(self) -> Template:
        raise NotImplementedError

    def build_context(self, **kwargs: Any) -> Context:
        raise NotImplementedError

    def build_checker(self, template: Template) -> Checker:
        raise NotImplementedError

    def build_evaluator(self, **kwargs: Any) -> Evaluator:
        raise NotImplementedError

    def build_scenario_evaluator(self, workload: Any, **kwargs: Any) -> Evaluator:
        """Build the evaluator for one resolved
        :class:`~repro.workloads.spec.WorkloadSpec` (multi-scenario search).

        Domains that support workload matrices override this; ``kwargs`` are
        the remaining domain keyword arguments (e.g. ``backend=``), shared by
        every scenario of the matrix.
        """
        raise NotImplementedError(
            f"domain {self.name!r} does not support workload matrices"
        )

    def build_multi_context(
        self, workloads: Sequence[Any], reducer: ScoreReducer, **kwargs: Any
    ) -> Context:
        """The deployment context of a scenario-matrix search."""
        names = [w.display_name for w in workloads]
        return Context.create(
            name=f"{self.name}/matrix({len(names)})",
            workload="scenario matrix: " + ", ".join(names),
            objective=f"maximize the {reducer.kind} score across {len(names)} scenarios",
            scenarios=",".join(names),
            reducer=str(reducer.to_ref()),
        )

    def input_intervals(self):
        """Domain-default input declarations for ``repro certify``.

        Returns an :class:`~repro.dsl.abstract.InputIntervals` (or ``None``)
        without needing a built evaluator, so the CLI can certify a bare
        program file against the domain's Template.
        """
        return None

    def default_llm_config(self) -> SyntheticLLMConfig:
        return SyntheticLLMConfig()

    def prepare_llm_config(self, config: SyntheticLLMConfig) -> SyntheticLLMConfig:
        """Normalise a caller-supplied LLM config (e.g. fill in archetypes)."""
        return config

    def grammar_config(self) -> Optional[GrammarConfig]:
        """Grammar override for the synthetic client (None = default)."""
        return None

    def default_search_config(self) -> SearchConfig:
        return SearchConfig()

    def build_client(
        self, template: Template, llm_config: SyntheticLLMConfig, seed: int
    ) -> SyntheticLLMClient:
        return SyntheticLLMClient(
            template.spec,
            config=llm_config,
            seed=seed,
            grammar=self.grammar_config(),
        )


@dataclass
class SearchSetup:
    """Everything assembled by :func:`build_search` (useful in tests)."""

    template: Template
    client: Any
    generator: LLMGenerator
    checker: Checker
    evaluator: Evaluator
    search: EvolutionarySearch
    context: Context
    engine: Optional[EvaluationEngine] = None
    domain: Optional[SearchDomain] = None


# -- the built-in domains ----------------------------------------------------------

#: Domain name -> (module, attribute) of its :class:`SearchDomain`.  A domain's
#: module is imported on its first lookup, so a cc run never loads the caching
#: stack (nor numpy).
_DOMAINS = {
    "caching": ("repro.cache.search", "DOMAIN"),
    "cc": ("repro.cc.search", "DOMAIN"),
}


def get_domain(name: str) -> SearchDomain:
    """Look up a domain, importing its module on first use."""
    try:
        module, attribute = _DOMAINS[name]
    except KeyError as exc:
        raise KeyError(f"unknown search domain {name!r}; available: {sorted(_DOMAINS)}") from exc
    return getattr(importlib.import_module(module), attribute)


def available_domains() -> list:
    """Names of every domain."""
    return sorted(_DOMAINS)


# -- the one-call entry point -------------------------------------------------------


def build_search(
    domain_name: str,
    *,
    rounds: Optional[int] = None,
    candidates_per_round: Optional[int] = None,
    repair_attempts: Optional[int] = None,
    seed: int = 0,
    llm_config: Optional[SyntheticLLMConfig] = None,
    search_config: Optional[SearchConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    events: Optional[EventBus] = None,
    template: Optional[Template] = None,
    checker: Optional[Checker] = None,
    evaluator: Optional[Evaluator] = None,
    context: Optional[Context] = None,
    client: Optional[Any] = None,
    provider: Optional[ProviderConfig] = None,
    workloads: Optional[Sequence[Any]] = None,
    reducer: Any = None,
    **domain_kwargs: Any,
) -> SearchSetup:
    """Assemble a full search for ``domain_name``.

    ``rounds`` / ``candidates_per_round`` / ``repair_attempts`` override the
    domain's default :class:`SearchConfig`; ``engine_config`` selects
    serial/parallel evaluation; ``checkpoint_path`` enables per-round
    persistence and transparent resume; ``events`` attaches an
    :class:`~repro.core.events.EventBus` whose subscribers observe the run
    (progress, JSONL logging).  ``template`` / ``checker`` /
    ``evaluator`` / ``context`` / ``client`` replace the domain-built
    components (used by ablation experiments).

    ``provider`` (a :class:`~repro.llm.client.ProviderConfig`) layers the
    provider's resilience/caching adapters around the client --
    retries/timeouts via :class:`~repro.llm.client.ResilientClient`, an
    on-disk prompt cache via :class:`~repro.llm.cache.CachingClient`.  None
    of those adapters change what the client returns, only how the calls
    are made.

    ``workloads`` declares a *scenario matrix*: a list of workload references
    (workload names, ``{"name": ..., **overrides}`` dictionaries or
    :class:`~repro.workloads.spec.WorkloadSpec` objects, all from the same
    domain) that every candidate is scored across, aggregated by ``reducer``
    (``"mean"`` / ``"worst"`` / ``{"kind": "weighted", "weights": ...}``).
    Remaining keyword arguments are forwarded to the
    domain's context and evaluator factories (e.g. ``trace=``,
    ``cache_fraction=`` for caching; ``duration_s=``, ``simulation=`` for
    congestion control).
    """
    domain = get_domain(domain_name)
    unknown = set(domain_kwargs) - domain.accepted_kwargs
    if unknown:
        raise TypeError(
            f"domain {domain.name!r} got unexpected keyword argument(s) "
            f"{sorted(unknown)}; accepted: {sorted(domain.accepted_kwargs)}"
        )
    # The engine-level DSL backend knob reaches the domain as its
    # ``backend`` kwarg; an explicit domain kwarg wins over the engine
    # default so ablations can still pin one evaluator's backend.
    if engine_config is not None and engine_config.dsl_backend is not None:
        domain_kwargs.setdefault("backend", engine_config.dsl_backend)

    workload_specs: Optional[List[Any]] = None
    reducer_obj: Optional[ScoreReducer] = None
    if workloads is not None:
        from repro.workloads import resolve_workload_ref

        workload_specs = [resolve_workload_ref(ref) for ref in workloads]
        if not workload_specs:
            raise ValueError("workloads, when given, must be a non-empty list")
        foreign = [w.name for w in workload_specs if w.domain != domain.name]
        if foreign:
            raise ValueError(
                f"workload(s) {foreign} do not belong to domain {domain.name!r}"
            )
        single_scenario = set(domain_kwargs) - domain.matrix_kwargs
        if single_scenario:
            raise TypeError(
                f"keyword argument(s) {sorted(single_scenario)} have no "
                "effect alongside a workloads= scenario matrix; set "
                "per-scenario parameters on the workload references "
                f"(matrix-compatible kwargs: {sorted(domain.matrix_kwargs)})"
            )
        reducer_obj = ScoreReducer.from_ref(reducer)
    elif reducer is not None:
        raise ValueError("reducer= only applies to a workloads= scenario matrix")

    template = template or domain.build_template()
    if context is None:
        if workload_specs is not None:
            context = domain.build_multi_context(
                workload_specs, reducer_obj, **domain_kwargs
            )
        else:
            context = domain.build_context(**domain_kwargs)

    config = search_config or domain.default_search_config()
    overrides: Dict[str, Any] = {}
    if rounds is not None:
        overrides["rounds"] = rounds
    if candidates_per_round is not None:
        overrides["candidates_per_round"] = candidates_per_round
    if repair_attempts is not None:
        overrides["repair_attempts"] = repair_attempts
    if overrides:
        config = replace(config, **overrides)

    if client is None:
        llm = domain.prepare_llm_config(llm_config or domain.default_llm_config())
        client = domain.build_client(template, llm, seed)
    client = wrap_client(client, provider)
    generator = LLMGenerator(template, client, context_description=context.describe())
    checker = checker or domain.build_checker(template)
    if evaluator is None:
        if workload_specs is not None:
            evaluator = MultiScenarioEvaluator(
                [
                    (
                        workload.display_name,
                        domain.build_scenario_evaluator(workload, **domain_kwargs),
                    )
                    for workload in workload_specs
                ],
                reducer_obj,
            )
        else:
            evaluator = domain.build_evaluator(**domain_kwargs)
    search = EvolutionarySearch(
        template,
        generator,
        checker,
        evaluator,
        config,
        context=context,
        engine_config=engine_config,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        events=events,
    )
    return SearchSetup(
        template=template,
        client=client,
        generator=generator,
        checker=checker,
        evaluator=evaluator,
        search=search,
        context=context,
        engine=search.engine,
        domain=domain,
    )
