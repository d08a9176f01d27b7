"""PolicySmith instantiation for web caching (§4 of the paper).

This module wires the framework to the cache substrate:

* :func:`caching_feature_spec` / :func:`caching_template` -- the Table-1
  priority() Template, including the natural-language description,
  constraints and the LRU/LFU seed programs of §4.2.1;
* :class:`CachingEvaluator` -- scores a candidate by simulating it on one
  context trace at 10 % of the trace footprint and returning the negated
  object miss ratio (higher is better);
* :func:`caching_archetypes` -- the background knowledge the synthetic LLM
  remixes (frequency/size value density, recency, history revival, ...);
* :class:`CachingDomain` -- the :class:`~repro.core.domain.SearchDomain`
  registration that plugs all of the above into the shared engine; assemble
  a search with ``build_search("caching", trace=...)`` (or the thin
  :func:`build_caching_search` / :func:`run_caching_search` wrappers).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.cache.metrics import SimulationResult
from repro.cache.priority_cache import PriorityFunctionCache, TEMPLATE_PARAMS
from repro.cache.request import Trace, prefix_trace
from repro.cache.simulator import CacheSimulator, cache_size_for
from repro.core.checker import StructuralChecker
from repro.core.context import Context
from repro.core.domain import SearchDomain, SearchSetup, build_search, register_domain
from repro.core.evaluator import RUNTIME_ERRORS, EvaluationResult, Evaluator
from repro.core.search import SearchConfig
from repro.core.template import Template
from repro.dsl.ast import Program
from repro.dsl.compile import DEFAULT_BACKEND
from repro.dsl.grammar import FeatureSpec
from repro.dsl.parser import parse
from repro.llm.mock import SyntheticLLMConfig

_SIGNATURE = "def priority(now, obj_id, obj_info, counts, ages, sizes, history)"


def caching_feature_spec() -> FeatureSpec:
    """The Table-1 environment as a machine-readable feature spec."""
    return FeatureSpec(
        function_name="priority",
        params=list(TEMPLATE_PARAMS),
        scalar_params=["now"],
        object_attrs={
            "obj_info": ["count", "last_accessed", "inserted_at", "size"],
        },
        object_methods={
            "counts": [("percentile", "fraction"), ("mean", "none")],
            "ages": [("percentile", "fraction"), ("mean", "none")],
            "sizes": [("percentile", "fraction"), ("mean", "none")],
            "history": [
                ("contains", "key"),
                ("count_of", "key"),
                ("age_at_eviction", "key"),
                ("size_of", "key"),
                ("time_since_eviction", "key"),
            ],
        },
        key_params=["obj_id"],
        integer_only=False,
        result_var="score",
    )


def caching_input_intervals():
    """Value ranges of the Table-1 features, for static screening.

    Everything the cache substrate feeds the priority function is a
    non-negative count, time, or size; ``history.contains`` is the one
    boolean.  The priority score itself is used unclamped (the queue orders
    raw scores), so no ``output_clamp`` is declared.
    """
    from repro.dsl.abstract import InputIntervals, Interval

    non_negative = Interval(0, float("inf"))
    aggregate = {
        method: non_negative
        for method in ("percentile", "mean", "minimum", "maximum", "count")
    }
    return InputIntervals(
        scalars={"now": non_negative, "obj_id": non_negative},
        attrs={
            "obj_info": {
                attr: non_negative
                for attr in ("count", "last_accessed", "inserted_at", "size")
            }
        },
        methods={
            "counts": dict(aggregate),
            "ages": dict(aggregate),
            "sizes": dict(aggregate),
            "history": {
                "contains": Interval(0, 1),
                "count_of": non_negative,
                "age_at_eviction": non_negative,
                "size_of": non_negative,
                "time_since_eviction": non_negative,
                "length": non_negative,
            },
        },
        bool_methods=frozenset({("history", "contains")}),
    )


TEMPLATE_DESCRIPTION = """\
Write a priority function for a web cache.  Object metadata is stored in a
priority queue; this function is invoked whenever an object is accessed or
inserted and returns the object's priority score.  When the cache is full,
the object with the LOWEST score is evicted, so higher scores mean "keep".

Available features:
- now: the current (logical) time of the request.
- obj_id: the identifier of the object being scored.
- obj_info: per-object metadata with attributes
    .count          number of accesses since insertion
    .last_accessed  time of the most recent access
    .inserted_at    time the object was added to the cache
    .size           object size in bytes
- counts, ages, sizes: aggregates over all cached objects, each supporting
    .percentile(f)  the f-th percentile (f in [0, 1]) of the attribute
    .mean()         the mean of the attribute
- history: recently evicted objects, supporting
    .contains(obj_id), .count_of(obj_id), .age_at_eviction(obj_id),
    .size_of(obj_id), .time_since_eviction(obj_id)
- builtins: min(a, b), max(a, b), abs(x), clamp(x, lo, hi).
"""

TEMPLATE_CONSTRAINTS = [
    "The function must return a numeric score on every path.",
    "Only the features listed in the description may be used.",
    "Keep the heuristic O(log N): no loops over the cache contents "
    "(the aggregates already summarise them).",
    "Avoid division by values that can be zero; guard with max(1, x) if needed.",
    "Keep the function short (a few dozen statements at most).",
]


def caching_seed_programs() -> List[Program]:
    """The LRU and LFU seed heuristics of §4.2.1."""
    lru = parse(f"{_SIGNATURE} {{\n    return obj_info.last_accessed\n}}\n")
    lfu = parse(f"{_SIGNATURE} {{\n    return obj_info.count\n}}\n")
    return [lru, lfu]


def caching_template() -> Template:
    """The full caching Template (spec + prose + constraints + seeds)."""
    return Template(
        name="cache-priority",
        spec=caching_feature_spec(),
        description=TEMPLATE_DESCRIPTION,
        constraints=list(TEMPLATE_CONSTRAINTS),
        seed_programs=caching_seed_programs(),
    )


def caching_archetypes() -> List[str]:
    """Heuristic archetypes the synthetic LLM may remix.

    These encode the same "recurring structures" a pretrained LLM knows from
    the caching literature: value density (GDSF), recency, frequency with a
    recency correction, size penalties and history-based revival.
    """
    return [
        # Value density (GDSF-like).  The large constant keeps the
        # frequency/size term on the same scale as time-based corrections.
        f"""{_SIGNATURE} {{
    score = (obj_info.count * 100000) / obj_info.size
    return score
}}""",
        # Value density with a recency correction and history revival.
        f"""{_SIGNATURE} {{
    score = (obj_info.count * 100000) / obj_info.size
    score -= (now - obj_info.last_accessed) / 20
    if (history.contains(obj_id)) {{
        score += 100000 / obj_info.size
    }}
    return score
}}""",
        # Recency with a frequency bonus.
        f"""{_SIGNATURE} {{
    age = now - obj_info.last_accessed
    score = 0 - age
    score += obj_info.count * 50
    return score
}}""",
        # Frequency with size and age penalties.
        f"""{_SIGNATURE} {{
    score = obj_info.count * 100
    score -= (now - obj_info.last_accessed) / 100
    score -= obj_info.size / 1000
    return score
}}""",
        # History-aware revival.
        f"""{_SIGNATURE} {{
    score = obj_info.count * 30
    if (history.contains(obj_id)) {{
        score += history.count_of(obj_id) * 20
    }}
    score -= (now - obj_info.last_accessed) / 200
    return score
}}""",
        # Percentile-thresholded hybrid.
        f"""{_SIGNATURE} {{
    score = obj_info.count * 10
    if (obj_info.size > sizes.percentile(0.75)) {{
        score -= 100
    }}
    if (obj_info.count > counts.percentile(0.7)) {{
        score += 100
    }}
    score -= (now - obj_info.last_accessed) / 50
    return score
}}""",
    ]


class CachingEvaluator(Evaluator):
    """Scores candidates by their object miss ratio on one context trace.

    The score is ``-miss_ratio`` so that higher is better, as the framework
    expects.  The cache size defaults to 10 % of the trace footprint
    (§4.1.4); ``warmup`` requests are excluded from the measured window.
    """

    failure_score = -1.0  # a 100 % miss ratio: worse than any real policy

    def __init__(
        self,
        trace: Trace,
        cache_size: Optional[int] = None,
        cache_fraction: float = 0.10,
        warmup: int = 0,
        refresh_interval: int = 64,
        backend: str = DEFAULT_BACKEND,
    ):
        self.trace = trace
        self.cache_size = cache_size or cache_size_for(trace, cache_fraction)
        self.warmup = warmup
        self.refresh_interval = refresh_interval
        self.backend = backend
        self._simulator = CacheSimulator()
        self.evaluations = 0

    def evaluate_program(self, program: Program) -> EvaluationResult:
        cache = PriorityFunctionCache(
            self.cache_size,
            program,
            refresh_interval=self.refresh_interval,
            name="candidate",
            backend=self.backend,
        )
        # make_runner falls back down the chain for programs it cannot lower,
        # so the resolved backend can differ from the requested one.
        backends = {cache._priority.backend: 1}
        try:
            result: SimulationResult = self._simulator.run(cache, self.trace, warmup=self.warmup)
        except RUNTIME_ERRORS as exc:
            exc.backends = backends  # see EvaluationResult.backends
            raise
        self.evaluations += 1
        return EvaluationResult(
            score=-result.miss_ratio,
            valid=True,
            details={
                "miss_ratio": result.miss_ratio,
                "byte_miss_ratio": result.byte_miss_ratio,
                "evictions": float(result.evictions),
            },
            backends=backends,
        )

    def input_intervals(self):
        return caching_input_intervals()

    def at_fidelity(self, fraction: float) -> "CachingEvaluator":
        """A reduced-budget copy: the first ``fraction`` of the trace.

        The cache size stays the *full-trace* size -- the cache is the
        deployment under test, the trace merely samples its workload -- so a
        rung simulation is an exact prefix of the full simulation.  The
        warmup window scales with the trace: keeping it absolute could
        swallow a cheap rung's entire prefix and leave every candidate tied
        at zero measured requests.
        """
        if fraction == 1.0:
            return self
        return CachingEvaluator(
            prefix_trace(self.trace, fraction),
            cache_size=self.cache_size,
            warmup=int(self.warmup * fraction),
            refresh_interval=self.refresh_interval,
            backend=self.backend,
        )


class CachingDomain(SearchDomain):
    """The web-caching instantiation as a pluggable search domain.

    Domain keyword arguments accepted by :func:`~repro.core.domain.build_search`:
    ``trace`` (required), ``cache_fraction`` (default 0.10) and ``backend``
    (DSL execution backend for candidate evaluation, default
    :data:`~repro.dsl.compile.DEFAULT_BACKEND`).
    """

    name = "caching"
    accepted_kwargs = frozenset({"trace", "cache_fraction", "backend"})
    #: ``trace`` / ``cache_fraction`` are per-scenario in matrix mode: they
    #: live on the workload references, not the build_search call.
    matrix_kwargs = frozenset({"backend"})

    def build_template(self) -> Template:
        return caching_template()

    def build_context(
        self,
        trace: Optional[Trace] = None,
        cache_fraction: float = 0.10,
        **_ignored: Any,
    ) -> Context:
        if trace is None:
            raise ValueError("the caching domain requires a trace= argument")
        return Context.create(
            name=f"caching/{trace.name}",
            workload=f"block I/O trace {trace.name}",
            objective="minimize object miss ratio",
            cache_fraction=cache_fraction,
        )

    def build_checker(self, template: Template) -> StructuralChecker:
        return StructuralChecker(template)

    def build_evaluator(
        self,
        trace: Optional[Trace] = None,
        cache_fraction: float = 0.10,
        backend: str = DEFAULT_BACKEND,
        **_ignored: Any,
    ) -> CachingEvaluator:
        if trace is None:
            raise ValueError("the caching domain requires a trace= argument")
        return CachingEvaluator(trace, cache_fraction=cache_fraction, backend=backend)

    def build_scenario_evaluator(
        self,
        workload: Any,
        backend: str = DEFAULT_BACKEND,
        **_ignored: Any,
    ) -> CachingEvaluator:
        """One scenario of a workload matrix: the workload's trace at its
        ``cache_fraction`` grid point."""
        from repro.cache.simulator import DEFAULT_CACHE_FRACTION
        from repro.workloads import build_workload

        return CachingEvaluator(
            build_workload(workload),
            cache_fraction=workload.param("cache_fraction", DEFAULT_CACHE_FRACTION),
            backend=backend,
        )

    def input_intervals(self):
        return caching_input_intervals()

    def default_llm_config(self) -> SyntheticLLMConfig:
        return SyntheticLLMConfig(archetypes=caching_archetypes())

    def prepare_llm_config(self, config: SyntheticLLMConfig) -> SyntheticLLMConfig:
        if not config.archetypes:
            config.archetypes = caching_archetypes()
        return config

    def default_search_config(self) -> SearchConfig:
        # §4.2.1: 20 rounds x 25 candidates, top-2 parent feedback.
        return SearchConfig(rounds=20, candidates_per_round=25)


register_domain(CachingDomain())


def build_caching_search(
    trace: Trace,
    rounds: int = 20,
    candidates_per_round: int = 25,
    seed: int = 0,
    cache_fraction: float = 0.10,
    llm_config: Optional[SyntheticLLMConfig] = None,
    **kwargs: Any,
) -> SearchSetup:
    """Assemble the full caching search for ``trace`` (paper defaults).

    Thin wrapper over ``build_search("caching", ...)``; extra keyword
    arguments (``engine_config=``, ``checkpoint_path=``, ``backend=``, ...)
    are forwarded.
    """
    return build_search(
        "caching",
        rounds=rounds,
        candidates_per_round=candidates_per_round,
        seed=seed,
        llm_config=llm_config,
        trace=trace,
        cache_fraction=cache_fraction,
        **kwargs,
    )


def run_caching_search(
    trace: Trace,
    rounds: int = 20,
    candidates_per_round: int = 25,
    seed: int = 0,
    cache_fraction: float = 0.10,
    **kwargs: Any,
):
    """Run the §4.2.1 search for ``trace`` and return its :class:`SearchResult`."""
    setup = build_caching_search(
        trace,
        rounds=rounds,
        candidates_per_round=candidates_per_round,
        seed=seed,
        cache_fraction=cache_fraction,
        **kwargs,
    )
    return setup.search.run()
