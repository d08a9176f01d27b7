"""The congestion-control search as a pluggable domain (§5 of the paper).

All the wiring lives in the shared engine now; this module only registers
the :class:`CCDomain` -- the kernel Template, the kernel-constraint checker
(the eBPF-verifier stand-in), the emulated-link evaluator and the
kernel-flavoured synthetic-LLM configuration.  Assemble a search with
``build_search("cc", ...)`` or the thin :func:`build_cc_search` /
:func:`run_cc_search` wrappers.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cc.evaluator import (
    CongestionControlEvaluator,
    cc_input_intervals,
    default_cc_simulation_config,
)
from repro.cc.kernel_constraints import KernelConstraintChecker
from repro.cc.template import cc_grammar_config, cc_template, kernel_llm_config
from repro.core.context import Context
from repro.core.domain import SearchDomain, SearchSetup, build_search, register_domain
from repro.core.search import SearchConfig
from repro.core.template import Template
from repro.dsl.compile import DEFAULT_BACKEND
from repro.dsl.grammar import GrammarConfig
from repro.llm.mock import SyntheticLLMConfig
from repro.netsim.simulator import SimulationConfig


class CCDomain(SearchDomain):
    """Kernel-constrained congestion-control search over the emulated link.

    Domain keyword arguments accepted by :func:`~repro.core.domain.build_search`:
    ``duration_s`` (default 8.0), ``simulation`` (a full
    :class:`~repro.netsim.simulator.SimulationConfig` overriding
    ``duration_s``) and ``backend`` (DSL execution backend, default
    :data:`~repro.dsl.compile.DEFAULT_BACKEND`).
    """

    name = "cc"
    accepted_kwargs = frozenset({"duration_s", "simulation", "backend"})
    #: ``duration_s`` / ``simulation`` are per-scenario in matrix mode: they
    #: live on the workload references, not the build_search call.
    matrix_kwargs = frozenset({"backend"})

    def build_template(self) -> Template:
        return cc_template()

    def build_context(self, **_ignored: Any) -> Context:
        return Context.create(
            name="cc/12mbps-20ms",
            workload="single bulk TCP flow",
            objective="maximize utilization while keeping queueing delay low",
            environment="linux-kernel (eBPF)",
            link="12 Mbps",
            rtt="20 ms",
        )

    def build_checker(self, template: Template) -> KernelConstraintChecker:
        return KernelConstraintChecker(template)

    def build_evaluator(
        self,
        duration_s: float = 8.0,
        simulation: Optional[SimulationConfig] = None,
        backend: str = DEFAULT_BACKEND,
        **_ignored: Any,
    ) -> CongestionControlEvaluator:
        return CongestionControlEvaluator(
            config=simulation or default_cc_simulation_config(duration_s),
            backend=backend,
        )

    def build_scenario_evaluator(
        self,
        workload: Any,
        backend: str = DEFAULT_BACKEND,
        **_ignored: Any,
    ) -> CongestionControlEvaluator:
        """One scenario of a workload matrix: a declarative netsim topology."""
        from repro.workloads import build_workload

        return CongestionControlEvaluator(scenario=build_workload(workload), backend=backend)

    def input_intervals(self):
        return cc_input_intervals()

    def default_llm_config(self) -> SyntheticLLMConfig:
        return kernel_llm_config()

    def grammar_config(self) -> GrammarConfig:
        return cc_grammar_config()

    def default_search_config(self) -> SearchConfig:
        # The §5 case study is a feasibility study -- 100 candidates, one
        # repair round -- so the default round count is small; pass larger
        # values for a real search.
        return SearchConfig(rounds=4, candidates_per_round=25, repair_attempts=1)


register_domain(CCDomain())


def build_cc_search(
    rounds: int = 4,
    candidates_per_round: int = 25,
    seed: int = 0,
    duration_s: float = 8.0,
    simulation: Optional[SimulationConfig] = None,
    llm_config: Optional[SyntheticLLMConfig] = None,
    repair_attempts: int = 1,
    **kwargs: Any,
) -> SearchSetup:
    """Assemble the kernel-constrained search (thin ``build_search`` wrapper)."""
    return build_search(
        "cc",
        rounds=rounds,
        candidates_per_round=candidates_per_round,
        repair_attempts=repair_attempts,
        seed=seed,
        llm_config=llm_config,
        duration_s=duration_s,
        simulation=simulation,
        **kwargs,
    )


def run_cc_search(
    rounds: int = 4,
    candidates_per_round: int = 25,
    seed: int = 0,
    duration_s: float = 8.0,
    **kwargs: Any,
):
    """Run the congestion-control search and return its :class:`SearchResult`."""
    setup = build_cc_search(
        rounds=rounds,
        candidates_per_round=candidates_per_round,
        seed=seed,
        duration_s=duration_s,
        **kwargs,
    )
    return setup.search.run()
