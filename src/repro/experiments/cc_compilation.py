"""§5.0.3 compilation rates: how many kernel candidates pass the verifier.

The paper generates 100 congestion-control candidates, compiles them to
eBPF, and reports:

* 63 % passed the verifier on the first try,
* an additional 19 % compiled after the Generator was shown the stderr,
* the most common causes were floating-point arithmetic and missing
  division-by-zero checks,
* versus a 92 % first-pass rate for the (much less constrained) caching
  Template.

This module reproduces the whole table: it generates N candidates for each
Template, runs them through the corresponding Checker with one
feedback/repair round, and aggregates pass rates and failure causes.

Run via the unified CLI::

    python -m repro run cc-compilation --set candidates=100
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.cache.search import caching_archetypes, caching_template
from repro.cc.kernel_constraints import KernelConstraintChecker
from repro.cc.template import cc_grammar_config, cc_template, kernel_llm_config
from repro.core.checker import Checker, StructuralChecker
from repro.core.generator import LLMGenerator
from repro.core.template import Template
from repro.dsl.codegen import to_source
from repro.experiments.registry import ExperimentDef
from repro.llm.mock import SyntheticLLMClient, SyntheticLLMConfig


@dataclass
class CompilationReport:
    """Pass/repair statistics for one Template."""

    template: str
    candidates: int
    first_pass: int
    repaired: int
    failed: int
    failure_codes: Dict[str, int] = field(default_factory=dict)

    @property
    def first_pass_rate(self) -> float:
        return self.first_pass / self.candidates if self.candidates else 0.0

    @property
    def repaired_rate(self) -> float:
        return self.repaired / self.candidates if self.candidates else 0.0


def _measure(
    template: Template,
    checker: Checker,
    client: SyntheticLLMClient,
    num_candidates: int,
    repair: bool = True,
) -> CompilationReport:
    generator = LLMGenerator(template, client)
    parents = [(to_source(p), 0.0) for p in template.seed_programs]
    report = CompilationReport(
        template=template.name,
        candidates=0,
        first_pass=0,
        repaired=0,
        failed=0,
    )
    batch = 25
    remaining = num_candidates
    while remaining > 0:
        sources = generator.generate(parents, min(batch, remaining))
        if not sources:
            break
        for source in sources:
            report.candidates += 1
            result = checker.check(source)
            if result.ok:
                report.first_pass += 1
                continue
            for issue in result.issues:
                report.failure_codes[issue.code] = (
                    report.failure_codes.get(issue.code, 0) + 1
                )
            if repair:
                repaired_source = generator.repair(source, result.feedback)
                if repaired_source is not None and checker.check(repaired_source).ok:
                    report.repaired += 1
                    continue
            report.failed += 1
        remaining -= len(sources)
    return report


def run_cc_compilation(
    num_candidates: int = 100,
    seed: int = 11,
    include_caching: bool = True,
    repair: bool = True,
    llm_config: Optional[SyntheticLLMConfig] = None,
) -> List[CompilationReport]:
    """Measure verifier pass rates for the kernel Template (and caching, for
    the 92 % comparison row)."""
    reports: List[CompilationReport] = []

    kernel_template = cc_template()
    kernel_client = SyntheticLLMClient(
        kernel_template.spec,
        config=llm_config or kernel_llm_config(),
        seed=seed,
        grammar=cc_grammar_config(),
    )
    reports.append(
        _measure(
            kernel_template,
            KernelConstraintChecker(kernel_template),
            kernel_client,
            num_candidates,
            repair=repair,
        )
    )

    if include_caching:
        cache_template = caching_template()
        cache_client = SyntheticLLMClient(
            cache_template.spec,
            config=SyntheticLLMConfig(archetypes=caching_archetypes()),
            seed=seed,
        )
        reports.append(
            _measure(
                cache_template,
                StructuralChecker(cache_template),
                cache_client,
                num_candidates,
                repair=repair,
            )
        )
    return reports


def format_compilation(reports: List[CompilationReport]) -> str:
    lines = [
        "Checker pass rates (one repair round with checker feedback)",
        f"{'template':<16} {'n':>5} {'first pass':>11} {'after repair':>13} {'failed':>8}",
    ]
    for report in reports:
        lines.append(
            f"{report.template:<16} {report.candidates:>5} "
            f"{report.first_pass_rate * 100:10.1f}% "
            f"{'+' + format(report.repaired_rate * 100, '.1f') + '%':>13} "
            f"{report.failed:>8}"
        )
    for report in reports:
        if report.failure_codes:
            causes = ", ".join(
                f"{code}: {count}"
                for code, count in sorted(
                    report.failure_codes.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"  {report.template} failure causes: {causes}")
    return "\n".join(lines)


# -- experiment registration --------------------------------------------------------


def compilation_payload(reports: List[CompilationReport]) -> dict:
    return {
        "kind": "cc-compilation",
        "reports": [asdict(report) for report in reports],
    }


def render_compilation(payload: dict) -> str:
    """Pure reducer: stored payload -> the printed pass-rate table."""
    return format_compilation(
        [CompilationReport(**raw) for raw in payload["reports"]]
    )


def _run_cc_compilation_experiment(
    candidates: int, seed: int, caching: bool, repair: bool
) -> dict:
    reports = run_cc_compilation(
        num_candidates=candidates,
        seed=seed,
        include_caching=caching,
        repair=repair,
    )
    return compilation_payload(reports)


EXPERIMENT = ExperimentDef(
    name="cc-compilation",
    description="§5.0.3: verifier pass rates (kernel vs caching templates)",
    runner=_run_cc_compilation_experiment,
    renderer=render_compilation,
    params={"candidates": 100, "seed": 11, "caching": True, "repair": True},
)
