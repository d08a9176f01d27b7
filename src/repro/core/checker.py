"""Checkers: enforce that generated candidates honour the Template.

The Generator may hallucinate code that does not conform to the Template's
constraints (§3 of the paper); the Checker's job is to catch such violations
*before* evaluation and to return structured feedback the Generator can use
to repair the candidate -- exactly the role played by the compiler for the
caching case study and the eBPF verifier for the kernel case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Protocol, Sequence

from repro.core.template import Template
from repro.dsl.analysis import analyze
from repro.dsl.ast import Program
from repro.dsl.errors import DslSyntaxError
from repro.dsl.parser import parse


@dataclass(frozen=True)
class CheckIssue:
    """One constraint violation.

    ``code`` is machine-readable (used by experiments to aggregate failure
    causes, as §5.0.3 does); ``message`` is the human/LLM-readable feedback.
    """

    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.code}] {self.message}"


@dataclass
class CheckResult:
    """Outcome of checking one candidate."""

    ok: bool
    program: Optional[Program] = None
    issues: List[CheckIssue] = field(default_factory=list)

    @property
    def feedback(self) -> str:
        """The "stderr" handed back to the Generator for repair."""
        return "\n".join(str(issue) for issue in self.issues)

    def issue_codes(self) -> List[str]:
        return [issue.code for issue in self.issues]


class Checker(Protocol):
    """Anything that can validate candidate source text against a Template."""

    def check(self, source: str) -> CheckResult:  # pragma: no cover - protocol
        ...


class AstChecker:
    """A checker whose rules read the AST.

    ``check`` parses the text (``parse`` serves repeated text from its memo)
    and reports what :meth:`issues` finds in the program; a composite parses
    once and hands the same ``Program`` to each of its parts.
    """

    def check(self, source: str) -> CheckResult:
        try:
            program = parse(source)
        except DslSyntaxError as exc:
            return CheckResult(
                ok=False,
                issues=[CheckIssue("syntax-error", f"build failed: {exc}")],
            )
        issues = list(self.issues(program))
        return CheckResult(ok=not issues, program=program, issues=issues)

    def issues(self, program: Program) -> Iterable[CheckIssue]:
        raise NotImplementedError


class StructuralChecker(AstChecker):
    """Baseline checker used by the caching case study.

    Verifies that the candidate

    * parses,
    * defines the function the Template asked for, with the right parameters,
    * contains a return statement,
    * references only the Template's parameters (plus builtins),
    * reads only feature attributes/methods the Template exposes,
    * stays within a node-count budget (a proxy for the paper's complexity
      constraints such as "O(log N), no full-cache scans").
    """

    def __init__(self, template: Template, max_nodes: int = 400, allow_loops: bool = True):
        self.template = template
        self.max_nodes = max_nodes
        self.allow_loops = allow_loops
        self._builtins = {"min", "max", "abs", "clamp"}
        attrs, methods = template.spec.object_attrs, template.spec.object_methods
        self._allowed_attrs = {(param, a) for param in attrs for a in attrs[param]}
        self._allowed_methods = {(param, m) for param in methods for m, _ in methods[param]}

    def issues(self, program: Program) -> Iterable[CheckIssue]:
        spec = self.template.spec
        if program.name != spec.function_name:
            yield CheckIssue(
                "wrong-function",
                f"expected a function named {spec.function_name!r}, got {program.name!r}",
            )
        if list(program.params) != list(spec.params):
            yield CheckIssue(
                "wrong-signature",
                f"expected parameters {list(spec.params)}, got {list(program.params)}",
            )
            return  # further analysis would produce noise
        facts = analyze(program)
        if not facts.has_return:
            yield CheckIssue("missing-return", "the function never returns a value")
        unknown = [name for name in facts.free_names if name not in self._builtins]
        if unknown:
            yield CheckIssue(
                "unknown-name",
                f"reference to undefined name(s): {', '.join(sorted(unknown))}",
            )
        for param, attr in sorted(facts.attributes_read):
            if param in spec.object_attrs and (param, attr) not in self._allowed_attrs:
                yield CheckIssue(
                    "unknown-feature",
                    f"{param}.{attr} is not an available feature",
                )
        for param, method in sorted(facts.methods_called):
            if param == "<builtin>":
                if method not in self._builtins:
                    yield CheckIssue(
                        "unknown-function", f"call to unknown function {method}()"
                    )
            elif param in spec.object_methods and (param, method) not in self._allowed_methods:
                yield CheckIssue(
                    "unknown-feature",
                    f"{param}.{method}() is not an available feature method",
                )
        if not self.allow_loops and (facts.while_loop_count or facts.for_loop_count):
            yield CheckIssue("loop-forbidden", "loops are not allowed by this template")
        if facts.node_count > self.max_nodes:
            yield CheckIssue(
                "too-complex",
                f"candidate has {facts.node_count} AST nodes "
                f"(budget is {self.max_nodes}); simplify the heuristic",
            )


class CompositeChecker(AstChecker):
    """Run several AST checkers over one parse, concatenating their issues.

    A text that does not parse is reported once, as its syntax error: the
    parts need the AST.
    """

    def __init__(self, checkers: Sequence[AstChecker]):
        if not checkers:
            raise ValueError("CompositeChecker needs at least one checker")
        self.checkers = list(checkers)

    def issues(self, program: Program) -> Iterable[CheckIssue]:
        for checker in self.checkers:
            yield from checker.issues(program)
