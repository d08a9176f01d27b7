"""Kernel-constraint checker: the reproduction's eBPF-verifier stand-in.

In the paper, candidate congestion-control programs are compiled to eBPF and
must pass the in-kernel verifier before they can run; the verifier therefore
*is* the Checker for the kernel case study, and §5.0.3 reports that the most
common rejection causes are floating-point arithmetic and missing
division-by-zero checks.

:class:`KernelRuleChecker` performs the equivalent static analysis over the
DSL AST:

* ``float-arith`` -- float literals or true division ``/``;
* ``div-by-zero`` -- division/modulo whose divisor is not a provably non-zero
  constant and is not guarded with ``max(1, ...)``;
* ``unbounded-loop`` -- ``while`` loops, or ``for`` ranges that are not
  compile-time constants;
* ``too-complex`` -- programs above the instruction budget (the verifier has
  a hard instruction limit).

:class:`KernelConstraintChecker` composes these rules with the generic
:class:`~repro.core.checker.StructuralChecker` so signature/feature errors
are also reported.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.checker import AstChecker, CheckIssue, CompositeChecker, StructuralChecker
from repro.core.template import Template
from repro.dsl.analysis import analyze
from repro.dsl.ast import BinOp, Call, ForRange, Name, Number, Program, While
from repro.dsl.codegen import expr_to_source


def _is_guarded_divisor(expr) -> bool:
    """True when the divisor is provably non-zero.

    Accepted forms: a non-zero numeric literal, or a call to ``max(c, ...)``
    whose first argument is a positive numeric literal (the guard idiom the
    Template's constraints recommend).
    """
    if isinstance(expr, Number):
        return expr.value != 0
    if isinstance(expr, Call) and isinstance(expr.func, Name) and expr.func.id == "max":
        if expr.args and isinstance(expr.args[0], Number) and expr.args[0].value > 0:
            return True
    return False


class KernelRuleChecker(AstChecker):
    """The kernel-specific rules, usable standalone or inside a composite."""

    def __init__(self, max_nodes: int = 200):
        self.max_nodes = max_nodes

    def issues(self, program: Program) -> Iterable[CheckIssue]:
        for node in program.walk():
            if isinstance(node, Number) and isinstance(node.value, float):
                yield CheckIssue(
                    "float-arith",
                    f"floating-point literal {node.value!r} is not allowed in kernel code",
                )
            elif isinstance(node, BinOp):
                if node.op == "/":
                    yield CheckIssue(
                        "float-arith",
                        "true division '/' produces floating point; use integer "
                        "division '//' instead",
                    )
                if node.op in ("/", "//", "%") and not _is_guarded_divisor(node.right):
                    yield CheckIssue(
                        "div-by-zero",
                        "divisor "
                        f"'{expr_to_source(node.right)}' may be zero; guard it with "
                        "max(1, ...) or use a non-zero constant",
                    )
            elif isinstance(node, While):
                yield CheckIssue(
                    "unbounded-loop", "'while' loops cannot be verified as bounded"
                )
            elif isinstance(node, ForRange) and not isinstance(node.limit, Number):
                yield CheckIssue(
                    "unbounded-loop",
                    f"for-range limit '{expr_to_source(node.limit)}' is not a constant",
                )
        node_count = analyze(program).node_count
        if node_count > self.max_nodes:
            yield CheckIssue(
                "too-complex",
                f"program has {node_count} AST nodes, exceeding the verifier "
                f"budget of {self.max_nodes}",
            )


class KernelConstraintChecker(CompositeChecker):
    """Structural checks + kernel rules, in one checker."""

    def __init__(self, template: Template, max_nodes: int = 200):
        super().__init__(
            [
                StructuralChecker(template, max_nodes=max_nodes, allow_loops=True),
                KernelRuleChecker(max_nodes=max_nodes),
            ]
        )
