"""Static analysis over candidate programs.

The facts gathered here feed two consumers:

* **Checkers** -- the caching Checker verifies the program is well-formed
  (has a return, references only known features); the kernel-constraint
  Checker (our eBPF-verifier stand-in, :mod:`repro.cc.kernel_constraints`)
  additionally rejects floating point, unchecked division, and loops that
  cannot be proven bounded, which the paper reports as the dominant causes
  of verifier failures (§5.0.3).
* **Experiments** -- complexity and feature-usage statistics of discovered
  heuristics (the paper discusses Listing 1's structure in §4.2.5).

:func:`analyze` gathers every fact in one walk, one branch per node type
reading that type's fields; a parsed program is analysed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.dsl.ast import (
    Assign,
    Attribute,
    AugAssign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Expr,
    ForRange,
    If,
    Name,
    Number,
    Program,
    Return,
    Stmt,
    Ternary,
    UnaryOp,
    While,
)
from repro.dsl.codegen import expr_to_source


@dataclass(slots=True)
class DivisionSite:
    """One division or modulo in the program.

    ``checked`` is True when the divisor is a non-zero numeric literal --
    i.e. the division can be statically proven safe.  Divisions by arbitrary
    expressions are reported as unchecked; the kernel checker rejects them
    (the paper lists "missing checks for division by zero" among the most
    common failures).
    """

    op: str
    checked: bool
    divisor_repr: str


@dataclass(slots=True)
class ProgramFacts:
    """Everything the checkers need to know about a candidate, in one pass."""

    has_return: bool
    return_count: int
    uses_float_literal: bool
    uses_true_division: bool
    division_sites: List[DivisionSite] = field(default_factory=list)
    while_loop_count: int = 0
    for_loop_count: int = 0
    unbounded_for_count: int = 0
    attributes_read: Set[Tuple[str, str]] = field(default_factory=set)
    methods_called: Set[Tuple[str, str]] = field(default_factory=set)
    names_read: Set[str] = field(default_factory=set)
    free_names: List[str] = field(default_factory=list)
    node_count: int = 0
    max_expression_depth: int = 0

    @property
    def uses_float_arithmetic(self) -> bool:
        """True if the candidate relies on floating point anywhere."""
        return self.uses_float_literal or self.uses_true_division

    @property
    def has_unchecked_division(self) -> bool:
        return any(not site.checked for site in self.division_sites)

    @property
    def has_potentially_unbounded_loop(self) -> bool:
        return self.while_loop_count > 0 or self.unbounded_for_count > 0

    def feature_attributes(self) -> Set[str]:
        """Attribute names read across all feature objects (e.g. ``count``)."""
        return {attr for _obj, attr in self.attributes_read}


def analyze(program: Program) -> ProgramFacts:
    """:class:`ProgramFacts` for ``program``, from a single AST walk.

    A read-only (parsed) program is analysed once and hands every caller the
    same record."""
    return program.derive("facts", _analyze)


def _analyze(program: Program) -> ProgramFacts:
    facts = ProgramFacts(
        has_return=False, return_count=0, uses_float_literal=False, uses_true_division=False
    )
    # A name is free when it is read before anything in program order binds
    # it (parameters, assignment targets, loop variables; no block scoping).
    assigned = set(program.params)
    free = facts.free_names
    names_read = facts.names_read
    nodes = 0

    def block(body) -> int:
        height = 0
        for stmt in body:
            child = visit(stmt)
            if child > height:
                height = child
        return height

    def visit(node) -> int:
        """Record ``node``'s facts, then its children's in field order, and
        return its height.  A bound name is a child of height 1, not a read."""
        nonlocal nodes
        nodes += 1
        kind = type(node)
        if kind is Name:
            name = node.id
            names_read.add(name)
            if name not in assigned and name not in free:
                free.append(name)
            return 1
        if kind is Number:
            facts.uses_float_literal |= isinstance(node.value, float)
            return 1
        if kind is Attribute:
            base = node.value
            facts.attributes_read.add((base.id if type(base) is Name else "<expr>", node.attr))
            return 1 + visit(base)
        if kind is BinOp or kind is Compare:
            op = node.op
            if op == "/" or op == "//" or op == "%":
                facts.uses_true_division |= op == "/"
                divisor = node.right
                checked = type(divisor) is Number and divisor.value != 0
                facts.division_sites.append(DivisionSite(op, checked, _brief_repr(divisor)))
            left = visit(node.left)
            right = visit(node.right)
            return 1 + (left if left > right else right)
        if kind is AugAssign or kind is Assign:
            target = node.target.id
            nodes += 1
            names_read.add(target)
            height = visit(node.value)
            if kind is AugAssign and target not in assigned and target not in free:
                free.append(target)
            assigned.add(target)
            return 1 + height
        if kind is Call:
            func = node.func
            if type(func) is Attribute:
                base = func.value
                facts.methods_called.add((base.id if type(base) is Name else "<expr>", func.attr))
            elif type(func) is Name:
                facts.methods_called.add(("<builtin>", func.id))
            return 1 + max(visit(func), block(node.args))
        if kind is If:
            return 1 + max(visit(node.condition), block(node.body), block(node.orelse))
        if kind is Return:
            facts.return_count += 1
            return 1 + visit(node.value)
        if kind is UnaryOp:
            return 1 + visit(node.operand)
        if kind is Ternary:
            return 1 + max(visit(node.condition), visit(node.if_true), visit(node.if_false))
        if kind is Program or kind is BoolOp:
            return 1 + block(node.body if kind is Program else node.values)
        if kind is ForRange:
            facts.for_loop_count += 1
            facts.unbounded_for_count += type(node.limit) is not Number
            nodes += 1
            names_read.add(node.var.id)
            height = visit(node.limit)
            assigned.add(node.var.id)
            return 1 + max(height, block(node.body))
        if kind is While:
            facts.while_loop_count += 1
            return 1 + max(visit(node.condition), block(node.body))
        raise TypeError(f"not a DSL node: {kind.__name__}")

    facts.max_expression_depth = visit(program)
    facts.node_count = nodes
    facts.has_return = facts.return_count > 0
    # Method calls also show up as attribute reads because Call.func is an
    # Attribute node; strip them so "attributes_read" means data accesses.
    facts.attributes_read -= facts.methods_called
    return facts


def _brief_repr(node) -> str:
    """A short human-readable rendering of an expression for diagnostics."""
    text = expr_to_source(node)
    if len(text) > 40:
        text = text[:37] + "..."
    return text


# --------------------------------------------------------------------------
# Vectorizability (feeds the column-bound kernels of repro.dsl.vectorize)
# --------------------------------------------------------------------------

#: Builtin functions a kernel may call, with the arities checked below
#: (min/max accept 2+; anything else errors at runtime, so such programs
#: take the scalar backends, which produce the right error).
_VECTOR_BUILTINS = {"min", "max", "abs", "clamp"}


@dataclass(frozen=True)
class ColumnSpec:
    """One feature read of a program, as a per-evaluation input of its kernel.

    ``kind`` is ``"scalar"`` (a plain numeric parameter read), ``"attr"``
    (``param.attr``) or ``"method"`` (``param.method(args)``).  ``args`` are
    ``("lit", value)`` / ``("param", name)`` pairs; canonicalisation is by
    *value* (``percentile(0.7)`` and ``percentile(0.70)`` share a column).
    """

    key: str
    kind: str
    param: str
    attr: Optional[str] = None
    args: Tuple[Tuple[str, Any], ...] = ()


@dataclass
class VectorizabilityReport:
    """Outcome of :func:`vectorizability`: either a column plan or reasons.

    ``leaves`` maps ``id(node)`` of every attribute read and method call on
    a parameter object to its column's key: the nodes a kernel reads from a
    local instead of evaluating (``repro.dsl.compile``'s ``leaves``)."""

    ok: bool
    reasons: List[str] = field(default_factory=list)
    columns: List[ColumnSpec] = field(default_factory=list)
    leaves: Dict[int, str] = field(default_factory=dict)


def _column_key(kind: str, param: str, attr: Optional[str], args) -> str:
    if kind == "scalar":
        return param
    if kind == "attr":
        return f"{param}.{attr}"
    rendered = ", ".join(repr(v) if k == "lit" else v for k, v in args)
    return f"{param}.{attr}({rendered})"


def vectorizability(program: Program) -> VectorizabilityReport:
    """Decide whether ``program``'s feature reads can be hoisted into columns.

    The check is conservative: it accepts straight-line numeric programs
    whose feature accesses can be captured ahead of the body (attribute
    reads and method calls on parameter objects, with literal or
    never-reassigned-parameter arguments), and rejects everything a kernel
    over plain column values could evaluate differently from the scalar
    backends -- loops, feature objects used as values, unknown functions.
    Rejected programs simply run on the compiled/interpreter backends.
    """
    params = set(program.params)
    reasons: List[str] = []
    columns: List[ColumnSpec] = []
    leaves: Dict[int, str] = {}
    seen_keys: Set[str] = set()
    assigned: Set[str] = set()
    feature_params: Set[str] = set()
    bare_reads: Set[str] = set()

    # Pass 1: names assigned anywhere (targets are mutable locals; a feature
    # or method-argument parameter must never be one of them).
    for node in program.walk():
        if isinstance(node, (Assign, AugAssign)):
            assigned.add(node.target.id)
        elif isinstance(node, ForRange):
            assigned.add(node.var.id)

    def add_column(kind: str, param: str, attr: Optional[str], args=()) -> str:
        key = _column_key(kind, param, attr, args)
        if key not in seen_keys:
            seen_keys.add(key)
            columns.append(
                ColumnSpec(key=key, kind=kind, param=param, attr=attr, args=tuple(args))
            )
        return key

    def visit_feature_base(base: Expr, what: str) -> Optional[str]:
        if not isinstance(base, Name):
            reasons.append(f"{what} on a non-parameter expression")
            return None
        if base.id not in params:
            reasons.append(f"{what} on non-parameter name {base.id!r}")
            return None
        feature_params.add(base.id)
        return base.id

    def visit_expr(expr: Expr) -> None:
        if isinstance(expr, Name):
            bare_reads.add(expr.id)
            if expr.id in params:
                add_column("scalar", expr.id, None)
            elif expr.id not in assigned:
                reasons.append(f"name {expr.id!r} is neither a parameter nor assigned")
        elif isinstance(expr, Attribute):
            param = visit_feature_base(expr.value, f"attribute read .{expr.attr}")
            if param is not None:
                leaves[id(expr)] = add_column("attr", param, expr.attr)
        elif isinstance(expr, Call):
            func = expr.func
            if isinstance(func, Attribute):
                param = visit_feature_base(func.value, f"method call .{func.attr}()")
                if param is None:
                    return
                args: List[Tuple[str, Any]] = []
                for arg in expr.args:
                    if isinstance(arg, Number):
                        args.append(("lit", arg.value))
                    elif isinstance(arg, Name) and arg.id in params:
                        bare_reads.add(arg.id)
                        if arg.id in assigned:
                            reasons.append(
                                f"method argument {arg.id!r} is reassigned, so its "
                                "capture-time column would go stale"
                            )
                        args.append(("param", arg.id))
                        add_column("scalar", arg.id, None)
                    else:
                        reasons.append(
                            f"method argument of .{func.attr}() is not a literal "
                            "or parameter"
                        )
                        return
                leaves[id(expr)] = add_column("method", param, func.attr, args)
            elif isinstance(func, Name):
                if func.id not in _VECTOR_BUILTINS:
                    reasons.append(f"unknown function {func.id!r}")
                    return
                arity = len(expr.args)
                if func.id in ("min", "max") and arity < 2:
                    reasons.append(f"{func.id}() with {arity} argument(s)")
                elif func.id == "abs" and arity != 1:
                    reasons.append(f"abs() with {arity} argument(s)")
                elif func.id == "clamp" and arity != 3:
                    reasons.append(f"clamp() with {arity} argument(s)")
                for arg in expr.args:
                    visit_expr(arg)
            else:
                reasons.append("unsupported call target")
        elif isinstance(expr, UnaryOp):
            visit_expr(expr.operand)
        elif isinstance(expr, (BinOp, Compare)):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, BoolOp):
            for value in expr.values:
                visit_expr(value)
        elif isinstance(expr, Ternary):
            visit_expr(expr.condition)
            visit_expr(expr.if_true)
            visit_expr(expr.if_false)
        elif not isinstance(expr, Number):
            reasons.append(f"unsupported expression {type(expr).__name__}")

    def visit_block(stmts: List[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                visit_expr(stmt.value)
            elif isinstance(stmt, AugAssign):
                # Desugars to a read of the target followed by a binary op.
                bare_reads.add(stmt.target.id)
                if stmt.target.id in params:
                    add_column("scalar", stmt.target.id, None)
                visit_expr(stmt.value)
            elif isinstance(stmt, If):
                visit_expr(stmt.condition)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
            elif isinstance(stmt, Return):
                visit_expr(stmt.value)
            elif isinstance(stmt, (ForRange, While)):
                reasons.append(f"{type(stmt).__name__} loops take the interpreter: step budget")
            else:
                reasons.append(f"unsupported statement {type(stmt).__name__}")

    visit_block(program.body)

    for name in sorted(feature_params & assigned):
        reasons.append(f"feature parameter {name!r} is reassigned")
    for name in sorted(feature_params & bare_reads):
        reasons.append(f"feature parameter {name!r} is used as a plain value")

    if reasons:
        return VectorizabilityReport(ok=False, reasons=reasons)
    return VectorizabilityReport(ok=True, columns=columns, leaves=leaves)
