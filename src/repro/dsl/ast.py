"""AST node definitions for the heuristic DSL.

The language is a small imperative subset designed to express priority
functions (caching) and congestion-window update rules (congestion control):

* expressions: numbers, variable names, attribute access (``obj.count``),
  calls (``ages.percentile(0.75)``, ``history.contains(obj_id)``), unary and
  binary arithmetic, comparisons, boolean connectives, ternaries;
* statements: assignment, augmented assignment, ``if``/``else``, bounded
  ``for`` over ``range``, ``while``, ``return``.

Nodes are plain dataclasses with structural equality, which the evolutionary
operators rely on (two independently generated but identical candidates
deduplicate naturally).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, fields
from typing import Iterator, List, Sequence, Tuple, Union


# --------------------------------------------------------------------------
# Base node
# --------------------------------------------------------------------------


@functools.cache
def _field_names(cls: type) -> Tuple[str, ...]:
    """Field names of a node class, in declaration order -- cached, because
    ``dataclasses.fields`` rebuilds its tuple on every call and
    ``children()`` runs per node on every checker and lowering traversal."""
    return tuple(f.name for f in fields(cls))


@dataclass(eq=True)
class Node:
    """Common behaviour for every AST node."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (depth 1)."""
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def clone(self) -> "Node":
        """Return a deep copy of this subtree."""
        return copy.deepcopy(self)

    def size(self) -> int:
        """Number of nodes in the subtree (a crude complexity measure)."""
        return sum(1 for _ in self.walk())


Expr = Node
Stmt = Node


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Number(Node):
    """A numeric literal.  ``value`` may be int or float.

    Whether a literal is an int or a float matters: the kernel-constraint
    checker rejects float literals outright (§5 of the paper reports
    floating-point arithmetic as the most common verifier failure).
    """

    value: Union[int, float]

    def is_float(self) -> bool:
        return isinstance(self.value, float)


@dataclass(eq=True)
class Name(Node):
    """A bare variable reference (``now``, ``score``, ``cwnd``)."""

    id: str


@dataclass(eq=True)
class Attribute(Node):
    """Attribute access on a feature object (``obj_info.count``)."""

    value: Expr
    attr: str


@dataclass(eq=True)
class Call(Node):
    """A call on a feature object or builtin (``sizes.percentile(0.75)``)."""

    func: Expr
    args: List[Expr] = field(default_factory=list)


@dataclass(eq=True)
class UnaryOp(Node):
    """Unary operation: ``-x`` or ``not x``."""

    op: str  # "-" | "not"
    operand: Expr


@dataclass(eq=True)
class BinOp(Node):
    """Binary arithmetic: + - * / // % min max (min/max as infix helpers)."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True)
class Compare(Node):
    """A single comparison (no chaining): < <= > >= == !=."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True)
class BoolOp(Node):
    """Boolean connective over two or more operands: ``and`` / ``or``."""

    op: str  # "and" | "or"
    values: List[Expr] = field(default_factory=list)


@dataclass(eq=True)
class Ternary(Node):
    """Conditional expression: ``cond ? a : b`` (C style in source form)."""

    condition: Expr
    if_true: Expr
    if_false: Expr


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Assign(Node):
    """``target = value``.  ``target`` is always a bare :class:`Name`."""

    target: Name
    value: Expr


@dataclass(eq=True)
class AugAssign(Node):
    """``target op= value`` for op in + - * / // %."""

    target: Name
    op: str
    value: Expr


@dataclass(eq=True)
class If(Node):
    """``if (cond) { body } else { orelse }`` -- ``orelse`` may be empty."""

    condition: Expr
    body: List[Stmt] = field(default_factory=list)
    orelse: List[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class ForRange(Node):
    """``for (i in range(limit)) { body }`` -- the only bounded loop form."""

    var: Name
    limit: Expr
    body: List[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class While(Node):
    """``while (cond) { body }``.

    Allowed by the grammar but rejected by the kernel-constraint checker
    (it cannot generally be proven bounded), mirroring the eBPF verifier.
    """

    condition: Expr
    body: List[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class Return(Node):
    """``return expr``."""

    value: Expr


# --------------------------------------------------------------------------
# Program
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Program(Node):
    """A complete candidate heuristic.

    ``name`` is the function name, ``params`` the formal parameters supplied
    by the Template (e.g. ``priority(now, obj_id, obj_info, ...)``), and
    ``body`` the list of statements generated by the Generator.
    """

    name: str
    params: List[str] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)

    def statements(self) -> Sequence[Stmt]:
        return list(self.body)

    def returns(self) -> List[Return]:
        """All return statements anywhere in the program."""
        return [node for node in self.walk() if isinstance(node, Return)]

    def free_names(self) -> List[str]:
        """Names read before ever being assigned at the top level.

        Used by checkers to verify the candidate only references parameters
        and locally-defined variables.
        """
        assigned = set(self.params)
        free: List[str] = []

        def visit_expr(expr: Expr) -> None:
            for node in expr.walk():
                if isinstance(node, Name) and node.id not in assigned:
                    if node.id not in free:
                        free.append(node.id)

        def visit_block(stmts: Sequence[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, Assign):
                    visit_expr(stmt.value)
                    assigned.add(stmt.target.id)
                elif isinstance(stmt, AugAssign):
                    visit_expr(stmt.value)
                    if stmt.target.id not in assigned:
                        if stmt.target.id not in free:
                            free.append(stmt.target.id)
                    assigned.add(stmt.target.id)
                elif isinstance(stmt, If):
                    visit_expr(stmt.condition)
                    visit_block(stmt.body)
                    visit_block(stmt.orelse)
                elif isinstance(stmt, ForRange):
                    visit_expr(stmt.limit)
                    assigned.add(stmt.var.id)
                    visit_block(stmt.body)
                elif isinstance(stmt, While):
                    visit_expr(stmt.condition)
                    visit_block(stmt.body)
                elif isinstance(stmt, Return):
                    visit_expr(stmt.value)

        visit_block(self.body)
        return free


def iter_blocks(node: Node) -> Iterator[List[Stmt]]:
    """Yield every statement list in ``node`` (program body, if/loop bodies).

    Mutation operators use this to pick insertion/deletion points uniformly
    over all blocks rather than only the top level.
    """
    if isinstance(node, Program):
        yield node.body
    for descendant in node.walk():
        if isinstance(descendant, If):
            yield descendant.body
            if descendant.orelse:
                yield descendant.orelse
        elif isinstance(descendant, (ForRange, While)):
            yield descendant.body


def expressions_of(node: Node) -> List[Expr]:
    """Return all expression nodes in the subtree, in walk order."""
    expr_types = (Number, Name, Attribute, Call, UnaryOp, BinOp, Compare, BoolOp, Ternary)
    return [n for n in node.walk() if isinstance(n, expr_types)]
