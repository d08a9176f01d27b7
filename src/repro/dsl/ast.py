"""AST node definitions for the heuristic DSL.

The language is a small imperative subset designed to express priority
functions (caching) and congestion-window update rules (congestion control):

* expressions: numbers, variable names, attribute access (``obj.count``),
  calls (``ages.percentile(0.75)``, ``history.contains(obj_id)``), unary and
  binary arithmetic, comparisons, boolean connectives, ternaries;
* statements: assignment, augmented assignment, ``if``/``else``, bounded
  ``for`` over ``range``, ``while``, ``return``.

Nodes are slotted dataclasses (no per-node ``__dict__``) with structural
equality, which the evolutionary operators rely on (two independently
generated but identical candidates deduplicate naturally).

**A parsed program is read-only.**  :func:`repro.dsl.parser.parse` serves
repeated text from a memo, so the :class:`Program` it returns is shared by
everyone who parses that text, and what is derived from it (canonical source,
its key, analysis facts) is remembered on ``Program.derived``.  Anything that
edits a tree -- ``mutate``, ``crossover``, the synthetic model's injectors and
fixers -- works on a :meth:`Node.clone`, which carries no ``derived``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

_PLAIN, _NODE, _NODE_LIST = 0, 1, 2
_FIELD_KINDS = {
    "Expr": _NODE,
    "Stmt": _NODE,
    "Name": _NODE,
    "List[Expr]": _NODE_LIST,
    "List[Stmt]": _NODE_LIST,
}


# --------------------------------------------------------------------------
# Base node
# --------------------------------------------------------------------------


@dataclass(eq=True, slots=True)
class Node:
    """Common behaviour for every AST node."""

    #: ``(field name, kind)`` of the fields, in declaration order, and the
    #: child-bearing ones among them -- sorted once per class from the
    #: annotations, because ``children()`` and ``clone()`` run per node on
    #: every checker, lowering and remixing traversal.
    _fields = ()
    _child_fields = ()

    def __init_subclass__(cls) -> None:
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(
            (name, _FIELD_KINDS.get(annotation, _PLAIN))
            for name, annotation in annotations.items()
        )
        cls._child_fields = tuple(
            (name, kind == _NODE_LIST) for name, kind in cls._fields if kind != _PLAIN
        )

    def children(self) -> List["Node"]:
        """Direct child nodes (depth 1), in field order."""
        found: List[Node] = []
        for name, is_list in self._child_fields:
            if is_list:
                found += getattr(self, name)
            else:
                found.append(getattr(self, name))
        return found

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node._child_fields:
                stack.extend(reversed(node.children()))

    def clone(self) -> "Node":
        """Return a structural copy of this subtree: new nodes and lists
        throughout, sharing only immutable leaves (strings, numbers)."""
        values = []
        for name, kind in self._fields:
            value = getattr(self, name)
            if kind == _NODE:
                value = value.clone()
            elif kind == _NODE_LIST:
                value = [item.clone() for item in value]
            values.append(value)
        return type(self)(*values)

    def __reduce__(self):
        # Positional, as clone() builds: a unit sent to a process pool unpickles ~3x faster.
        return (type(self), tuple(getattr(self, name) for name, _kind in self._fields))

    def size(self) -> int:
        """Number of nodes in the subtree (a crude complexity measure)."""
        return sum(1 for _ in self.walk())


Expr = Node
Stmt = Node


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(eq=True, slots=True)
class Number(Node):
    """A numeric literal.  ``value`` may be int or float.

    Whether a literal is an int or a float matters: the kernel-constraint
    checker rejects float literals outright (§5 of the paper reports
    floating-point arithmetic as the most common verifier failure).
    """

    value: Union[int, float]

    def is_float(self) -> bool:
        return isinstance(self.value, float)


@dataclass(eq=True, slots=True)
class Name(Node):
    """A bare variable reference (``now``, ``score``, ``cwnd``)."""

    id: str


@dataclass(eq=True, slots=True)
class Attribute(Node):
    """Attribute access on a feature object (``obj_info.count``)."""

    value: Expr
    attr: str


@dataclass(eq=True, slots=True)
class Call(Node):
    """A call on a feature object or builtin (``sizes.percentile(0.75)``)."""

    func: Expr
    args: List[Expr] = field(default_factory=list)


@dataclass(eq=True, slots=True)
class UnaryOp(Node):
    """Unary operation: ``-x`` or ``not x``."""

    op: str  # "-" | "not"
    operand: Expr


@dataclass(eq=True, slots=True)
class BinOp(Node):
    """Binary arithmetic: + - * / // % min max (min/max as infix helpers)."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True, slots=True)
class Compare(Node):
    """A single comparison (no chaining): < <= > >= == !=."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=True, slots=True)
class BoolOp(Node):
    """Boolean connective over two or more operands: ``and`` / ``or``."""

    op: str  # "and" | "or"
    values: List[Expr] = field(default_factory=list)


@dataclass(eq=True, slots=True)
class Ternary(Node):
    """Conditional expression: ``cond ? a : b`` (C style in source form)."""

    condition: Expr
    if_true: Expr
    if_false: Expr


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(eq=True, slots=True)
class Assign(Node):
    """``target = value``.  ``target`` is always a bare :class:`Name`."""

    target: Name
    value: Expr


@dataclass(eq=True, slots=True)
class AugAssign(Node):
    """``target op= value`` for op in + - * / // %."""

    target: Name
    op: str
    value: Expr


@dataclass(eq=True, slots=True)
class If(Node):
    """``if (cond) { body } else { orelse }`` -- ``orelse`` may be empty."""

    condition: Expr
    body: List[Stmt] = field(default_factory=list)
    orelse: List[Stmt] = field(default_factory=list)


@dataclass(eq=True, slots=True)
class ForRange(Node):
    """``for (i in range(limit)) { body }`` -- the only bounded loop form."""

    var: Name
    limit: Expr
    body: List[Stmt] = field(default_factory=list)


@dataclass(eq=True, slots=True)
class While(Node):
    """``while (cond) { body }``.

    Allowed by the grammar but rejected by the kernel-constraint checker
    (it cannot generally be proven bounded), mirroring the eBPF verifier.
    """

    condition: Expr
    body: List[Stmt] = field(default_factory=list)


@dataclass(eq=True, slots=True)
class Return(Node):
    """``return expr``."""

    value: Expr


# --------------------------------------------------------------------------
# Program
# --------------------------------------------------------------------------


@dataclass(eq=True, slots=True)
class Program(Node):
    """A complete candidate heuristic.

    ``name`` is the function name, ``params`` the formal parameters supplied
    by the Template (e.g. ``priority(now, obj_id, obj_info, ...)``), and
    ``body`` the list of statements generated by the Generator.
    """

    name: str
    params: List[str] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    #: What has been computed from this program, by name.  ``parse`` sets it
    #: to ``{}`` on the read-only programs it hands out; everywhere else
    #: (fresh trees, clones, unpickled copies) it is ``None`` and nothing is
    #: remembered.  Not part of equality.
    derived: Optional[Dict[str, Any]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __reduce__(self):
        return (Program, (self.name, self.params, self.body))

    def clone(self) -> "Program":
        return Program(self.name, self.params[:], [stmt.clone() for stmt in self.body])

    def derive(self, what: str, compute: Callable[["Program"], Any]) -> Any:
        """``compute(self)``, computed once per read-only program."""
        if self.derived is None:
            return compute(self)
        if what not in self.derived:
            self.derived[what] = compute(self)
        return self.derived[what]

    def returns(self) -> List[Return]:
        """All return statements anywhere in the program."""
        return [node for node in self.walk() if isinstance(node, Return)]


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
