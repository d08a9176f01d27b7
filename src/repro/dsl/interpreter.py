"""Tree-walking interpreter for the heuristic DSL.

The interpreter evaluates a :class:`~repro.dsl.ast.Program` against an
*environment*: a mapping from parameter names to values.  Values may be

* numbers (int/float/bool),
* arbitrary Python objects exposed by the Template as *feature objects* --
  the interpreter resolves attribute access and method calls on them through
  a small allow-list mechanism (see :class:`FeatureObject`).

Safety properties enforced here (generated code is untrusted):

* a step budget bounds total work per invocation (loops cannot hang the
  search; see :class:`EvalContext.max_steps`),
* division/modulo by zero raises :class:`DslRuntimeError` rather than
  crashing the host,
* only attributes/methods explicitly exported by feature objects are
  reachable -- there is no access to Python internals (no dunder traversal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

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
from repro.dsl.errors import DslRuntimeError, DslTimeoutError


class FeatureObject:
    """Base class for objects the Template exposes to generated code.

    Subclasses declare which attributes and methods generated code may touch
    via ``exported_attrs`` and ``exported_methods``.  Anything else raises a
    :class:`DslRuntimeError`, which keeps candidates inside the sandbox and
    doubles as useful Checker feedback ("unknown feature 'foo'").
    """

    exported_attrs: frozenset = frozenset()
    exported_methods: frozenset = frozenset()

    def dsl_getattr(self, attr: str) -> Any:
        if attr in self.exported_attrs:
            return getattr(self, attr)
        raise DslRuntimeError(
            f"{type(self).__name__} has no feature attribute {attr!r}"
        )

    def dsl_call(self, method: str, args: Iterable[Any]) -> Any:
        if method in self.exported_methods:
            return getattr(self, method)(*args)
        raise DslRuntimeError(
            f"{type(self).__name__} has no feature method {method!r}"
        )


@dataclass
class EvalContext:
    """Per-invocation interpreter configuration.

    ``max_steps`` bounds the number of statements + expression nodes the
    interpreter will evaluate before raising :class:`DslTimeoutError`; the
    default is generous for straight-line priority functions but small enough
    that a runaway ``while`` loop is caught quickly.
    """

    max_steps: int = 20_000
    builtins: Dict[str, Callable[..., Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        defaults: Dict[str, Callable[..., Any]] = {
            "min": min,
            "max": max,
            "abs": abs,
            "clamp": _clamp,
        }
        for name, fn in defaults.items():
            self.builtins.setdefault(name, fn)


def _clamp(value: Any, lo: Any, hi: Any) -> Any:
    """Clamp ``value`` into ``[lo, hi]`` (a convenience builtin for CC code)."""
    if lo > hi:
        lo, hi = hi, lo
    return max(lo, min(hi, value))


class _ReturnSignal(Exception):
    """Internal control-flow signal carrying a return value."""

    def __init__(self, value: Any):
        self.value = value


class Interpreter:
    """Evaluates programs; one instance may be reused across invocations."""

    def __init__(self, context: Optional[EvalContext] = None):
        self.context = context or EvalContext()

    # -- public API ---------------------------------------------------------

    def run(self, program: Program, env: Mapping[str, Any]) -> Any:
        """Evaluate ``program`` with parameter bindings ``env``.

        Returns the value of the first executed ``return``; if the program
        falls off the end without returning, returns ``0`` (a neutral score),
        mirroring how C code with a missing return would be rejected earlier
        by the Checker but keeping the Evaluator robust.
        """
        missing = [p for p in program.params if p not in env]
        if missing:
            raise DslRuntimeError(f"missing parameter bindings: {missing}")
        scope: Dict[str, Any] = {p: env[p] for p in program.params}
        self._steps = 0
        try:
            self._exec_block(program.body, scope)
        except _ReturnSignal as signal:
            return signal.value
        return 0

    # -- statements ---------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.context.max_steps:
            raise DslTimeoutError(
                f"candidate exceeded the {self.context.max_steps}-step budget"
            )

    def _exec_block(self, stmts: Iterable[Stmt], scope: Dict[str, Any]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, scope)

    def _exec_stmt(self, stmt: Stmt, scope: Dict[str, Any]) -> None:
        self._tick()
        if isinstance(stmt, Assign):
            scope[stmt.target.id] = self._eval(stmt.value, scope)
        elif isinstance(stmt, AugAssign):
            if stmt.target.id not in scope:
                raise DslRuntimeError(
                    f"augmented assignment to undefined variable {stmt.target.id!r}"
                )
            current = scope[stmt.target.id]
            operand = self._eval(stmt.value, scope)
            scope[stmt.target.id] = self._binary(stmt.op, current, operand)
        elif isinstance(stmt, If):
            if self._truthy(self._eval(stmt.condition, scope)):
                self._exec_block(stmt.body, scope)
            else:
                self._exec_block(stmt.orelse, scope)
        elif isinstance(stmt, ForRange):
            limit = self._eval(stmt.limit, scope)
            count = self._as_int(limit, "for-range limit")
            for i in range(max(0, count)):
                self._tick()
                scope[stmt.var.id] = i
                self._exec_block(stmt.body, scope)
        elif isinstance(stmt, While):
            while self._truthy(self._eval(stmt.condition, scope)):
                self._tick()
                self._exec_block(stmt.body, scope)
        elif isinstance(stmt, Return):
            raise _ReturnSignal(self._eval(stmt.value, scope))
        else:  # pragma: no cover - the parser cannot produce other nodes
            raise DslRuntimeError(f"unsupported statement {type(stmt).__name__}")

    # -- expressions --------------------------------------------------------

    def _eval(self, expr: Expr, scope: Dict[str, Any]) -> Any:
        self._tick()
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Name):
            if expr.id in scope:
                return scope[expr.id]
            if expr.id in self.context.builtins:
                return self.context.builtins[expr.id]
            raise DslRuntimeError(f"undefined variable {expr.id!r}")
        if isinstance(expr, Attribute):
            target = self._eval(expr.value, scope)
            return self._getattr(target, expr.attr)
        if isinstance(expr, Call):
            return self._call(expr, scope)
        if isinstance(expr, UnaryOp):
            operand = self._eval(expr.operand, scope)
            if expr.op == "-":
                return -operand
            if expr.op == "not":
                return not self._truthy(operand)
            raise DslRuntimeError(f"unsupported unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            left = self._eval(expr.left, scope)
            right = self._eval(expr.right, scope)
            return self._binary(expr.op, left, right)
        if isinstance(expr, Compare):
            left = self._eval(expr.left, scope)
            right = self._eval(expr.right, scope)
            return self._compare(expr.op, left, right)
        if isinstance(expr, BoolOp):
            if expr.op == "and":
                result = True
                for value in expr.values:
                    result = self._truthy(self._eval(value, scope))
                    if not result:
                        return False
                return result
            if expr.op == "or":
                for value in expr.values:
                    if self._truthy(self._eval(value, scope)):
                        return True
                return False
            raise DslRuntimeError(f"unsupported boolean operator {expr.op!r}")
        if isinstance(expr, Ternary):
            if self._truthy(self._eval(expr.condition, scope)):
                return self._eval(expr.if_true, scope)
            return self._eval(expr.if_false, scope)
        raise DslRuntimeError(f"unsupported expression {type(expr).__name__}")

    def _call(self, expr: Call, scope: Dict[str, Any]) -> Any:
        args = [self._eval(arg, scope) for arg in expr.args]
        func = expr.func
        if isinstance(func, Attribute):
            target = self._eval(func.value, scope)
            if isinstance(target, FeatureObject):
                return target.dsl_call(func.attr, args)
            raise DslRuntimeError(
                f"cannot call method {func.attr!r} on a plain value"
            )
        if isinstance(func, Name):
            if func.id in self.context.builtins:
                try:
                    return self.context.builtins[func.id](*args)
                except DslRuntimeError:
                    raise
                except Exception as exc:  # noqa: BLE001 - sandbox boundary
                    raise DslRuntimeError(f"builtin {func.id!r} failed: {exc}") from exc
            raise DslRuntimeError(f"unknown function {func.id!r}")
        raise DslRuntimeError("unsupported call target")

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _getattr(target: Any, attr: str) -> Any:
        if isinstance(target, FeatureObject):
            return target.dsl_getattr(attr)
        raise DslRuntimeError(
            f"attribute access {attr!r} on a value that is not a feature object"
        )

    @staticmethod
    def _truthy(value: Any) -> bool:
        if isinstance(value, (int, float, bool)):
            return bool(value)
        if value is None:
            return False
        return True

    @staticmethod
    def _as_int(value: Any, what: str) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise DslRuntimeError(f"{what} must be an integer, got {value!r}")

    @staticmethod
    def _numeric(value: Any, op: str) -> Any:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        if isinstance(value, bool):
            return int(value)
        raise DslRuntimeError(f"operator {op!r} applied to non-numeric value {value!r}")

    def _binary(self, op: str, left: Any, right: Any) -> Any:
        left = self._numeric(left, op)
        right = self._numeric(right, op)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        # One message for all three: the compiled backends see a bare
        # ZeroDivisionError and cannot tell the operators apart, and the
        # message is part of a failed candidate's result.json entry.
        if op == "/":
            if right == 0:
                raise DslRuntimeError("division by zero")
            return left / right
        if op == "//":
            if right == 0:
                raise DslRuntimeError("division by zero")
            return left // right
        if op == "%":
            if right == 0:
                raise DslRuntimeError("division by zero")
            return left % right
        raise DslRuntimeError(f"unsupported binary operator {op!r}")

    @staticmethod
    def _compare(op: str, left: Any, right: Any) -> bool:
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
        except TypeError as exc:
            raise DslRuntimeError(f"cannot compare {left!r} and {right!r}") from exc
        raise DslRuntimeError(f"unsupported comparison operator {op!r}")
