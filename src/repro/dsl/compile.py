"""Compile DSL programs to native Python callables (the hot-loop fast path).

The tree-walking :class:`~repro.dsl.interpreter.Interpreter` pays a Python
function call per AST node per invocation, which dominates the cost of
simulating a candidate on a trace (the priority function runs on every cache
access, the cong_control function on every ACK).  This module renders a
:class:`~repro.dsl.ast.Program` as real Python source and ``exec``-compiles it
once, so each invocation afterwards is a single native call.  ``_cexpr`` /
``_cblock`` are the only place a DSL AST becomes Python: a caller that already
holds some sub-expressions' values in locals (the vectorized backend's feature
columns) passes ``leaves``, ``id(node) -> local name``, and those nodes render
as that name instead of being descended into.

The compiled callable preserves the interpreter's observable semantics, which
the differential property test (``tests/dsl/test_compile.py``) checks over
arbitrary generated programs:

* feature objects are still accessed through the
  :class:`~repro.dsl.interpreter.FeatureObject` allow-list
  (``dsl_getattr`` / ``dsl_call``), so compiled candidates remain sandboxed;
* builtin calls resolve to the same ``min``/``max``/``abs``/``clamp`` table
  the interpreter uses, bypassing local shadowing exactly as the
  interpreter's ``_call`` does;
* ``and`` / ``or`` produce booleans (the interpreter's truthiness fold), not
  Python's operand-valued short-circuit result;
* division/modulo by zero, unknown names/attributes/functions and type
  errors surface as :class:`~repro.dsl.errors.DslRuntimeError`;
* a program that falls off the end returns ``0``.

Programs containing loops are *not* compiled: the interpreter charges its
step budget per AST node, and no per-iteration approximation reproduces that
near the budget boundary -- a loop-bearing candidate could then be valid
under one backend and timed-out under the other, changing fixed-seed search
results.  Loops are rare (the grammar never generates them; only the
synthetic LLM's hallucination modes inject them), so ``compile_program``
raises :class:`DslCompileError` for loops and callers fall back to the
interpreter, which stays the oracle for exactly those programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, NoReturn, Optional, Sequence

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
from repro.dsl.codegen import _format_number
from repro.dsl.errors import DslError, DslRuntimeError
from repro.dsl.interpreter import _clamp

if TYPE_CHECKING:  # vectorize imports this module
    from repro.dsl.vectorize import KernelLayout

#: Builtins visible to compiled programs; mirrors ``EvalContext`` defaults.
DEFAULT_BUILTINS: Dict[str, Callable[..., Any]] = {
    "min": min,
    "max": max,
    "abs": abs,
    "clamp": _clamp,
}


class DslCompileError(DslError):
    """The program uses a construct the compiler cannot render."""


# -- runtime helpers injected into the compiled namespace ---------------------------


def _truthy(value: Any) -> bool:
    if isinstance(value, (int, float, bool)):
        return bool(value)
    if value is None:
        return False
    return True


def _call_unknown(name: str, _args: tuple) -> Any:
    # Arguments are evaluated by the caller (as the interpreter does) before
    # this helper rejects the call.
    raise DslRuntimeError(f"unknown function {name!r}")


def reraise_normalised(exc: Exception) -> NoReturn:
    """Re-raise ``exc``, caught around a compiled function, on the
    interpreter's error surface: :class:`DslRuntimeError` for everything a
    candidate's arithmetic can raise, anything else unchanged."""
    if isinstance(exc, ZeroDivisionError):
        raise DslRuntimeError("division by zero") from exc
    if isinstance(exc, (TypeError, AttributeError, NameError, ValueError, OverflowError)):
        raise DslRuntimeError(f"{type(exc).__name__}: {exc}") from exc
    raise exc


def _reject_unsafe_identifiers(program: Program) -> None:
    """Refuse to compile programs that could collide with injected helpers.

    A candidate that names a variable ``__dsl_steps`` would overwrite the
    loop budget counter; anything in the ``__dsl_`` namespace falls back to
    the interpreter, which has no such collision surface.
    """
    names = set(program.params)
    for node in program.walk():
        if isinstance(node, Name):
            names.add(node.id)
    for name in names:
        if name.startswith("__dsl_"):
            raise DslCompileError(
                f"identifier {name!r} collides with the compiler's runtime helpers"
            )


# -- source rendering ---------------------------------------------------------------


def _args_tuple(parts: List[str]) -> str:
    """Render ``parts`` as Python tuple-display source."""
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _ccond(
    expr: Expr, builtins: Dict[str, Callable[..., Any]], leaves: Mapping[int, str]
) -> str:
    """``expr`` rendered as a condition: inside the interpreter's truthiness
    fold, except a comparison, whose value is already a ``bool`` (or it raised)."""
    source = _cexpr(expr, builtins, leaves)
    if isinstance(expr, Compare):
        return source
    return f"__dsl_truthy({source})"


def _cexpr(
    expr: Expr, builtins: Dict[str, Callable[..., Any]], leaves: Mapping[int, str]
) -> str:
    leaf = leaves.get(id(expr))
    if leaf is not None:
        return leaf
    if isinstance(expr, Number):
        return _format_number(expr.value)
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, Attribute):
        return f'{_cexpr(expr.value, builtins, leaves)}.dsl_getattr("{expr.attr}")'
    if isinstance(expr, Call):
        args = [_cexpr(arg, builtins, leaves) for arg in expr.args]
        func = expr.func
        if isinstance(func, Attribute):
            target = _cexpr(func.value, builtins, leaves)
            return f'{target}.dsl_call("{func.attr}", {_args_tuple(args)})'
        if isinstance(func, Name):
            if func.id in builtins:
                return f'__dsl_b_{func.id}({", ".join(args)})'
            return f'__dsl_call_unknown("{func.id}", {_args_tuple(args)})'
        raise DslCompileError("unsupported call target")
    if isinstance(expr, UnaryOp):
        operand = _cexpr(expr.operand, builtins, leaves)
        if expr.op == "not":
            return f"(not {operand})"
        return f"(-{operand})"
    if isinstance(expr, (BinOp, Compare)):
        left = _cexpr(expr.left, builtins, leaves)
        return f"({left} {expr.op} {_cexpr(expr.right, builtins, leaves)})"
    if isinstance(expr, BoolOp):
        joined = f" {expr.op} ".join(_ccond(v, builtins, leaves) for v in expr.values)
        return f"({joined})"
    if isinstance(expr, Ternary):
        return (
            f"({_cexpr(expr.if_true, builtins, leaves)} "
            f"if {_ccond(expr.condition, builtins, leaves)} "
            f"else {_cexpr(expr.if_false, builtins, leaves)})"
        )
    raise DslCompileError(f"cannot compile expression of type {type(expr).__name__}")


def _cblock(
    stmts: List[Stmt],
    indent: int,
    builtins: Dict[str, Callable[..., Any]],
    leaves: Mapping[int, str],
) -> List[str]:
    pad = "    " * indent
    lines: List[str] = []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            lines.append(f"{pad}{stmt.target.id} = {_cexpr(stmt.value, builtins, leaves)}")
        elif isinstance(stmt, AugAssign):
            lines.append(f"{pad}{stmt.target.id} {stmt.op}= {_cexpr(stmt.value, builtins, leaves)}")
        elif isinstance(stmt, Return):
            lines.append(f"{pad}return {_cexpr(stmt.value, builtins, leaves)}")
        elif isinstance(stmt, If):
            lines.append(f"{pad}if {_ccond(stmt.condition, builtins, leaves)}:")
            lines.extend(_cblock(stmt.body, indent + 1, builtins, leaves) or [f"{pad}    pass"])
            if stmt.orelse:
                lines.append(f"{pad}else:")
                lines.extend(
                    _cblock(stmt.orelse, indent + 1, builtins, leaves) or [f"{pad}    pass"]
                )
        elif isinstance(stmt, (ForRange, While)):
            # Loops take the interpreter path: its per-node step budget has
            # no faithful compiled equivalent (see module docstring).
            raise DslCompileError(
                f"{type(stmt).__name__} is not compiled; use the interpreter"
            )
        else:
            raise DslCompileError(
                f"cannot compile statement of type {type(stmt).__name__}"
            )
    return lines


def to_callable_source(
    program: Program,
    builtins: Optional[Dict[str, Callable[..., Any]]] = None,
    prologue: Sequence[str] = (),
    leaves: Optional[Mapping[int, str]] = None,
) -> str:
    """Render ``program`` as the Python source the compiler will ``exec``.

    ``prologue`` lines (Python, not DSL) run before its first statement; a
    node whose ``id`` is in ``leaves`` renders as that local name, which the
    prologue (or the signature) is expected to have bound."""
    table = builtins if builtins is not None else DEFAULT_BUILTINS
    header = f"def {program.name}({', '.join(program.params)}):"
    lines = [header]
    lines.extend(f"    {line}" for line in prologue)
    lines.extend(_cblock(program.body, 1, table, leaves or {}))
    # The interpreter returns 0 when execution falls off the end.
    lines.append("    return 0")
    return "\n".join(lines) + "\n"


# -- the compiled program object ----------------------------------------------------


class CompiledProgram:
    """A DSL program compiled to a Python callable.

    ``run(env)`` mirrors :meth:`~repro.dsl.interpreter.Interpreter.run`:
    the environment maps parameter names to values, missing bindings raise
    :class:`DslRuntimeError`, and all runtime failures are normalised to
    :class:`DslRuntimeError`, matching the interpreter's error surface.
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 20_000,  # interface symmetry with EvalContext;
        # compiled programs are loop-free, so the budget cannot be exceeded
        builtins: Optional[Dict[str, Callable[..., Any]]] = None,
        prologue: Sequence[str] = (),
        helpers: Optional[Mapping[str, Any]] = None,
        leaves: Optional[Mapping[int, str]] = None,
    ):
        """``helpers`` are the globals the ``prologue`` lines call (the
        namespace has no ``__builtins__``); ``prologue`` and ``leaves`` are
        :func:`to_callable_source`'s."""
        self.program = program
        self.max_steps = max_steps
        table = dict(builtins) if builtins is not None else dict(DEFAULT_BUILTINS)
        _reject_unsafe_identifiers(program)
        self.python_source = to_callable_source(program, table, prologue, leaves)
        namespace: Dict[str, Any] = {
            **(helpers or {}),
            "__builtins__": {},
            "__dsl_truthy": _truthy,
            "__dsl_call_unknown": _call_unknown,
        }
        for name, fn in table.items():
            if not name.isidentifier():
                raise DslCompileError(f"builtin name {name!r} is not an identifier")
            namespace[f"__dsl_b_{name}"] = fn
        try:
            code = compile(self.python_source, f"<dsl:{program.name}>", "exec")
            exec(code, namespace)  # noqa: S102 - sandboxed: empty __builtins__
        except (SyntaxError, ValueError) as exc:
            # e.g. a DSL identifier that happens to be a Python keyword;
            # callers fall back to the interpreter on DslCompileError.
            raise DslCompileError(f"cannot compile to Python: {exc}") from exc
        self._fn: Callable[..., Any] = namespace[program.name]
        self._params = tuple(program.params)

    def run(self, env: Mapping[str, Any]) -> Any:
        """Evaluate the compiled program with parameter bindings ``env``."""
        missing = [p for p in self._params if p not in env]
        if missing:
            raise DslRuntimeError(f"missing parameter bindings: {missing}")
        try:
            return self._fn(*[env[p] for p in self._params])
        except Exception as exc:
            reraise_normalised(exc)

    def __call__(self, *args: Any) -> Any:
        """Positional fast path (arguments in ``program.params`` order)."""
        try:
            return self._fn(*args)
        except Exception as exc:
            reraise_normalised(exc)


def compile_program(
    program: Program,
    max_steps: int = 20_000,
    builtins: Optional[Dict[str, Callable[..., Any]]] = None,
) -> CompiledProgram:
    """Compile ``program``; raises :class:`DslCompileError` on unsupported nodes."""
    return CompiledProgram(program, max_steps=max_steps, builtins=builtins)


class _InterpreterRunner:
    """Interpreter behind the ``run(env)`` interface of :class:`CompiledProgram`."""

    def __init__(self, program: Program, max_steps: int):
        from repro.dsl.interpreter import EvalContext, Interpreter

        self.program = program
        self._interpreter = Interpreter(EvalContext(max_steps=max_steps))

    def run(self, env: Mapping[str, Any]) -> Any:
        return self._interpreter.run(self.program, env)


#: Names :func:`make_runner` accepts and reports (the first two ask alike).
BACKENDS = ("vectorized", "compiled", "interpreter")

#: What runs unless ``engine.dsl_backend`` (``--set engine.dsl_backend=...``) names another.
DEFAULT_BACKEND = "vectorized"


def make_runner(
    program: Program,
    backend: str = DEFAULT_BACKEND,
    max_steps: int = 20_000,
    layout: Optional["KernelLayout"] = None,
):
    """Build a ``run(env)`` executor for ``program``.

    Returns ``(runner, effective_backend)``.  A program is either lowered
    by this module's emitter or walked by ``"interpreter"``, the oracle,
    which can also be forced.  ``"vectorized"`` (the default) and
    ``"compiled"`` are two spellings of the lowered request, reported back
    as asked: a :class:`~repro.dsl.vectorize.VectorizedProgram` whose
    ``run(env)`` is the compiled scalar program and whose ``bound`` is the
    kernel compiled behind the call signature of the hot loop that passed
    its ``layout`` -- a loop takes its fast path by that type, never by the
    name.  Programs the lowering or the layout rejects degrade to a scalar
    :class:`CompiledProgram`, reported as ``"compiled"``, and programs the
    compiler rejects (loops, Python-keyword identifiers, ...) to
    ``"interpreter"``.  This is the single place hot-loop adapters get
    their execution strategy from.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend != "interpreter":
        from repro.dsl.vectorize import VectorizedProgram

        try:
            return VectorizedProgram(program, max_steps=max_steps, layout=layout), backend
        except DslError:
            pass
        try:
            return compile_program(program, max_steps=max_steps), "compiled"
        except DslError:
            pass
    return _InterpreterRunner(program, max_steps), "interpreter"
