"""Numpy batch lowering for DSL programs (the vectorized backend).

:class:`VectorizedProgram` evaluates one candidate heuristic over *batches*
of feature rows in a handful of numpy array operations instead of one
Python call per row: arithmetic broadcasts over whole columns, ``if``/
ternaries/boolean connectives become predicated ``np.where`` merges, and
builtin ``min``/``max``/``clamp`` calls become comparison folds.  The batch
path exists purely for throughput -- scores must stay **bit-identical** to
the scalar backends so fixed-seed search results do not depend on the
backend -- which drives the two unusual pieces of machinery here:

* **Exactness lanes.**  Python evaluates integer expressions with arbitrary
  precision; float64 lanes cannot.  Every lane tracks whether its value is
  an exact Python int, and any operation that could leave the float64-exact
  range (results/operands at or beyond 2**53, the 2**52 margin for floor
  division and modulo) marks the lane *suspect*.  Divisions by zero and
  reads of maybe-undefined locals are suspect too -- suspicion is sound,
  never precise: it must cover every lane whose batch value could differ
  from (or fail to reproduce an error of) the scalar evaluation, and false
  positives only cost speed.
* **Scalar recompute.**  After the batch pass, suspect lanes are re-run in
  row order through a compiled *kernel* -- the same program with each
  feature column access substituted by a positional parameter -- so their
  values, and crucially their exceptions (division by zero, undefined
  variables, overflow on huge integers), are exactly those of the compiled
  backend.

Python/IEEE mismatches the batch path corrects in place: integer ``0``
results are normalised to ``+0.0`` (numpy yields ``-0.0`` for e.g.
``0 * -5``); floor division and modulo replicate CPython's ``float_divmod``
branch structure elementwise; ``min``/``max`` are first-on-tie comparison
folds (``np.minimum`` has different NaN/tie semantics).

The domains' hot loops run the same kernel one row at a time: a loop hands
:class:`VectorizedProgram` a *layout* -- the signature it can call at an
evaluation site plus the prologue lines that read each feature column out of
those arguments (:class:`KernelBinding`) -- and gets ``bound``, the kernel
compiled behind that signature: one Python frame per evaluation, and no
per-program code outside the kernel itself.

Programs the lowering cannot handle exactly are rejected up front by
:func:`repro.dsl.analysis.vectorizability`;
:func:`repro.dsl.compile.make_runner` then falls back to the compiled or
interpreter backend, so ``backend="vectorized"`` is always safe to request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dsl.analysis import ColumnSpec, vectorizability
from repro.dsl.ast import (
    Assign,
    Attribute,
    AugAssign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Expr,
    If,
    Name,
    Number,
    Program,
    Return,
    Stmt,
    Ternary,
    UnaryOp,
)
from repro.dsl.compile import CompiledProgram, DslCompileError, compile_program
from repro.dsl.errors import DslRuntimeError

#: Largest magnitude at which every integer is exactly representable in
#: float64; int-lane results at or beyond it are suspect.
_EXACT = float(2**53)
#: Margin for the floor-division/modulo emulation: with both integer
#: operands below 2**52 every intermediate (``a - mod``, ``mod + b``) stays
#: exactly representable, so the emulation is provably exact.
_DIVMOD_SAFE = float(2**52)


class DslVectorizeError(DslCompileError):
    """The program cannot be lowered to the numpy batch backend."""


def _mangle_prefix(program: Program) -> str:
    """A column-name prefix no identifier in ``program`` collides with."""
    names = set(program.params)
    for node in program.walk():
        if isinstance(node, Name):
            names.add(node.id)
    prefix = "__col"
    while any(name.startswith(prefix) for name in names):
        prefix += "_"
    return prefix


@dataclass(frozen=True)
class KernelBinding:
    """How one hot loop calls a kernel.

    ``params`` is the kernel's signature -- whatever the loop has at hand at
    an evaluation site -- and ``prologue`` the Python lines that bind every
    feature column's kernel-local name from it (a scalar column's name is
    the DSL parameter's, so a signature parameter of that name needs no
    line).  ``helpers`` are the globals the lines call; ``plan`` is the
    layout's own note of what its loop must prepare per run.
    """

    params: Tuple[str, ...]
    prologue: Tuple[str, ...]
    helpers: Mapping[str, Any] = field(default_factory=dict)
    plan: Any = None


#: ``layout(columns, names, prefix)`` -> the binding that serves ``columns``
#: (``names`` their kernel-local names, ``prefix`` a stem no identifier of
#: the program starts with, for the layout's own names), or ``None`` when a
#: column is outside what the loop can read.
KernelLayout = Callable[[Sequence[ColumnSpec], Sequence[str], str], Optional[KernelBinding]]


def positional_layout(
    columns: Sequence[ColumnSpec], names: Sequence[str], prefix: str
) -> KernelBinding:
    """The layout of a caller that has the column values themselves at hand."""
    return KernelBinding(params=tuple(names), prologue=())


def _kernel_program(
    program: Program,
    columns: List[ColumnSpec],
    expr_key: Dict[int, str],
    prefix: str,
) -> Program:
    """``program`` with every feature-column expression replaced by a
    positional parameter, one per column, in column order."""
    kernel_name: Dict[str, str] = {}
    params: List[str] = []
    for index, spec in enumerate(columns):
        name = spec.param if spec.kind == "scalar" else f"{prefix}{index}"
        kernel_name[spec.key] = name
        params.append(name)

    def rewrite_expr(expr: Expr) -> Expr:
        key = expr_key.get(id(expr))
        if key is not None:
            return Name(id=kernel_name[key])
        if isinstance(expr, (Number, Name)):
            return expr
        if isinstance(expr, UnaryOp):
            return UnaryOp(op=expr.op, operand=rewrite_expr(expr.operand))
        if isinstance(expr, BinOp):
            return BinOp(
                op=expr.op, left=rewrite_expr(expr.left), right=rewrite_expr(expr.right)
            )
        if isinstance(expr, Compare):
            return Compare(
                op=expr.op, left=rewrite_expr(expr.left), right=rewrite_expr(expr.right)
            )
        if isinstance(expr, BoolOp):
            return BoolOp(op=expr.op, values=[rewrite_expr(v) for v in expr.values])
        if isinstance(expr, Ternary):
            return Ternary(
                condition=rewrite_expr(expr.condition),
                if_true=rewrite_expr(expr.if_true),
                if_false=rewrite_expr(expr.if_false),
            )
        if isinstance(expr, Call):
            # Feature calls were substituted above; only builtins remain.
            return Call(func=expr.func, args=[rewrite_expr(a) for a in expr.args])
        raise DslVectorizeError(f"unsupported expression {type(expr).__name__}")

    def rewrite_block(stmts: Sequence[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                out.append(Assign(target=stmt.target, value=rewrite_expr(stmt.value)))
            elif isinstance(stmt, AugAssign):
                out.append(
                    AugAssign(
                        target=stmt.target, op=stmt.op, value=rewrite_expr(stmt.value)
                    )
                )
            elif isinstance(stmt, If):
                out.append(
                    If(
                        condition=rewrite_expr(stmt.condition),
                        body=rewrite_block(stmt.body),
                        orelse=rewrite_block(stmt.orelse),
                    )
                )
            elif isinstance(stmt, Return):
                out.append(Return(value=rewrite_expr(stmt.value)))
            else:
                raise DslVectorizeError(
                    f"unsupported statement {type(stmt).__name__}"
                )
        return out

    return Program(name=program.name, params=params, body=rewrite_block(program.body))


def _map_feature_exprs(program: Program) -> Dict[int, str]:
    """Map ``id(node) -> column key`` for every feature expression node."""
    from repro.dsl.analysis import _column_key

    mapping: Dict[int, str] = {}
    params = set(program.params)

    def record(expr: Expr) -> None:
        if isinstance(expr, Call) and isinstance(expr.func, Attribute):
            base = expr.func.value
            if isinstance(base, Name) and base.id in params:
                args = []
                for arg in expr.args:
                    if isinstance(arg, Number):
                        args.append(("lit", arg.value))
                    else:  # validated: a parameter Name
                        args.append(("param", arg.id))
                mapping[id(expr)] = _column_key(
                    "method", base.id, expr.func.attr, tuple(args)
                )
            return  # do not also record the Call.func Attribute node
        if isinstance(expr, Attribute):
            base = expr.value
            if isinstance(base, Name) and base.id in params:
                mapping[id(expr)] = _column_key("attr", base.id, expr.attr, ())
            return

    def visit(expr: Expr) -> None:
        record(expr)
        if id(expr) in mapping:
            if isinstance(expr, Call):
                return  # feature-call arguments are captured, not evaluated
            return
        for child in expr.children():
            if isinstance(expr, Call) and child is expr.func:
                continue  # builtin call target, not a value read
            visit(child)

    def visit_block(stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (Assign, AugAssign, Return)):
                visit(stmt.value)
            elif isinstance(stmt, If):
                visit(stmt.condition)
                visit_block(stmt.body)
                visit_block(stmt.orelse)

    visit_block(program.body)
    return mapping


# -- column coercion ----------------------------------------------------------------


class _Column:
    """A coerced input column: float64 lanes + int-exactness + load suspicion."""

    __slots__ = ("vals", "isint", "load_suspect", "raw")

    def __init__(self, vals, isint, load_suspect, raw):
        self.vals = vals
        self.isint = isint
        self.load_suspect = load_suspect
        self.raw = raw  # index -> original Python value (for scalar recompute)


def _coerce_column(col: Any, key: str) -> _Column:
    if isinstance(col, tuple):
        vals = np.asarray(col[0], dtype=np.float64)
        isint = np.asarray(col[1], dtype=bool)
        suspect = isint & ((vals >= _EXACT) | (vals <= -_EXACT))

        def raw_pair(i, vals=vals, isint=isint):
            return int(vals[i]) if isint[i] else float(vals[i])

        return _Column(vals, isint, suspect if suspect.any() else None, raw_pair)
    if isinstance(col, np.ndarray):
        if col.dtype.kind in "iu":
            bound = 2**53
            suspect = (col >= bound) | (col <= -bound)
            return _Column(
                col.astype(np.float64),
                np.ones(len(col), dtype=bool),
                suspect if suspect.any() else None,
                lambda i, col=col: int(col[i]),
            )
        if col.dtype.kind == "b":
            return _Column(
                col.astype(np.float64),
                np.ones(len(col), dtype=bool),
                None,
                lambda i, col=col: bool(col[i]),
            )
        return _Column(
            col.astype(np.float64),
            np.zeros(len(col), dtype=bool),
            None,
            lambda i, col=col: float(col[i]),
        )
    # A plain Python sequence, possibly of mixed int/float/bool values.
    n = len(col)
    vals = np.empty(n, dtype=np.float64)
    isint = np.empty(n, dtype=bool)
    suspect = np.zeros(n, dtype=bool)
    for i, v in enumerate(col):
        if isinstance(v, bool):
            vals[i] = float(v)
            isint[i] = True
        elif isinstance(v, int):
            isint[i] = True
            if -(2**53) < v < 2**53:
                vals[i] = float(v)
            else:
                suspect[i] = True
                try:
                    vals[i] = float(v)
                except OverflowError:
                    vals[i] = math.inf if v > 0 else -math.inf
        elif isinstance(v, float):
            vals[i] = v
            isint[i] = False
        else:
            raise DslRuntimeError(f"column {key!r} has non-numeric value {v!r}")
    return _Column(
        vals, isint, suspect if suspect.any() else None, lambda i, col=col: col[i]
    )


# -- the batch evaluator ------------------------------------------------------------


class _BatchEvaluator:
    """One predicated pass of a program over ``n`` lanes.

    Values are ``(float64 array, per-lane isint bool array)`` pairs; control
    flow is execution under lane masks.  ``suspect`` accumulates every lane
    whose result must be recomputed by the scalar kernel (see module
    docstring); updates are always ANDed with the active mask so errors in
    untaken branches/short-circuited operands stay unobservable, exactly as
    in lazy scalar evaluation.
    """

    def __init__(
        self,
        n: int,
        scalars: Dict[str, _Column],
        features: Dict[str, _Column],
        expr_key: Dict[int, str],
    ):
        self.n = n
        self.suspect = np.zeros(n, dtype=bool)
        self.features = features
        self.expr_key = expr_key
        self._true = np.ones(n, dtype=bool)
        self._false = np.zeros(n, dtype=bool)
        self._zeros = np.zeros(n, dtype=np.float64)
        self.load_suspect = {
            name: col.load_suspect
            for name, col in scalars.items()
            if col.load_suspect is not None
        }
        # name -> [vals, isint, defined]; parameters are defined everywhere.
        self.env: Dict[str, list] = {
            name: [col.vals, col.isint, self._true] for name, col in scalars.items()
        }
        self.returned = np.zeros(n, dtype=bool)
        self.ret_vals = np.zeros(n, dtype=np.float64)
        self.ret_isint = np.ones(n, dtype=bool)

    # -- entry point --------------------------------------------------------

    def run(self, program: Program) -> np.ndarray:
        self._exec_block(program.body, self._true)
        # Falling off the end returns integer 0; unreturned lanes are
        # already 0.0 in ret_vals.
        return np.where(self.returned, self.ret_vals, 0.0)

    # -- expressions --------------------------------------------------------

    def _eval(self, expr: Expr, mask) -> Tuple[np.ndarray, np.ndarray]:
        key = self.expr_key.get(id(expr))
        if key is not None:
            col = self.features[key]
            if col.load_suspect is not None:
                self.suspect |= mask & col.load_suspect
            return col.vals, col.isint
        if isinstance(expr, Number):
            if isinstance(expr.value, int):
                return np.full(self.n, float(expr.value)), self._true
            return np.full(self.n, expr.value), self._false
        if isinstance(expr, Name):
            return self._read_name(expr.id, mask)
        if isinstance(expr, UnaryOp):
            v, vi = self._eval(expr.operand, mask)
            if expr.op == "not":
                return (~(v != 0)).astype(np.float64), self._true
            r = -v
            zero = vi & (v == 0)
            if zero.any():
                r = np.where(zero, 0.0, r)  # int -0 is +0 in Python
            return r, vi
        if isinstance(expr, BinOp):
            a, ai = self._eval(expr.left, mask)
            b, bi = self._eval(expr.right, mask)
            return self._binop(expr.op, a, ai, b, bi, mask)
        if isinstance(expr, Compare):
            a, _ai = self._eval(expr.left, mask)
            b, _bi = self._eval(expr.right, mask)
            op = expr.op
            if op == "<":
                t = a < b
            elif op == "<=":
                t = a <= b
            elif op == ">":
                t = a > b
            elif op == ">=":
                t = a >= b
            elif op == "==":
                t = a == b
            else:
                t = a != b
            return t.astype(np.float64), self._true
        if isinstance(expr, BoolOp):
            return self._boolop(expr, mask)
        if isinstance(expr, Ternary):
            c, _ = self._eval(expr.condition, mask)
            taken = c != 0
            tv, ti = self._eval(expr.if_true, mask & taken)
            fv, fi = self._eval(expr.if_false, mask & ~taken)
            return np.where(taken, tv, fv), np.where(taken, ti, fi)
        if isinstance(expr, Call):
            return self._call(expr, mask)
        raise DslVectorizeError(f"unsupported expression {type(expr).__name__}")

    def _read_name(self, name: str, mask) -> Tuple[np.ndarray, np.ndarray]:
        entry = self.env.get(name)
        if entry is None:
            # Never assigned on any lane: the scalar backends raise; every
            # active lane must be recomputed to reproduce that error.
            self.suspect |= mask
            return self._zeros, self._true
        vals, isint, defined = entry
        if defined is not self._true:
            self.suspect |= mask & ~defined
        load = self.load_suspect.get(name)
        if load is not None:
            self.suspect |= mask & load
        return vals, isint

    def _binop(self, op, a, ai, b, bi, mask) -> Tuple[np.ndarray, np.ndarray]:
        if op == "+" or op == "-" or op == "*":
            if op == "+":
                r = a + b
            elif op == "-":
                r = a - b
            else:
                r = a * b
            ii = ai & bi
            big = ii & ((r >= _EXACT) | (r <= -_EXACT))
            if big.any():
                self.suspect |= mask & big
            zero = ii & (r == 0)
            if zero.any():
                r = np.where(zero, 0.0, r)  # Python int 0, not IEEE -0.0
            return r, ii
        if op == "/":
            bad = b == 0
            if bad.any():
                self.suspect |= mask & bad
            return a / b, self._false
        # Floor division / modulo: CPython's float_divmod, elementwise.
        ii = ai & bi
        bad = (b == 0) | (
            ii & ((np.abs(a) >= _DIVMOD_SAFE) | (np.abs(b) >= _DIVMOD_SAFE))
        )
        if bad.any():
            self.suspect |= mask & bad
        mod = np.fmod(a, b)
        div = (a - mod) / b
        nonzero = mod != 0
        fix = nonzero & ((b < 0) != (mod < 0))
        mod = np.where(fix, mod + b, mod)
        if op == "%":
            r = np.where(nonzero, mod, np.copysign(self._zeros, b))
        else:
            div = np.where(fix, div - 1.0, div)
            floordiv = np.floor(div)
            floordiv = np.where(div - floordiv > 0.5, floordiv + 1.0, floordiv)
            safe_b = np.where(b == 0, 1.0, b)
            r = np.where(div == 0, np.copysign(self._zeros, a / safe_b), floordiv)
        zero = ii & (r == 0)
        if zero.any():
            r = np.where(zero, 0.0, r)
        return r, ii

    def _boolop(self, expr: BoolOp, mask) -> Tuple[np.ndarray, np.ndarray]:
        conj = expr.op == "and"
        cur = None
        for operand in expr.values:
            if cur is None:
                m = mask
            else:
                m = mask & cur if conj else mask & ~cur
            v, _vi = self._eval(operand, m)
            t = v != 0
            if cur is None:
                cur = t
            else:
                cur = (cur & t) if conj else (cur | t)
        return cur.astype(np.float64), self._true

    def _call(self, expr: Call, mask) -> Tuple[np.ndarray, np.ndarray]:
        name = expr.func.id  # validated: a builtin Name
        args = [self._eval(arg, mask) for arg in expr.args]
        if name == "abs":
            v, vi = args[0]
            return np.abs(v), vi
        if name == "clamp":
            (v, vi), (lo, loi), (hi, hii) = args
            swap = lo > hi
            lo, hi, loi, hii = (
                np.where(swap, hi, lo),
                np.where(swap, lo, hi),
                np.where(swap, hii, loi),
                np.where(swap, loi, hii),
            )
            take = v < hi  # min(hi, value): value wins only when strictly less
            mv, mi = np.where(take, v, hi), np.where(take, vi, hii)
            take = mv > lo  # max(lo, ...): lo wins ties and NaN comparisons
            return np.where(take, mv, lo), np.where(take, mi, loi)
        # min/max: first-on-tie comparison folds (NOT np.minimum/maximum --
        # those differ on NaN and ties, and Python keeps the first winner).
        rv, ri = args[0]
        for v, vi in args[1:]:
            take = (v < rv) if name == "min" else (v > rv)
            rv, ri = np.where(take, v, rv), np.where(take, vi, ri)
        return rv, ri

    # -- statements ---------------------------------------------------------

    def _exec_block(self, stmts: Sequence[Stmt], mask) -> None:
        for stmt in stmts:
            active = mask & ~self.returned
            if not active.any():
                return
            self._exec_stmt(stmt, active)

    def _exec_stmt(self, stmt: Stmt, mask) -> None:
        if isinstance(stmt, Assign):
            v, vi = self._eval(stmt.value, mask)
            self._bind(stmt.target.id, v, vi, mask)
        elif isinstance(stmt, AugAssign):
            a, ai = self._read_name(stmt.target.id, mask)
            b, bi = self._eval(stmt.value, mask)
            v, vi = self._binop(stmt.op, a, ai, b, bi, mask)
            self._bind(stmt.target.id, v, vi, mask)
        elif isinstance(stmt, If):
            c, _ = self._eval(stmt.condition, mask)
            taken = c != 0
            branch = mask & taken
            if branch.any():
                self._exec_block(stmt.body, branch)
            branch = mask & ~taken
            if stmt.orelse and branch.any():
                self._exec_block(stmt.orelse, branch)
        elif isinstance(stmt, Return):
            v, vi = self._eval(stmt.value, mask)
            self.ret_vals = np.where(mask, v, self.ret_vals)
            self.ret_isint = np.where(mask, vi, self.ret_isint)
            self.returned = self.returned | mask
        else:
            raise DslVectorizeError(f"unsupported statement {type(stmt).__name__}")

    def _bind(self, name: str, v, vi, mask) -> None:
        entry = self.env.get(name)
        if entry is None:
            self.env[name] = [
                np.where(mask, v, 0.0),
                np.where(mask, vi, True),
                mask,
            ]
        else:
            vals, isint, defined = entry
            entry[0] = np.where(mask, v, vals)
            entry[1] = np.where(mask, vi, isint)
            entry[2] = defined | mask


# -- public surface -----------------------------------------------------------------


class VectorizedProgram:
    """A program lowered for batch evaluation over feature columns.

    ``bound`` is the column-specialised kernel behind the signature of
    ``layout`` (by default one positional argument per column, in ``columns``
    order) and ``kernel`` that positional form whatever the layout;
    ``run_batch`` evaluates whole columns at once, bit-identically to calling
    ``kernel`` row by row; ``run(env)`` delegates to the compiled scalar
    program (full fidelity, including feature-object error surfaces).

    Only ``bound`` is compiled at construction -- a program the compiler
    rejects (keyword identifiers, helper collisions) raises
    :class:`DslCompileError` here, where ``make_runner`` can still fall back.
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 20_000,
        layout: Optional[KernelLayout] = None,
    ):
        report = vectorizability(program)
        if not report.ok:
            raise DslVectorizeError(
                "not vectorizable: " + "; ".join(report.reasons[:3])
            )
        self.program = program
        self.max_steps = max_steps
        self.columns: List[ColumnSpec] = report.columns
        self.column_keys: List[str] = [spec.key for spec in self.columns]
        self._expr_key = _map_feature_exprs(program)
        prefix = _mangle_prefix(program)
        self._kernel_program = _kernel_program(program, self.columns, self._expr_key, prefix)
        self._positional = layout is None
        names = self._kernel_program.params
        binding = (layout or positional_layout)(self.columns, names, prefix)
        if binding is None:
            raise DslVectorizeError("a feature column is outside the hot loop's vocabulary")
        self.binding: KernelBinding = binding
        self.bound = self._compile_kernel(binding)

    def _compile_kernel(self, binding: KernelBinding) -> CompiledProgram:
        kernel = self._kernel_program
        compiled = CompiledProgram(
            Program(name=kernel.name, params=list(binding.params), body=kernel.body),
            max_steps=self.max_steps,
            prologue=binding.prologue,
            helpers=binding.helpers,
        )
        # The kernel only ever sees numeric values (columns are coerced, and
        # every DSL operation over numbers yields a number), and for numbers
        # the compiler's truthiness helper is exactly ``bool``.  Swapping in
        # the C builtin removes one Python frame per condition in the
        # hot-loop scalar path.
        compiled._fn.__globals__["__dsl_truthy"] = bool
        return compiled

    @functools.cached_property
    def kernel(self) -> CompiledProgram:
        if self._positional:
            return self.bound
        names = self._kernel_program.params
        return self._compile_kernel(positional_layout(self.columns, names, ""))

    @functools.cached_property
    def _scalar(self) -> CompiledProgram:
        return compile_program(self.program, max_steps=self.max_steps)

    def run(self, env: Mapping[str, Any]) -> Any:
        """Single-row evaluation, identical to the compiled backend."""
        return self._scalar.run(env)

    def run_batch(
        self, columns: Mapping[str, Any], n: Optional[int] = None
    ) -> np.ndarray:
        """Evaluate all lanes of ``columns`` and return float64 results.

        ``columns`` maps each :attr:`column_keys` entry to a numpy array, a
        ``(float64 values, isint mask)`` pair, or a plain Python sequence.
        Results are bitwise identical to ``float(kernel(*row))`` per row;
        the first row that would raise under scalar evaluation raises here
        (in row order), with the scalar backend's exception.
        """
        scalars: Dict[str, _Column] = {}
        features: Dict[str, _Column] = {}
        ordered: List[_Column] = []
        for spec in self.columns:
            if spec.key not in columns:
                raise DslRuntimeError(f"missing column {spec.key!r}")
            col = _coerce_column(columns[spec.key], spec.key)
            if n is None:
                n = len(col.vals)
            elif len(col.vals) != n:
                raise DslRuntimeError(
                    f"column {spec.key!r} has {len(col.vals)} rows, expected {n}"
                )
            ordered.append(col)
            if spec.kind == "scalar":
                scalars[spec.param] = col
            else:
                features[spec.key] = col
        if n is None:
            raise DslRuntimeError("run_batch needs n= when the program has no columns")
        with np.errstate(all="ignore"):
            evaluator = _BatchEvaluator(n, scalars, features, self._expr_key)
            out = evaluator.run(self.program)
            suspect = evaluator.suspect
        if suspect.any():
            kernel = self.kernel
            for i in np.nonzero(suspect)[0]:
                row = [col.raw(i) for col in ordered]
                out[i] = float(kernel(*row))
        return out

    def run_batch_rows(self, rows: Sequence[Tuple[Any, ...]]) -> np.ndarray:
        """Evaluate row tuples (values in :attr:`columns` order)."""
        if not rows:
            return np.empty(0, dtype=np.float64)
        if not self.columns:
            return self.run_batch({}, n=len(rows))
        mapping = {
            spec.key: list(col)
            for spec, col in zip(self.columns, zip(*rows))
        }
        return self.run_batch(mapping, n=len(rows))


def vectorize_program(program: Program, max_steps: int = 20_000) -> VectorizedProgram:
    """Lower ``program``; raises :class:`DslVectorizeError` if unsupported."""
    return VectorizedProgram(program, max_steps=max_steps)
