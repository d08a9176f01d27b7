"""Column-bound kernels for DSL programs (what a lowered run executes).

A candidate reads its inputs through feature objects -- ``obj_info.count``,
``ages.percentile(0.75)``, ``history.contains(obj_id)`` -- and on the scalar
backends every such read is a sandboxed ``dsl_getattr`` / ``dsl_call`` on an
object the hot loop had to build first.  This backend hoists the reads out
of the program, in three steps:

* **Columns.**  :func:`repro.dsl.analysis.vectorizability` lists each
  distinct feature read as a :class:`~repro.dsl.analysis.ColumnSpec` (a bare
  numeric parameter, ``param.attr`` or ``param.method(args)``) and records
  which AST nodes perform it.
* **Binding.**  A hot loop describes its one evaluation site as a *layout*:
  given the columns, it answers with a :class:`KernelBinding` -- the
  signature it can call with what it has at hand, plus one Python prologue
  line per column that reads the value straight out of those arguments (a
  store-entry slot, an inlined history lookup, a ``CCSignals`` field).
* **Bound kernel.**  ``bound`` is the program compiled behind that
  signature by the one emitter, :mod:`repro.dsl.compile`: the prologue, then
  the program's own body with every feature-read node rendered as its
  column's local name.  One Python frame per evaluation, no environment
  dict, no feature objects, and no per-program code outside the kernel.

The body is the text the compiled backend runs, on plain Python numbers, so
scores -- and the exceptions of a division by zero, an undefined local or an
overflowing float -- are those of the scalar backends by construction.

Programs outside the column vocabulary are rejected up front by
``vectorizability``, or by a layout returning ``None``;
:func:`repro.dsl.compile.make_runner` then falls back to the scalar compiled
program or the interpreter, so a lowered run is always safe to request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dsl.analysis import ColumnSpec, vectorizability
from repro.dsl.ast import Name, Program
from repro.dsl.compile import CompiledProgram, DslCompileError, compile_program


class DslVectorizeError(DslCompileError):
    """The program's feature reads cannot be bound as kernel columns."""


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


class VectorizedProgram:
    """A program whose feature reads are columns bound to a hot loop.

    ``columns`` is the plan; ``binding`` what ``layout`` answered for it (by
    default one positional argument per column, in ``columns`` order); and
    ``bound`` the kernel compiled behind the binding's signature.
    ``run(env)`` delegates to the compiled scalar program (full fidelity,
    including feature-object error surfaces), compiled on first use.

    ``bound`` is compiled at construction -- a program the compiler rejects
    (keyword identifiers, helper collisions) raises :class:`DslCompileError`
    here, where ``make_runner`` can still fall back.
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 20_000,
        layout: Optional[KernelLayout] = None,
    ):
        report = vectorizability(program)
        if not report.ok:
            raise DslVectorizeError("not vectorizable: " + "; ".join(report.reasons[:3]))
        self.program = program
        self.max_steps = max_steps
        self.columns: List[ColumnSpec] = report.columns
        prefix = _mangle_prefix(program)
        # A scalar column's kernel-local name is the DSL parameter's own.
        names: Dict[str, str] = {
            spec.key: spec.param if spec.kind == "scalar" else f"{prefix}{index}"
            for index, spec in enumerate(self.columns)
        }
        binding = (layout or positional_layout)(self.columns, list(names.values()), prefix)
        if binding is None:
            raise DslVectorizeError("a feature column is outside the hot loop's vocabulary")
        self.binding: KernelBinding = binding
        self.bound = CompiledProgram(
            Program(name=program.name, params=list(binding.params), body=program.body),
            max_steps=max_steps,
            prologue=binding.prologue,
            helpers=binding.helpers,
            leaves={node: names[key] for node, key in report.leaves.items()},
        )
        # Every kernel leaf is a number or ``None`` (a column value, a
        # literal, or the result of a DSL operation over those), and on those
        # the compiler's truthiness helper agrees with ``bool``.  Swapping in
        # the C builtin removes one Python frame per condition.
        self.bound._fn.__globals__["__dsl_truthy"] = bool

    @cached_property
    def _scalar(self) -> CompiledProgram:
        return compile_program(self.program, max_steps=self.max_steps)

    def run(self, env: Mapping[str, Any]) -> Any:
        """Single-row evaluation, identical to the compiled backend."""
        return self._scalar.run(env)


def vectorize_program(program: Program, max_steps: int = 20_000) -> VectorizedProgram:
    """Lower ``program``; raises :class:`DslVectorizeError` if unsupported."""
    return VectorizedProgram(program, max_steps=max_steps)
