"""Heuristic mini-language used to represent synthesized policies.

PolicySmith candidates are small imperative programs (the paper's Listing 1 is
one example).  Representing them in a dedicated DSL -- rather than executing
raw generated C or Python -- gives the framework three properties it needs:

* **Safety**: candidates are interpreted inside a sandboxed environment and
  cannot touch the host process, no matter what the generator produced.
* **Analysability**: the kernel-constraint checker (our eBPF-verifier
  stand-in) and complexity checks are simple AST walks.
* **Evolvability**: mutation and crossover operators work on the AST, which
  is how the synthetic generator "remixes" parent heuristics.

The public surface:

``parse``             text -> :class:`Program`
``Interpreter``       evaluates a :class:`Program` against an environment
``analyze``           static facts used by checkers (floats, division, loops)
``mutate`` / ``crossover``   evolutionary operators
``random_program``    grammar-based sampling of fresh candidates
``to_source`` / ``to_c_like``   code generation back ends
``compile_program``   compiles a :class:`Program` to a native Python callable
                      (the hot-loop fast path; the interpreter stays as the
                      fallback and differential-testing oracle)
"""

from repro.dsl.ast import (
    Assign,
    Attribute,
    AugAssign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    ForRange,
    If,
    Name,
    Node,
    Number,
    Program,
    Return,
    Ternary,
    UnaryOp,
    While,
)
from repro.dsl.errors import (
    DslError,
    DslRuntimeError,
    DslSyntaxError,
    DslTimeoutError,
)
from repro.dsl.parser import parse
from repro.dsl.interpreter import Interpreter, EvalContext
from repro.dsl.compile import CompiledProgram, DslCompileError, compile_program
from repro.dsl.analysis import (
    ColumnSpec,
    ProgramFacts,
    VectorizabilityReport,
    analyze,
    vectorizability,
)
from repro.dsl.abstract import (
    AbstractResult,
    Certificate,
    InputIntervals,
    Interval,
    ScreenVerdict,
    StaticScreener,
    analyze_intervals,
    certify_program,
)
from repro.dsl.codegen import to_c_like, to_source
from repro.dsl.mutation import MutationConfig, crossover, mutate
from repro.dsl.grammar import GrammarConfig, FeatureSpec, random_program
from repro.dsl.vectorize import DslVectorizeError, VectorizedProgram, vectorize_program

__all__ = [
    "Assign",
    "Attribute",
    "AugAssign",
    "BinOp",
    "BoolOp",
    "Call",
    "Compare",
    "ForRange",
    "If",
    "Name",
    "Node",
    "Number",
    "Program",
    "Return",
    "Ternary",
    "UnaryOp",
    "While",
    "DslError",
    "DslRuntimeError",
    "DslSyntaxError",
    "DslTimeoutError",
    "parse",
    "Interpreter",
    "EvalContext",
    "CompiledProgram",
    "DslCompileError",
    "compile_program",
    "ProgramFacts",
    "analyze",
    "ColumnSpec",
    "VectorizabilityReport",
    "vectorizability",
    "AbstractResult",
    "Certificate",
    "InputIntervals",
    "Interval",
    "ScreenVerdict",
    "StaticScreener",
    "analyze_intervals",
    "certify_program",
    "DslVectorizeError",
    "VectorizedProgram",
    "vectorize_program",
    "to_source",
    "to_c_like",
    "MutationConfig",
    "mutate",
    "crossover",
    "GrammarConfig",
    "FeatureSpec",
    "random_program",
]
