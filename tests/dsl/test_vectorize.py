"""Differential tests of the vectorized lowering backend (hypothesis).

The contract under test is the one the hot loops rely on: the bound kernel --
the program's body with every feature read replaced by a column local -- is
*bit-identical* to the tree-walking interpreter oracle evaluating the
original program against feature objects that answer with the same column
values, including NaN/inf propagation, integers beyond the float64-exact
range (2**53), and rows that raise.  Programs the lowering cannot handle must
fall back down the ``vectorized -> compiled -> interpreter`` chain, never fail.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.search import caching_feature_spec
from repro.dsl import Interpreter, parse
from repro.dsl.analysis import vectorizability
from repro.dsl.ast import BoolOp, Compare, If, Ternary
from repro.dsl.codegen import to_source
from repro.dsl.compile import DEFAULT_BACKEND, DslCompileError, compile_program, make_runner
from repro.dsl.errors import DslError, DslRuntimeError
from repro.dsl.grammar import random_program
from repro.dsl.interpreter import FeatureObject
from repro.dsl.vectorize import (
    DslVectorizeError,
    KernelBinding,
    VectorizedProgram,
    vectorize_program,
)

from tests.conftest import StubAggregate, StubHistory, StubObjectInfo

SPEC = caching_feature_spec()
MAX_EXAMPLES = 50

#: Numeric lanes mix plain magnitudes with the documented edge cases: NaN,
#: +/-inf, signed zero, and integers at/over the float64-exact boundary.
_EDGES = [
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0,
    2**53,
    2**53 + 1,
    -(2**53) - 1,
    2**63,
    1e308,
]
_LANE_VALUE = st.one_of(
    st.integers(min_value=-(2**53) - 2, max_value=2**53 + 2),
    st.floats(width=64),  # allows NaN and infinities
    st.sampled_from(_EDGES),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same_float(a: float, b: float) -> bool:
    """Bit-identity modulo NaN payload (any NaN matches any NaN)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return _bits(float(a)) == _bits(float(b))


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return _same_float(a, b)
    return type(a) is type(b) and a == b


class _ColumnFeature(FeatureObject):
    """A feature parameter that answers every read from one row of columns."""

    def __init__(self, param, columns, row):
        self._param = param
        self._methods = [c for c in columns if c.kind == "method" and c.param == param]
        self._row = row  # column key -> value

    def dsl_getattr(self, attr):
        return self._row[f"{self._param}.{attr}"]

    def dsl_call(self, method, args):
        for spec in self._methods:
            wanted = [v if kind == "lit" else self._row[v] for kind, v in spec.args]
            if spec.attr == method and wanted == list(args):
                return self._row[spec.key]
        raise AssertionError(f"no column for {self._param}.{method}{tuple(args)}")


def _oracle_env(program, columns, row):
    """The environment of the *original* program whose reads yield ``row``."""
    return {
        param: row[param] if param in row else _ColumnFeature(param, columns, row)
        for param in program.params
    }


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_bound_kernel_matches_interpreter_oracle(seed, data):
    program = random_program(SPEC, random.Random(seed))
    report = vectorizability(program)
    assert report.ok, "grammar programs stay within the vectorizable subset"
    vp = vectorize_program(program)

    interpreter = Interpreter()
    for i in range(data.draw(st.integers(min_value=1, max_value=12), label="rows")):
        values = [data.draw(_LANE_VALUE, label=f"row{i}") for _ in vp.columns]
        row = {spec.key: value for spec, value in zip(vp.columns, values)}
        try:
            expected = interpreter.run(program, _oracle_env(program, vp.columns, row))
        except DslError:
            with pytest.raises(DslError):
                vp.bound(*values)
            continue
        got = vp.bound(*values)
        assert _same_value(got, expected), (
            f"row {i}: kernel {got!r} != oracle {expected!r} for {row}"
        )


#: What a comparison may be handed that a plain number is not: nothing, NaN,
#: bools, and ints beside floats of the same or nearly the same magnitude.
_COMPARED = [None, float("nan"), True, False, 0, 1, 1.0, -1, -0.0, 2.5, 409, 409.0, 2**53 + 1]

#: The grammar's conditions are all comparisons; these mix in the conditions
#: that keep the truthiness fold (a bare value, ``not``, an ``and`` / ``or``).
_MIXED_CONDITIONS = [
    "def f(a, b, c) { if (a) { return b } return c }",
    "def f(a, b, c) { return (a < b and c) ? 1 : 2 }",
    "def f(a, b, c) { if (a == b or b != c or c) { return 1 } return a >= c ? 3 : 4 }",
    "def f(a, b, c) { x = not (a > b) ? b : c\n if (not a) { x = x + 1 } return x }",
    "def f(a, b, c) { return ((a <= b) == c) ? (a and b) : (b or c) }",
]


def _conditions(program):
    for node in program.walk():
        if isinstance(node, (If, Ternary)):
            yield node.condition
        elif isinstance(node, BoolOp):
            yield from node.values


def test_bare_compare_conditions_match_interpreter_on_edge_rows():
    """A comparison used as a condition is emitted without the truthiness
    helper; on rows of ``None``, NaN, bools and mixed int/float both emitted
    forms -- the bound kernel and the scalar program -- still give the
    interpreter's value, or fail where it fails."""
    programs = [random_program(SPEC, random.Random(seed)) for seed in range(500)]
    programs += [parse(source) for source in _MIXED_CONDITIONS]
    interpreter = Interpreter()
    rng = random.Random(0)
    bare = raised = 0
    for program in programs:
        vp = vectorize_program(program)
        scalar = compile_program(program)
        folded = sum(not isinstance(c, Compare) for c in _conditions(program))
        bare += sum(isinstance(c, Compare) for c in _conditions(program))
        for emitted in (vp.bound, scalar):
            assert emitted.python_source.count("__dsl_truthy(") == folded
        for _ in range(6):
            values = [rng.choice(_COMPARED) for _ in vp.columns]
            row = {spec.key: value for spec, value in zip(vp.columns, values)}
            runs = (
                lambda: vp.bound(*values),
                lambda: scalar.run(_oracle_env(program, vp.columns, row)),
            )
            try:
                expected = interpreter.run(program, _oracle_env(program, vp.columns, row))
            except DslRuntimeError:
                raised += 1
                for run in runs:
                    with pytest.raises(DslRuntimeError):
                        run()
                continue
            for run in runs:
                assert _same_value(run(), expected), (to_source(program), row)
    assert bare > 1_500 and raised > 100  # both outcomes are exercised


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=1_000),
    last_accessed=st.integers(min_value=0, max_value=100_000),
    size=st.integers(min_value=1, max_value=1_000_000),
    now=st.integers(min_value=0, max_value=200_000),
    in_history=st.booleans(),
)
def test_vectorized_run_matches_interpreter_on_full_env(
    seed, count, last_accessed, size, now, in_history
):
    """The single-row ``run(env)`` path agrees with the interpreter on the
    *original* program against full feature objects (the evaluator path)."""
    program = random_program(SPEC, random.Random(seed))
    runner, backend = make_runner(program, "vectorized")
    assert backend == "vectorized"

    def env():
        return {
            "now": now,
            "obj_id": 7,
            "obj_info": StubObjectInfo(
                count=count, last_accessed=last_accessed, inserted_at=0, size=size
            ),
            "counts": StubAggregate(max(1, count // 2)),
            "ages": StubAggregate(max(1, now - last_accessed)),
            "sizes": StubAggregate(size),
            "history": StubHistory(members={7} if in_history else set()),
        }

    try:
        expected = Interpreter().run(program, env())
    except DslError:
        with pytest.raises(DslError):
            runner.run(env())
        return
    assert runner.run(env()) == expected


# -- fallback chain ------------------------------------------------------------------


def test_unvectorizable_program_falls_back_to_compiled():
    # An expression (not a literal or bare parameter) as a method argument is
    # outside the columnar vocabulary: the program still runs, one rung down.
    source = """def f(now, obj_id, obj_info, counts, ages, sizes, history) {
        return counts.percentile(now % 1)
    }"""
    program = parse(source)
    assert not vectorizability(program).ok
    with pytest.raises(DslVectorizeError):
        vectorize_program(program)
    runner, backend = make_runner(program, "vectorized")
    assert backend == "compiled"


def test_requested_backend_is_respected():
    program = random_program(SPEC, random.Random(0))
    for requested in ("interpreter", "compiled", "vectorized"):
        _runner, resolved = make_runner(program, requested)
        assert resolved == requested


def test_vectorized_is_the_default_backend():
    _runner, resolved = make_runner(random_program(SPEC, random.Random(0)))
    assert resolved == DEFAULT_BACKEND == "vectorized"


def _row_layout(columns, names, prefix):
    """A toy hot loop: the kernel is called with one tuple of column values."""
    row = f"{prefix}row"
    return KernelBinding(
        params=(row,),
        prologue=tuple(f"{name} = {row}[{i}]" for i, name in enumerate(names)),
    )


def test_bound_kernel_is_the_kernel_behind_the_layouts_signature():
    program = parse("def f(a, b, stats) { x = a * stats.mean()\n return x // b }")
    vp = VectorizedProgram(program, layout=_row_layout)
    assert vp.bound.python_source.startswith("def f(__colrow):\n    a = __colrow[0]\n")
    positional = VectorizedProgram(program).bound
    assert positional.python_source.startswith("def f(a, __col1, b):\n    x = ")
    for row in [(1, 2.5, 3), (7, 0.5, 2), (2**60, 3.0, 7)]:
        assert vp.bound(row) == positional(*row)
    with pytest.raises(DslError, match="division by zero"):
        vp.bound((1, 1.0, 0))


def test_program_a_layout_cannot_serve_runs_on_the_compiled_backend():
    program = parse("def f(a) { return a + 1 }")
    runner, backend = make_runner(program, "vectorized", layout=lambda *_: None)
    assert backend == "compiled"
    assert runner.run({"a": 1}) == 2


def test_only_the_bound_kernel_is_compiled_at_construction():
    program = parse("def f(a, stats) { return a + stats.mean() }")
    plain = vectorize_program(program)
    assert "_scalar" not in vars(plain)
    bound = VectorizedProgram(program, layout=_row_layout)
    assert "_scalar" not in vars(bound)
    # ... and run(env) compiles the scalar program the first time it is used.
    assert bound.run({"a": 1, "stats": StubAggregate(4)}) == plain.run(
        {"a": 1, "stats": StubAggregate(4)}
    )
    assert "_scalar" in vars(bound)


@pytest.mark.parametrize("layout", [None, _row_layout], ids=["positional", "bound"])
def test_uncompilable_program_falls_back_at_construction(layout):
    # Legal DSL, illegal Python.  The scalar program compiles lazily, so it is
    # the eager kernel compile that must refuse -- at construction, where
    # make_runner can still degrade -- and not the first run(env).
    program = parse("def f(a) { lambda = a + 1\n return lambda }")
    assert vectorizability(program).ok
    with pytest.raises(DslCompileError):
        VectorizedProgram(program, layout=layout)
    runner, backend = make_runner(program, "vectorized", layout=layout)
    assert backend == "interpreter"
    assert runner.run({"a": 2}) == 3


def test_make_runner_rejects_unknown_backend():
    with pytest.raises(ValueError):
        make_runner(random_program(SPEC, random.Random(0)), "numba")
