"""Differential tests of the vectorized lowering backend (hypothesis).

The contract under test is the one the fused simulation loops rely on:
``run_batch`` over arbitrary feature columns is *bit-identical* to evaluating
the scalar kernel row by row, and the kernel itself agrees with the
tree-walking interpreter oracle -- including NaN/inf propagation, rows whose
integers exceed the float64-exact range (2**53), and rows that raise.
Programs the lowering cannot handle must fall back down the
``vectorized -> compiled -> interpreter`` chain, never fail.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.search import caching_feature_spec
from repro.dsl import Interpreter, parse
from repro.dsl.analysis import vectorizability
from repro.dsl.compile import DEFAULT_BACKEND, DslCompileError, make_runner
from repro.dsl.errors import DslError
from repro.dsl.grammar import random_program
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


def _oracle_rows(vp: VectorizedProgram, rows):
    """Interpret the kernel program row by row: ("value", v) or ("error",)."""
    interpreter = Interpreter()
    params = vp.kernel.program.params
    outcomes = []
    for row in rows:
        try:
            outcomes.append(("value", interpreter.run(vp.kernel.program, dict(zip(params, row)))))
        except DslError:
            outcomes.append(("error",))
    return outcomes


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_run_batch_matches_interpreter_oracle(seed, data):
    program = random_program(SPEC, random.Random(seed))
    report = vectorizability(program)
    assert report.ok, "grammar programs stay within the vectorizable subset"
    vp = vectorize_program(program)

    n = data.draw(st.integers(min_value=1, max_value=12), label="rows")
    rows = [
        tuple(data.draw(_LANE_VALUE, label=f"row{i}") for _ in vp.columns)
        for i in range(n)
    ]
    oracle = _oracle_rows(vp, rows)

    first_error = next((i for i, o in enumerate(oracle) if o[0] == "error"), None)
    if first_error is not None:
        with pytest.raises(DslError):
            vp.run_batch_rows(rows)
        return
    out = vp.run_batch_rows(rows)
    assert out.dtype == np.float64 and len(out) == n
    for i, (_tag, value) in enumerate(oracle):
        assert _same_float(out[i], float(value)), (
            f"row {i}: batch {out[i]!r} != oracle {value!r} for {rows[i]}"
        )


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


# -- explicit edge cases -------------------------------------------------------------


def test_batch_exact_beyond_float64_integers():
    """Rows whose integers lose precision as float64 are recomputed exactly."""
    vp = vectorize_program(parse("def f(a) { return a * 3 }"))
    big = 2**53 + 1
    out = vp.run_batch({"a": [big, 5, -big]})
    assert _bits(out[0]) == _bits(float(3 * big))
    assert _bits(out[0]) != _bits(float(float(big) * 3))  # the lossy answer
    assert out[1] == 15.0
    assert _bits(out[2]) == _bits(float(3 * -big))


def test_batch_nan_inf_propagation():
    vp = vectorize_program(parse("def f(a, b) { return a + b * 2 }"))
    nan, inf = float("nan"), float("inf")
    out = vp.run_batch({"a": [nan, inf, 1.0, inf], "b": [1.0, 2.0, nan, -inf]})
    assert math.isnan(out[0])
    assert out[1] == inf
    assert math.isnan(out[2])
    assert math.isnan(out[3])  # inf + -inf


def test_batch_division_error_raised_in_row_order():
    vp = vectorize_program(parse("def f(a, b) { return a / b }"))
    with pytest.raises(DslError):
        vp.run_batch({"a": [1.0, 2.0], "b": [2.0, 0.0]})
    out = vp.run_batch({"a": [1.0, 9.0], "b": [2.0, 3.0]})
    assert list(out) == [0.5, 3.0]


def test_batch_rejects_missing_and_ragged_columns():
    vp = vectorize_program(parse("def f(a, b) { return a + b }"))
    with pytest.raises(DslError):
        vp.run_batch({"a": [1.0]})
    with pytest.raises(DslError):
        vp.run_batch({"a": [1.0, 2.0], "b": [1.0]})


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
    for row in [(1, 2.5, 3), (7, 0.5, 2), (2**60, 3.0, 7)]:
        assert vp.bound(row) == vp.kernel(*row)
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
    assert "kernel" not in vars(plain) and "_scalar" not in vars(plain)
    assert plain.kernel is plain.bound  # no layout: bound is the positional kernel
    bound = VectorizedProgram(program, layout=_row_layout)
    assert "kernel" not in vars(bound) and "_scalar" not in vars(bound)
    assert bound.kernel is not bound.bound
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
