"""Tests of the compiled DSL fast path, including the differential property
test: the compiled callable and the tree-walking interpreter must agree on
the result (or on failing) for arbitrary generated programs/environments."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.search import caching_feature_spec
from repro.dsl import DslCompileError, Interpreter, compile_program, parse
from repro.dsl.compile import make_runner, to_callable_source
from repro.dsl.errors import DslError, DslRuntimeError
from repro.dsl.grammar import random_program
from repro.dsl.mutation import mutate

from tests.conftest import LISTING_1, StubAggregate, StubHistory, StubObjectInfo

SPEC = caching_feature_spec()
MAX_EXAMPLES = 50


def _env(count, last_accessed, size, now, in_history):
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


def _outcome(run):
    """Normalise a program run to ("value", v) or ("error",)."""
    try:
        return ("value", run())
    except DslError:
        return ("error",)


# -- differential property test -----------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mutations=st.integers(min_value=0, max_value=2),
    mutation_seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=1_000),
    last_accessed=st.integers(min_value=0, max_value=100_000),
    size=st.integers(min_value=1, max_value=1_000_000),
    now_offset=st.integers(min_value=0, max_value=100_000),
    in_history=st.booleans(),
)
def test_compiled_and_interpreter_agree(
    seed, mutations, mutation_seed, count, last_accessed, size, now_offset, in_history
):
    program = random_program(SPEC, random.Random(seed))
    mut_rng = random.Random(mutation_seed)
    for _ in range(mutations):
        program = mutate(program, SPEC, mut_rng)
    env = _env(count, last_accessed, size, last_accessed + now_offset, in_history)

    try:
        compiled = compile_program(program)
    except DslCompileError:
        return  # e.g. a mutated-in loop: the adapters use the interpreter
    interpreted = _outcome(lambda: Interpreter().run(program, env))
    fast = _outcome(lambda: compiled.run(env))

    assert interpreted[0] == fast[0], (
        f"outcome mismatch for:\n{to_callable_source(program)}"
    )
    if interpreted[0] == "value":
        assert interpreted[1] == fast[1], (
            f"value mismatch for:\n{to_callable_source(program)}"
        )


# -- fixed-case parity --------------------------------------------------------------


def test_listing_1_compiled_matches_interpreter(priority_env):
    program = parse(LISTING_1)
    assert compile_program(program).run(priority_env) == Interpreter().run(
        program, priority_env
    )


def test_division_by_zero_is_dsl_error():
    program = parse("def f(x) { return 1 / (x - x) }")
    with pytest.raises(DslRuntimeError):
        compile_program(program).run({"x": 3})


@pytest.mark.parametrize("op", ["/", "//", "%"])
@pytest.mark.parametrize("zero", ["x - x", "(x - x) / 2"], ids=["int", "float"])
def test_zero_division_message_is_the_same_on_every_backend(op, zero):
    """The message is part of a failed candidate's ``result.json`` entry (and
    of the store record every backend shares), so it may not depend on the
    backend; the compiled backends cannot tell the operators apart."""
    program = parse(f"def f(x) {{ return 7 {op} ({zero}) }}")
    messages = set()
    for backend in ("vectorized", "compiled", "interpreter"):
        runner, effective = make_runner(program, backend)
        assert effective == backend
        with pytest.raises(DslRuntimeError) as raised:
            runner.run({"x": 3})
        messages.add(str(raised.value))
    assert len(messages) == 1 and "division by zero" in messages.pop()


def test_unknown_attribute_is_dsl_error(priority_env):
    program = parse(
        "def priority(now, obj_id, obj_info, counts, ages, sizes, history) "
        "{ return obj_info.magic }"
    )
    with pytest.raises(DslRuntimeError):
        compile_program(program).run(priority_env)


def test_unknown_function_is_dsl_error():
    program = parse("def f(x) { return frobnicate(x) }")
    with pytest.raises(DslRuntimeError):
        compile_program(program).run({"x": 1})


def test_missing_parameter_binding_rejected():
    program = parse("def f(x, y) { return x + y }")
    with pytest.raises(DslRuntimeError):
        compile_program(program).run({"x": 1})


def test_loops_are_not_compiled():
    # The interpreter's per-node step budget has no faithful compiled
    # equivalent, so loop programs must be refused (callers fall back).
    for source in (
        "def f(x) { s = 0\n while (1) { s += 1 }\n return s }",
        "def f(n) { s = 0\n for (i in range(n)) { s += i }\n return s }",
    ):
        with pytest.raises(DslCompileError):
            compile_program(parse(source))


def test_make_runner_falls_back_to_interpreter_for_loops():
    program = parse(
        "def f(n) { s = 0\n for (i in range(n)) { s += i }\n return s }"
    )
    runner, backend = make_runner(program, "compiled")
    assert backend == "interpreter"
    assert runner.run({"n": 10}) == 45
    with pytest.raises(ValueError):
        make_runner(program, "gpu")


def test_fallthrough_returns_zero():
    program = parse("def f(x) { y = x + 1 }")
    assert compile_program(program).run({"x": 5}) == 0
    assert Interpreter().run(program, {"x": 5}) == 0


def test_boolop_yields_booleans_like_interpreter():
    # Python's `and` would return the operand (5); the interpreter folds to a
    # boolean, and the compiled path must match.
    program = parse("def f(x) { return (x and 5) + 1 }")
    env = {"x": 2}
    assert Interpreter().run(program, env) == compile_program(program).run(env) == 2


def test_builtin_calls_bypass_local_shadowing():
    # The interpreter resolves *calls* of builtin names through the builtin
    # table even when a local variable shadows the name.
    program = parse("def f(x) { max = 3\n return max(x, 10) }")
    env = {"x": 4}
    assert Interpreter().run(program, env) == compile_program(program).run(env) == 10


def test_compiled_source_is_inspectable():
    program = parse("def f(x) { return x + 1 }")
    source = compile_program(program).python_source
    assert source.startswith("def f(x):")
    assert "return (x + 1)" in source


def test_python_keyword_identifier_raises_compile_error():
    # Legal DSL, illegal Python: callers fall back to the interpreter.
    program = parse("def f(x) { lambda = x + 1\n return lambda }")
    assert Interpreter().run(program, {"x": 2}) == 3
    with pytest.raises(DslCompileError):
        compile_program(program)


def test_helper_namespace_collision_raises_compile_error():
    # A candidate must not be able to shadow the compiler's injected helpers.
    program = parse("def f(x) { __dsl_truthy = 0\n return __dsl_truthy }")
    with pytest.raises(DslCompileError):
        compile_program(program)


def test_keyword_identifier_candidate_falls_back_to_interpreter(priority_env):
    from repro.cache.priority_cache import DslPriorityFunction

    program = parse(
        "def priority(now, obj_id, obj_info, counts, ages, sizes, history) "
        "{ lambda = obj_info.size + 1\n return lambda }"
    )
    fn = DslPriorityFunction(program)
    assert fn.backend == "interpreter"
    assert fn.evaluate(priority_env) == priority_env["obj_info"].size + 1
