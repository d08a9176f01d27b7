"""Code generation tests: round-trip and the C-like back end."""

import pytest

from repro.dsl import parse, to_c_like, to_source

from tests.conftest import LISTING_1


ROUNDTRIP_SOURCES = [
    "def f(x) { return x }",
    "def f(x, y) { return x + y * 2 - 3 }",
    "def f(x) { return (x + 1) * (x - 1) }",
    "def f(x) { return x > 3 ? x + 1 : x - 1 }",
    "def f(x) { return x // 2 + x % 3 }",
    "def f(x, y) { return x > 1 and y < 2 or not x }",
    "def f(o) { return o.count * 2 }",
    "def f(s) { return s.percentile(0.75) }",
    "def f(h, k) { return h.contains(k) ? 1 : 0 }",
    "def f(x) {\n y = 0\n if (x > 1) { y = 1 } else { y = 2 }\n return y\n}",
    "def f(x) {\n s = 0\n for (i in range(4)) { s += i }\n return s\n}",
    "def f(x) {\n while (x > 0) { x -= 1 }\n return x\n}",
    "def f(x) { return max(1, min(x, 10)) }",
    "def f(x) { return -x }",
    LISTING_1,
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_roundtrip_parse_render_parse(source):
    program = parse(source)
    rendered = to_source(program)
    assert parse(rendered) == program


def test_to_source_is_stable():
    program = parse(LISTING_1)
    once = to_source(program)
    twice = to_source(parse(once))
    assert once == twice


def test_to_c_like_output():
    program = parse("def f(x) {\n y = x + 1\n if (y > 2) { y -= 1 }\n return y\n}")
    rendered = to_c_like(program)
    assert "y = x + 1;" in rendered
    assert "if (y > 2) {" in rendered
    assert rendered.strip().endswith("}")


def test_operator_precedence_preserved():
    from repro.dsl import Interpreter

    source = "def f(a, b, c) { return a - b - c + a * (b + c) }"
    program = parse(source)
    reparsed = parse(to_source(program))
    env = {"a": 7, "b": 3, "c": 2}
    assert Interpreter().run(program, env) == Interpreter().run(reparsed, env)


def test_ternary_rendering_nested():
    source = "def f(x) { return x > 2 ? 1 : x > 1 ? 2 : 3 }"
    program = parse(source)
    assert parse(to_source(program)) == program
