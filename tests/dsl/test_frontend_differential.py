"""Differential tests: the one-pass front end against the code it replaced.

``tests/dsl/oracle.py`` keeps the old tokenizer, parser, reflective
traversal, ``deepcopy`` clone and multi-walk ``analyze`` verbatim.  Over
grammar programs (both domains, remixed and hallucinated the way the
synthetic model does it), their corruptions by the model's three
syntax-error modes and spliced-in junk, the new code must give the same
tokens at the same positions, the same programs, the same errors at the same
places, and the same facts.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.search import caching_feature_spec
from repro.cc.template import cc_feature_spec
from repro.core.spec import RunSpec, run
from repro.dsl import analysis, parser
from repro.dsl.analysis import analyze
from repro.dsl.ast import ForRange, Name, Node, Number, Program, While
from repro.dsl.codegen import to_source
from repro.dsl.errors import DslSyntaxError
from repro.dsl.grammar import random_program
from repro.dsl.mutation import mutate
from repro.dsl.parser import _Parser, parse, tokenize
from repro.llm.mock import SyntheticLLMClient
from tests.dsl import oracle

SPECS = (caching_feature_spec(), cc_feature_spec())
#: 1 in tier-1, 10 under the ``nightly`` hypothesis profile (tests/conftest.py).
SCALE = settings().max_examples // settings.get_profile("default").max_examples
PROGRAMS = 1500 * SCALE
EXAMPLE_SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: What the DSL is written in, plus what it is not: every character class the
#: tokenizers branch on (digits that are not decimals, letters and numerics
#: beyond ASCII, blanks that are not separators).
_ALPHABET = st.one_of(
    st.sampled_from("abcxyz_019 \t\r\n.+-*/%<>=!?:,(){};#$\x0b\xa0²٣½Ⅷé五"),
    st.characters(),
)


class _FixedChoice:
    """An RNG whose ``random()`` is a constant: picks one syntax-error mode."""

    def __init__(self, choice: float, seed: int):
        self._choice = choice
        self._rng = random.Random(seed)

    def random(self) -> float:
        return self._choice

    def randrange(self, *args):
        return self._rng.randrange(*args)


def _program(seed: int) -> Program:
    """A program the way the search meets them: sampled from the grammar,
    usually remixed, sometimes with a float, a bare division or a loop."""
    rng = random.Random(seed)
    spec = SPECS[seed % 2]
    program = random_program(spec, rng)
    if rng.random() < 0.6:
        program = mutate(program, spec, rng)
    client = SyntheticLLMClient(spec, seed=seed)
    for inject in (client._inject_float, client._inject_unguarded_division, client._inject_unbounded_loop):
        if rng.random() < 0.15:
            program = inject(program)
    return program


def _texts(seed: int, junk: str):
    """The canonical text of :func:`_program`, the text as a completion
    carries it, one corruption per syntax-error mode, and ``junk`` spliced in."""
    source = to_source(_program(seed))
    yield source
    yield source.strip()
    client = SyntheticLLMClient(SPECS[seed % 2], seed=seed)
    for choice in (0.1, 0.5, 0.9):
        client._rng = _FixedChoice(choice, seed)
        yield client._inject_syntax_error(source)
    at = random.Random(seed).randrange(len(source) + 1)
    yield source[:at] + junk + source[at:]


def _token_stream(tokenizer, text: str):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(text)]
    except DslSyntaxError as exc:
        return ("DslSyntaxError", str(exc), exc.line, exc.column)


def _parse_outcome(parser, text: str):
    try:
        return parser(text)
    except DslSyntaxError as exc:
        return ("DslSyntaxError", str(exc), exc.line, exc.column)
    except ValueError as exc:  # int("²"): both tokenizers call "²" a number
        return ("ValueError", str(exc))


def _fresh_parse(text: str) -> Program:
    return _Parser(text).parse_program()


@settings(max_examples=PROGRAMS, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), junk=st.text(_ALPHABET, max_size=6))
def test_tokens_programs_and_errors_match_the_oracle(seed, junk):
    for text in _texts(seed, junk):
        assert _token_stream(tokenize, text) == _token_stream(oracle.tokenize, text)
        assert _parse_outcome(_fresh_parse, text) == _parse_outcome(oracle.parse, text)


@settings(max_examples=500 * SCALE, deadline=None)
@given(text=st.text(_ALPHABET, max_size=60))
def test_tokens_match_the_oracle_on_junk(text):
    assert _token_stream(tokenize, text) == _token_stream(oracle.tokenize, text)
    assert _parse_outcome(_fresh_parse, text) == _parse_outcome(oracle.parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "a // b\n// note\nx //= 2 // 3 // tail",
        "true // 2\n(a) // 2\n1 // 2",
        "1.2.3 ..5 1. .x a.5 5.",
        "x<==>=!==+=-=*=/=%=//=",
        "a\t\r b # c // d\n  $",
        "naïve = 1²٣ + x½ - Ⅷ",
        ".² 1.² a.²",
        "a !b",
        "",
        "   ",
    ],
)
def test_tokens_match_the_oracle_on_corner_cases(text):
    assert _token_stream(tokenize, text) == _token_stream(oracle.tokenize, text)


@settings(max_examples=PROGRAMS, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_clone_analyze_walk_and_roundtrip_match_the_oracle(seed):
    program = _program(seed)
    parsed = parse(to_source(program))
    assert parsed == program  # the round trip still holds

    assert [id(n) for n in program.walk()] == [id(n) for n in oracle.walk(program)]
    assert [id(n) for n in program.children()] == [id(n) for n in oracle.children(program)]

    for original in (program, parsed):
        clone = original.clone()
        assert clone == original == oracle.clone(original) == copy.deepcopy(original)
        assert clone.derived is None
        assert not {id(n) for n in clone.walk()} & {id(n) for n in original.walk()}
        mine, theirs = _lists(clone), _lists(original)
        assert len(mine) == len(theirs) and not set(mine) & set(theirs)

    expected = oracle.analyze(program)
    for facts in (analyze(program), analyze(parsed)):
        _assert_same_facts(facts, expected)


def _assert_same_facts(facts, expected):
    for f in dataclasses.fields(expected):
        assert getattr(facts, f.name) == getattr(expected, f.name), f.name


def _looped(program: Program):
    """``program`` with its body inside a bounded and an unbounded ``for``,
    and with a ``while`` before its last statement (a loop reads and binds)."""
    name, params = program.name, program.params
    yield Program(name, params[:], [ForRange(Name("i"), Number(8), program.clone().body)])
    yield Program(name, params[:], [ForRange(Name("k"), Name(params[0]), program.clone().body)])
    body = program.clone().body
    loop = While(Name("score"), [stmt.clone() for stmt in body[:1]])
    yield Program(name, params[:], [*body[:-1], loop, *body[-1:]])


@pytest.mark.parametrize("name", ["smoke_caching", "matrix_cc"])
def test_facts_match_the_oracle_on_every_candidate_of_a_search(name, tmp_path, monkeypatch):
    """Every program a whole search analyses -- parsed candidates and the
    stand-in model's drafts -- and every candidate again inside loops."""
    fresh = analysis._analyze
    analysed = []

    def checked(program):
        facts = fresh(program)
        _assert_same_facts(facts, oracle.analyze(program))
        analysed.append(program)
        return facts

    monkeypatch.setattr(analysis, "_analyze", checked)
    parser._parse_memo.cache_clear()
    outcome = run(RunSpec.from_file(EXAMPLE_SPECS / f"{name}.json"), store=tmp_path)
    assert len(analysed) >= len(outcome.result.candidates)
    parsed = loops = 0
    for scored in outcome.result.candidates:
        try:
            program = parse(scored.candidate.source)
        except DslSyntaxError:
            continue
        parsed += 1
        for variant in (program, *_looped(program)):
            facts = fresh(variant)
            _assert_same_facts(facts, oracle.analyze(variant))
            loops += facts.for_loop_count + facts.while_loop_count
    assert loops >= 3 * parsed > 0


def _lists(node: Node):
    """``id`` of every list a tree owns (parameter, body and argument lists)."""
    found = []
    for n in node.walk():
        for name, _kind in n._fields:
            if isinstance(getattr(n, name), list):
                found.append(id(getattr(n, name)))
    return found


def test_nodes_have_no_dict_and_survive_pickle():
    programs = [parse(to_source(_program(seed))) for seed in range(40)]
    for program in programs:
        assert not any(hasattr(node, "__dict__") for node in program.walk())
        assert program.derived is not None
        copied = pickle.loads(pickle.dumps(program))
        assert copied == program and copied.derived is None  # what is derived stays home

    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        echoed = list(pool.map(_echo, programs, timeout=120))
    assert echoed == [(program, to_source(program)) for program in programs]


def _echo(program: Program):
    return program, to_source(program)
