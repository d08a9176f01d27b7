"""Count-based gate: the front end does each step once per distinct text.

No wall-clock: counting wrappers around the three places work is done --
``parser._scan`` (the one scan of a text that a parse starts with),
``analysis._analyze`` (one walk of one program) and
``codegen._render_program`` (one render) -- during whole searches.  A text
scanned twice, a parsed program analysed or rendered twice, is a repeat the
memo or ``Program.derived`` should have served.  A positioned ``Token`` is
built only to report a syntax error, never on the way to a program.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.spec import RunSpec, run
from repro.dsl import analysis, codegen, parser

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


@pytest.fixture
def counts(monkeypatch):
    """Texts scanned, programs analysed and parsed programs rendered, in
    call order (the programs themselves, so no ``id`` is ever reused), and
    the text being scanned whenever a ``Token`` was built."""
    seen = {"tokenised": [], "analysed": [], "rendered": [], "tokens": []}

    def counting(module, name, key, keep=lambda arg: True):
        original = getattr(module, name)

        def wrapper(arg):
            if keep(arg):
                seen[key].append(arg)
            return original(arg)

        monkeypatch.setattr(module, name, wrapper)

    # The synthetic model analyses and renders its work-in-progress trees
    # (is the accumulator defined? what is the completion's text?); those are
    # not parsed programs and carry nothing.
    def parsed(program):
        return program.derived is not None

    counting(parser, "_scan", "tokenised")

    def token(*args):
        seen["tokens"].append(seen["tokenised"][-1])
        return original_token(*args)

    original_token = parser.Token
    monkeypatch.setattr(parser, "Token", token)
    counting(analysis, "_analyze", "analysed", keep=parsed)
    counting(codegen, "_render_program", "rendered", keep=parsed)
    parser._parse_memo.cache_clear()
    yield seen
    parser._parse_memo.cache_clear()


def _assert_no_repeats(seen):
    texts = seen["tokenised"]
    assert len(texts) == len(set(texts))
    for key in ("analysed", "rendered"):
        programs = seen[key]
        assert len(programs) == len({id(program) for program in programs}), key
    assert texts and seen["analysed"] and seen["rendered"]
    assert len(seen["analysed"]) <= len(texts)


def test_a_caching_search_parses_analyses_and_renders_each_text_once(counts, tmp_path):
    data = RunSpec.from_file(SPECS / "smoke_caching.json").to_dict()
    data["search"] = {"rounds": 3, "candidates_per_round": 10}
    outcome = run(RunSpec.from_dict(data), store=tmp_path)
    assert outcome.result.total_candidates >= 30
    _assert_no_repeats(counts)
    # Parents come back in every prompt, and the checker and the repair path
    # read the same texts again: far more parses are asked for than done.
    info = parser._parse_memo.cache_info()
    assert info.misses == len(counts["tokenised"]) <= info.maxsize
    assert info.hits > info.misses
    # The model's syntax-error modes fired, and none of the texts that
    # parsed had a Token built for it.
    raising = {text for text in set(counts["tokenised"]) if type(parser._parse_memo(text)) is tuple}
    assert raising
    assert set(counts["tokens"]) <= raising


def test_a_cc_search_tokenises_once_per_candidate_despite_two_sub_checkers(counts, tmp_path):
    outcome = run(RunSpec.from_file(SPECS / "matrix_cc.json"), store=tmp_path)
    _assert_no_repeats(counts)
    # KernelConstraintChecker = StructuralChecker + KernelRuleChecker over
    # one parse: each candidate's text went through the scanner once.
    for scored in outcome.result.candidates:
        assert counts["tokenised"].count(scored.candidate.source) == 1
