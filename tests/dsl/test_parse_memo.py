"""The parse memo's contract: shared, bounded, exception-free, read-only."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.cache.search import caching_feature_spec
from repro.dsl import parser
from repro.dsl.analysis import analyze
from repro.dsl.codegen import canonical_key, to_source
from repro.dsl.errors import DslSyntaxError
from repro.dsl.grammar import random_program
from repro.dsl.mutation import crossover, mutate
from repro.dsl.parser import parse
from repro.llm.mock import SyntheticLLMClient, SyntheticLLMConfig
from tests.dsl import oracle

SPEC = caching_feature_spec()
CAP = parser._parse_memo.cache_info().maxsize


@pytest.fixture(autouse=True)
def _empty_memo():
    parser._parse_memo.cache_clear()
    yield
    parser._parse_memo.cache_clear()


def _texts(count: int, seed: int = 0):
    rng = random.Random(seed)
    return [to_source(random_program(SPEC, rng)) + f"# {i}\n" for i in range(count)]


def test_a_hit_returns_the_same_program():
    (text,) = _texts(1)
    first = parse(text)
    assert parse(text) is first
    assert first.derived is not None
    assert to_source(first) is to_source(first)
    assert canonical_key(first) is canonical_key(first)
    assert analyze(first) is analyze(first)
    info = parser._parse_memo.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_an_error_replays_identically_and_is_not_kept_as_an_exception():
    text = "def f(x) {\n    return x +\n}"
    raised = []
    for _ in range(3):
        with pytest.raises(DslSyntaxError) as info:
            parse(text)
        raised.append(info.value)
    with pytest.raises(DslSyntaxError) as info:
        oracle.parse(text)
    assert len({id(exc) for exc in raised}) == 3  # a fresh exception each time
    for exc in raised:
        assert (str(exc), exc.message, exc.line, exc.column) == (
            str(info.value), "expected an expression but found '\\n'", 2, 15,
        )
    assert parser._parse_memo(text) == ("expected an expression but found '\\n'", 2, 15)
    assert parser._parse_memo.cache_info().misses == 1


def test_the_memo_never_exceeds_its_cap():
    assert CAP <= 256
    for text in _texts(10 * CAP):
        parse(text)
        assert parser._parse_memo.cache_info().currsize <= CAP
    assert parser._parse_memo.cache_info().currsize == CAP


def test_remixing_memoised_parents_leaves_every_entry_as_parsed():
    """The read-only contract, enforced: 1 000 operations of the kinds that
    edit trees, over parents served by the memo, change no memo entry."""
    rng = random.Random(7)
    texts = _texts(CAP // 2)
    parents = [parse(text) for text in texts]
    for parent in parents:  # fill what rides on a parsed program
        to_source(parent), canonical_key(parent), analyze(parent)
    client = SyntheticLLMClient(
        SPEC,
        SyntheticLLMConfig(
            syntax_error_rate=0.3,
            float_injection_rate=0.5,
            unguarded_division_rate=0.5,
            unbounded_loop_rate=0.5,
        ),
        seed=7,
    )
    for step in range(1000):
        text = rng.choice(texts)
        parent = parse(text)
        kind = step % 4
        if kind == 0:
            mutate(parent, SPEC, rng)
        elif kind == 1:
            crossover(parent, parse(rng.choice(texts)), rng)
        elif kind == 2:
            client._repair_source(text, "[float-arith] ... [div-by-zero] ... [unbounded-loop]")
        else:
            client._maybe_hallucinate(to_source(parent), parent)
    for text, parent in zip(texts, parents):
        assert parse(text) is parent  # still the memo's entry
        fresh = oracle.parse(text)
        assert parent == fresh
        assert parent.derived["source"] == to_source(fresh)
        assert parent.derived["key"] == canonical_key(fresh)
        assert parent.derived["facts"] == oracle.analyze(fresh)


def test_threads_sharing_the_memo_all_get_whole_programs():
    """Sweep seeds run in threads of one process and share the memo: under
    forced switching, more threads than cores, every parse of a text is the
    program a lone parse gives, and the memo stays within its cap."""
    texts = _texts(2 * CAP, seed=3)
    expected = [oracle.parse(text) for text in texts]
    failures = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(600):
            index = rng.randrange(len(texts))
            if parse(texts[index]) != expected[index]:
                failures.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert parser._parse_memo.cache_info().currsize <= CAP
