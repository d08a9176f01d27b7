"""A scored candidate is its canonical text, not its tree.

A finished search holds thousands of :class:`ScoredCandidate` records; each
keeps the canonical source, and ``.program`` re-parses it on demand.  These
tests hold the coordinator to that: no record keeps a ``Program``, the
records pin only a handful of GC-tracked objects each, and the text they
keep is exactly what the engine keyed.
"""

import gc
import json
from pathlib import Path

import pytest

from repro.core import RunSpec, run
from repro.core.results import ScoredCandidate
from repro.dsl import parse
from repro.dsl.ast import Program
from repro.dsl.codegen import canonical_key

REPO_ROOT = Path(__file__).resolve().parents[2]
SPECS = REPO_ROOT / "examples" / "specs"

#: Tracked objects reachable from ``result.candidates``, per candidate.  A
#: record, its candidate, their lists and a (shared) evaluation come to
#: about 6; a record that keeps its tree pins its AST and facts, ~50.
MAX_TRACKED_PER_CANDIDATE = 12


def _search(spec_name: str, **search):
    data = json.loads((SPECS / spec_name).read_text(encoding="utf-8"))
    data["checkpoint"] = False
    data["search"] = {**data["search"], **search}
    return run(RunSpec.from_dict(data))


@pytest.fixture(scope="module")
def outcomes():
    return [
        _search("smoke_caching.json", rounds=2, candidates_per_round=6),
        _search("smoke_cc.json"),
    ]


def _tracked_reachable(roots) -> int:
    """GC-tracked objects reachable from ``roots``; classes are not followed."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_no_finished_candidate_holds_a_program(outcomes):
    for outcome in outcomes:
        candidates = outcome.result.candidates
        assert any(c.check_ok for c in candidates)
        for scored in candidates:
            state = {name: getattr(scored, name) for name in ScoredCandidate.__slots__}
            assert not any(isinstance(value, Program) for value in state.values()), state
            assert (scored.canonical_source is None) == (not scored.check_ok)


def test_finished_records_have_no_instance_dict(outcomes):
    """The records a finished search keeps one of per candidate are slotted."""
    for outcome in outcomes:
        for scored in outcome.result.candidates:
            records = (scored, scored.candidate, scored.evaluation)
            assert not any(hasattr(record, "__dict__") for record in records), records


def test_candidates_pin_a_handful_of_tracked_objects_each(outcomes):
    for outcome in outcomes:
        candidates = outcome.result.candidates
        per_candidate = _tracked_reachable(candidates) / len(candidates)
        assert per_candidate <= MAX_TRACKED_PER_CANDIDATE, per_candidate


def test_program_reparses_the_text_the_engine_keyed(outcomes):
    for outcome in outcomes:
        memo = outcome.setup.engine.memo_snapshot()
        checked = [c for c in outcome.result.candidates if c.check_ok]
        assert checked
        for scored in checked:
            program = scored.program
            assert program == parse(scored.source)
            key = canonical_key(program)
            evaluation = scored.evaluation
            if evaluation.full_fidelity:
                assert memo[key] is evaluation
            else:
                assert memo[f"{key}@f={evaluation.fidelity!r}"] is evaluation


def test_program_is_read_only(outcomes):
    scored = next(c for c in outcomes[0].result.candidates if c.check_ok)
    with pytest.raises(AttributeError):
        scored.program = None



def test_a_run_reads_a_tree_back_only_to_certify_the_winner(monkeypatch, tmp_path):
    """Re-parsing is off the hot path: scoring, checkpoints and artifacts use
    the kept text, and only the winner's certification reads ``.program``."""
    reads = []
    reparse = ScoredCandidate.program.fget

    def counted(scored):
        reads.append(scored.candidate.candidate_id)
        return reparse(scored)

    monkeypatch.setattr(ScoredCandidate, "program", property(counted))
    data = json.loads((SPECS / "smoke_caching.json").read_text(encoding="utf-8"))
    result = run(RunSpec.from_dict(data), store=tmp_path).result
    assert reads == [result.best.candidate.candidate_id]
