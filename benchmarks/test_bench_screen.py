"""Static-screening overhead benchmark: rung "-1" must be free of evaluation.

The interval screener's whole value proposition is that rejecting a
degenerate candidate costs a tree walk instead of a simulation.  This
benchmark screens a 64-candidate batch of grammar-generated caching
programs and gates on counts: the screener rejects exactly the batch's
degenerate candidates, and through the engine a rejected candidate costs no
evaluator call, no memo lookup and no store traffic.  The cost against one
rung-0 evaluation (the fidelity ladder's cheapest rung, a 10% trace prefix)
of the same batch is timed, printed and recorded -- the nightly regression
gate tracks the speedup like every other rate -- but a wall-clock ratio
moves with every evaluator speed-up and with box load, so it gates nothing
here.
"""

from __future__ import annotations

import random
import time

from repro.cache.search import (
    CachingEvaluator,
    caching_feature_spec,
    caching_input_intervals,
    caching_template,
)
from repro.core.checker import StructuralChecker
from repro.core.engine import EngineConfig, EvaluationEngine
from repro.core.results import Candidate
from repro.core.store import EvaluationStore
from repro.dsl.abstract import StaticScreener
from repro.dsl.codegen import to_source
from repro.dsl.grammar import random_program
from repro.workloads import build_trace

from benchmarks.conftest import run_once

BATCH_SIZE = 64
#: Degenerate programs among grammar seeds ``0..BATCH_SIZE-1``.
EXPECTED_SCREENED = 1
RUNG0_FIDELITY = 0.1

#: Rung-0 is a 10% prefix, so the trace is sized to make that prefix a
#: realistic screening-rung workload (800 requests), matching what the
#: fidelity ladder actually runs in a search.
TRACE_REQUESTS = 8000


def make_batch():
    spec = caching_feature_spec()
    return [random_program(spec, random.Random(seed)) for seed in range(BATCH_SIZE)]


def counted(evaluator):
    """``evaluator`` with its ``evaluate_program`` calls counted in ``calls``."""
    inner = evaluator.evaluate_program
    evaluator.calls = 0

    def evaluate_program(program):
        evaluator.calls += 1
        return inner(program)

    evaluator.evaluate_program = evaluate_program
    return evaluator


def test_static_screen_overhead(benchmark, bench_records, tmp_path):
    programs = make_batch()
    screener = StaticScreener(caching_input_intervals())
    screener.screen(programs[0])  # warm imports/dispatch out of the timing

    def screen_all():
        return [screener.screen(program) for program in programs]

    verdicts = run_once(benchmark, screen_all)
    screen_s = benchmark.stats.stats.min
    screened_out = sum(1 for v in verdicts if v.screened)
    assert screened_out == EXPECTED_SCREENED

    trace = build_trace("caching/zipf-hot", num_requests=TRACE_REQUESTS, num_objects=400)
    rung0 = counted(CachingEvaluator(trace).at_fidelity(RUNG0_FIDELITY))

    # Through the engine: everything but the screened candidates is evaluated,
    # looked up in the memo and the store, and written back -- once each.
    engine = EvaluationEngine(
        StructuralChecker(caching_template()),
        rung0,
        config=EngineConfig(max_workers=1, static_screen=True),  # rung0.calls is in-process
    )
    engine.attach_store(EvaluationStore(tmp_path / "evalstore").bind("k" * 64))
    sources = [to_source(program) for program in programs]
    assert len(set(sources)) == BATCH_SIZE
    batch = engine.process_batch(
        [Candidate(candidate_id=f"c{i}", source=s, round_index=1) for i, s in enumerate(sources)]
    )
    survivors = BATCH_SIZE - EXPECTED_SCREENED
    assert batch.stats.passed_check == batch.stats.screen_checks == BATCH_SIZE
    assert batch.stats.screened == EXPECTED_SCREENED
    assert rung0.calls == survivors
    assert batch.stats.eval_cache_lookups == survivors
    assert engine.totals.store_lookups == engine.store_writes == survivors

    start = time.perf_counter()
    for program in programs:
        rung0.evaluate(program)
    rung0_eval_s = time.perf_counter() - start

    fraction = screen_s / rung0_eval_s
    speedup = rung0_eval_s / screen_s
    record = {
        "screen_s": round(screen_s, 4),
        "rung0_eval_s": round(rung0_eval_s, 4),
        "eval_over_screen_speedup": round(speedup, 1),
        "screened_out": screened_out,
    }
    benchmark.extra_info.update(record)
    bench_records["static_screen"] = record
    print(
        f"\n[static-screen] {BATCH_SIZE} candidates screened in {screen_s * 1e3:.1f} ms "
        f"({screened_out} degenerate) vs rung-0 evaluation {rung0_eval_s * 1e3:.1f} ms "
        f"= {speedup:.0f}x cheaper ({fraction:.2%} of the rung-0 bill)"
    )
