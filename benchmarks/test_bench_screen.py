"""Static-screening overhead benchmark: rung "-1" must be near-free.

The interval screener's whole value proposition is that rejecting a
degenerate candidate costs a tree walk instead of a simulation.  This
benchmark screens a 64-candidate batch of grammar-generated caching
programs and gates the cost against one rung-0 evaluation (the fidelity
ladder's cheapest rung, a 10% trace prefix) of the same batch: screening
must come in below ``MAX_SCREEN_FRACTION`` of the rung-0 bill, i.e. at
least ``1 / MAX_SCREEN_FRACTION``x cheaper.  The speedup is the tracked
metric, so the nightly regression gate guards screening overhead like
every other rate.
"""

from __future__ import annotations

import random
import time

from repro.cache.search import CachingEvaluator, caching_input_intervals
from repro.dsl.abstract import StaticScreener
from repro.dsl.grammar import random_program
from repro.cache.search import caching_feature_spec
from repro.workloads import build_trace

from benchmarks.conftest import run_once

#: Acceptance gate: screening the batch must cost < 5% of one rung-0
#: evaluation of the same batch.
MAX_SCREEN_FRACTION = 0.05

BATCH_SIZE = 64
RUNG0_FIDELITY = 0.1

#: Rung-0 is a 10% prefix, so the trace is sized to make that prefix a
#: realistic screening-rung workload (800 requests), matching what the
#: fidelity ladder actually runs in a search.
TRACE_REQUESTS = 8000


def make_batch():
    spec = caching_feature_spec()
    return [random_program(spec, random.Random(seed)) for seed in range(BATCH_SIZE)]


def test_static_screen_overhead(benchmark, bench_records):
    programs = make_batch()
    screener = StaticScreener(caching_input_intervals())
    screener.screen(programs[0])  # warm imports/dispatch out of the timing

    def screen_all():
        return [screener.screen(program) for program in programs]

    verdicts = run_once(benchmark, screen_all)
    screen_s = benchmark.stats.stats.min
    screened_out = sum(1 for v in verdicts if v.screened)

    trace = build_trace("caching/zipf-hot", num_requests=TRACE_REQUESTS, num_objects=400)
    # The 5% gate prices the screener against a ``compiled`` rung 0.
    rung0 = CachingEvaluator(trace, backend="compiled").at_fidelity(RUNG0_FIDELITY)
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
    assert fraction < MAX_SCREEN_FRACTION, (
        f"screening a {BATCH_SIZE}-candidate batch cost {fraction:.1%} of one "
        f"rung-0 evaluation (gate: < {MAX_SCREEN_FRACTION:.0%})"
    )
