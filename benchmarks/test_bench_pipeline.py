"""Pipelined-round benchmark: generation/evaluation overlap vs serial.

The pipelined scheduler exists for generation-bound searches: when each
LLM call takes as long as evaluating its candidates, overlapping the two
phases should approach a 2x throughput win.  The synthetic client is
CPU-cheap, so this benchmark wraps it in a ``SlowClient`` that sleeps per
completion (as a network provider would block), calibrated so generation
and evaluation take comparable wall time.  The gate is what does not depend
on the box: the pipelined run's results are *identical* to the serial
schedule's and it reports overlapped wall time.  The throughput ratio is
printed and recorded (the nightly regression gate tracks it), not asserted:
a single wall-clock ratio fails under CPU load with nothing wrong.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.artifacts import search_result_to_dict
from repro.core.domain import build_search

from benchmarks.conftest import run_once

SEED = 13
BATCH_SIZE = 2
#: Client delay = this factor x the measured evaluation wall per
#: completion.  >1 makes the search *generation-bound* (the scenario the
#: pipeline exists for): evaluation hides entirely behind the deterministic
#: sleep, so the measured ratio is stable at ~(1 + 1/factor)x.
CALIBRATION_FACTOR = 1.3
WORKLOADS = [{"name": "caching/zipf-hot", "num_objects": 400}]


class SlowClient:
    """Adds a per-completion delay to any client (sleep releases the GIL,
    exactly like a network provider blocked on its socket)."""

    def __init__(self, inner: Any, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    @property
    def model(self) -> str:
        return self.inner.model

    def __getattr__(self, name: str) -> Any:
        # get_state/set_state pass through: the pipeline's speculation
        # snapshots must reach the real RNG.
        return getattr(self.inner, name)

    def complete(self, messages, n=1, temperature=1.0):
        time.sleep(self.delay_s * max(1, n))
        return self.inner.complete(messages, n=n, temperature=temperature)


def make_setup(bench_scale, *, delay_s: float, pipeline: bool):
    kwargs = dict(
        rounds=bench_scale["search_rounds"],
        candidates_per_round=bench_scale["search_candidates"],
        seed=SEED,
        # 4x the suite's default request count: the phases being overlapped
        # must dwarf the fixed per-round bookkeeping (and the pipeline's
        # executor hand-offs) for the ratio to be about scheduling rather
        # than overhead.
        workloads=[
            {**ref, "num_requests": 4 * (bench_scale["num_requests"] or 6000)}
            for ref in WORKLOADS
        ],
        reducer="mean",
    )
    probe = build_search("caching", **kwargs)  # a fresh, same-seed client
    setup = build_search(
        "caching", client=SlowClient(probe.client, delay_s), **kwargs
    )
    setup.search.config.pipeline = pipeline
    setup.generator.batch_size = BATCH_SIZE
    return setup


def timed_run(setup):
    start = time.perf_counter()
    result = setup.search.run()
    return result, time.perf_counter() - start


def test_pipeline_overlap_speedup(benchmark, bench_scale, bench_records):
    # Calibrate the client delay against the real evaluation wall per
    # completion, measured by zero-delay serial runs.  Best of two: CPU
    # contention only ever inflates the wall, so the min is the true cost,
    # and calibrating high would shrink the deterministic sleep share that
    # keeps the measured ratio stable.
    calibration, _ = timed_run(make_setup(bench_scale, delay_s=0.0, pipeline=False))
    recal, _ = timed_run(make_setup(bench_scale, delay_s=0.0, pipeline=False))
    eval_s = min(
        sum(r.evaluation_s for r in calibration.rounds),
        sum(r.evaluation_s for r in recal.rounds),
    )
    completions = max(
        1,
        sum(r.generated for r in calibration.rounds)
        + sum(sum(r.failure_codes.values()) for r in calibration.rounds),
    )
    delay_s = CALIBRATION_FACTOR * eval_s / completions

    serial, serial_s = timed_run(make_setup(bench_scale, delay_s=delay_s, pipeline=False))
    (piped, piped_s) = run_once(
        benchmark, timed_run, make_setup(bench_scale, delay_s=delay_s, pipeline=True)
    )
    # Best-of-two walls: the sleeps are deterministic, so a repeat filters
    # CPU-contention spikes out of the evaluation phase.
    _, serial_retry = timed_run(make_setup(bench_scale, delay_s=delay_s, pipeline=False))
    serial_s = min(serial_s, serial_retry)
    _, piped_retry = timed_run(make_setup(bench_scale, delay_s=delay_s, pipeline=True))
    piped_s = min(piped_s, piped_retry)

    # Scheduling only: the pipelined run's results are identical.
    assert search_result_to_dict(piped) == search_result_to_dict(serial)
    overlap_s = sum(r.overlap_s for r in piped.rounds)
    assert overlap_s > 0, "the pipelined run reported no overlapped wall time"

    serial_cps = serial.total_candidates / serial_s
    piped_cps = piped.total_candidates / piped_s
    speedup = piped_cps / serial_cps
    benchmark.extra_info["serial_candidates_per_sec"] = round(serial_cps, 1)
    benchmark.extra_info["pipeline_candidates_per_sec"] = round(piped_cps, 1)
    benchmark.extra_info["pipeline_speedup"] = round(speedup, 2)
    bench_records["pipeline_overlap"] = {
        "serial_candidates_per_sec": round(serial_cps, 1),
        "pipeline_candidates_per_sec": round(piped_cps, 1),
        "speedup": round(speedup, 2),
        "overlap_s": round(overlap_s, 2),
        "client_delay_s": round(delay_s, 4),
    }
    print(
        f"\n[pipeline] serial {serial_cps:.1f} cand/s, "
        f"pipelined {piped_cps:.1f} cand/s = {speedup:.2f}x "
        f"({overlap_s:.2f}s of generation hidden behind evaluation)"
    )
