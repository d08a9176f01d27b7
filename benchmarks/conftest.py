"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables or figures (DESIGN.md
§3 maps them).  They are macro-benchmarks -- entire experiments, not
micro-kernels -- so every benchmark runs exactly once per invocation
(``pedantic`` with one round); the interesting output is the experiment's
qualitative result (asserted) and the wall-clock cost (reported by
pytest-benchmark).

Scale knobs: the benchmarks run on reduced corpora / candidate counts so the
whole suite finishes in a few minutes.  Pass ``--bench-full`` (or set
``REPRO_BENCH_FULL=1``) to run the paper-scale versions (full 105-trace
CloudPhysics corpus, 100 candidates, 20x25 search).  The scale a run used is
recorded as ``bench_full`` in BENCH_engine.json so a regression comparison
knows whether the two files are even comparable
(``check_regression.py`` warns when the scales differ).

The tracked ``BENCH_engine.json`` at the repo root is rewritten only under
``--bench-record`` (the nightly job passes it); any other run writes the same
file into the pytest tmp dir, so the test suite leaves the checkout clean.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-full",
        action="store_true",
        default=False,
        help="run the paper-scale benchmark suite and mark the resulting "
        "BENCH_engine.json with bench_full=true (equivalent to "
        "REPRO_BENCH_FULL=1)",
    )
    parser.addoption(
        "--bench-record",
        action="store_true",
        default=False,
        help="write the headline numbers to the tracked BENCH_engine.json at "
        "the repo root instead of the pytest tmp dir",
    )


def pytest_configure(config):
    global FULL
    if config.getoption("--bench-full", default=False):
        FULL = True
        # Keep the env var in sync for anything spawned by the benchmarks.
        os.environ["REPRO_BENCH_FULL"] = "1"

#: The tracked perf trajectory: headline numbers (req/s, candidates/s, hit
#: rates) of whichever benchmarks ran under ``--bench-record``.
BENCH_RECORDS_FILE = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


@pytest.fixture(scope="session")
def bench_records(request, tmp_path_factory):
    """Mutable record sink; benchmarks drop their headline numbers here and
    the session writes them out on exit."""
    records: dict = {}
    yield records
    if not records:
        return
    if request.config.getoption("--bench-record"):
        target = BENCH_RECORDS_FILE
    else:
        target = tmp_path_factory.getbasetemp() / BENCH_RECORDS_FILE.name
    payload = dict(sorted(records.items()))
    payload["bench_full"] = FULL
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    """Experiment sizes for the benchmark suite (reduced unless REPRO_BENCH_FULL=1)."""
    if FULL:
        return {
            "cloudphysics_traces": None,      # all 105
            "msr_traces": None,               # all 14
            "num_requests": None,             # dataset defaults
            "search_rounds": 20,
            "search_candidates": 25,
            "cc_candidates": 100,
            "cc_behaviour_candidates": 50,
            "cc_duration_s": 8.0,
        }
    return {
        "cloudphysics_traces": 10,
        "msr_traces": 6,
        "num_requests": 2500,
        "search_rounds": 3,
        "search_candidates": 10,
        "cc_candidates": 60,
        "cc_behaviour_candidates": 12,
        "cc_duration_s": 2.0,
    }


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Every ``CachingEvaluator.evaluate_program`` call made while the test
    runs, as the length of the trace it simulated (a ladder rung's prefix is
    shorter than the full trace)."""
    from repro.cache.search import CachingEvaluator

    calls: list = []
    evaluate_program = CachingEvaluator.evaluate_program

    def counting(evaluator, program):
        calls.append(len(evaluator.trace))
        return evaluate_program(evaluator, program)

    monkeypatch.setattr(CachingEvaluator, "evaluate_program", counting)
    return calls
