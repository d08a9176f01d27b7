"""Multi-fidelity scheduler benchmark: successive halving vs full fidelity.

The fidelity ladder exists to stop paying full evaluation budget for
candidates the search is about to discard.  This benchmark runs the same
fixed-seed caching search twice -- once ladder-disabled, once under a 3-rung
``screen``-mode ladder -- and gates what the ladder is for, by counts: fewer
full-trace simulations *at equal final quality* (same best candidate, same
full-fidelity best score), with eliminations really taken.  Candidates per
second on both sides and their ratio are printed and recorded, not gated:
they divide by the cost of an evaluation on this box.
"""

from __future__ import annotations

import time

from repro.core.spec import RunSpec, run

from benchmarks.conftest import run_once

LADDER = {"rungs": [0.1, 0.3, 1.0], "eta": 3.0, "min_keep": 3}


def fidelity_spec(bench_scale, ladder=None) -> RunSpec:
    requests = bench_scale["num_requests"] or 6000
    return RunSpec(
        domain="caching",
        name="fidelity-bench",
        domain_kwargs={
            "workloads": [
                {"name": "caching/zipf-hot", "num_requests": requests},
                {"name": "caching/scan-storm", "num_requests": requests},
            ],
            "reducer": "mean",
        },
        search={
            "rounds": bench_scale["search_rounds"],
            "candidates_per_round": bench_scale["search_candidates"],
        },
        fidelity=ladder,
        engine={"max_workers": 1},  # evaluator_calls counts in-process calls
    )


def test_fidelity_ladder_speedup(benchmark, bench_scale, bench_records, evaluator_calls):
    def timed(spec):
        start = time.perf_counter()
        outcome = run(spec, eval_store=None)
        return outcome, time.perf_counter() - start

    full, full_s = timed(fidelity_spec(bench_scale))
    full_calls = list(evaluator_calls)
    del evaluator_calls[:]
    ladder, ladder_s = run_once(
        benchmark, timed, fidelity_spec(bench_scale, ladder=LADDER)
    )

    # What the ladder saves: simulations of the whole trace.  Without it
    # every call is one; with it the eliminated candidates only ever ran a
    # prefix.
    full_length = max(full_calls)
    assert set(full_calls) == {full_length}
    at_full = evaluator_calls.count(full_length)
    assert 0 < at_full < len(full_calls)
    assert len(evaluator_calls) > at_full

    # Equal final quality: the ladder promoted the true winner all the way
    # up, so the best candidate and its (full-fidelity) score are identical.
    assert full.result.best is not None and ladder.result.best is not None
    assert (
        ladder.result.best.candidate.candidate_id
        == full.result.best.candidate.candidate_id
    )
    assert ladder.result.best.score == full.result.best.score
    assert ladder.result.best.evaluation.full_fidelity

    # The ladder really screened work out rather than re-labelling it (one
    # elimination decision can cover a whole dedup group, so the candidate
    # count is at least the decision count).
    engine = ladder.setup.engine
    assert engine.totals.rung_eliminations > 0
    screened = sum(
        1
        for c in ladder.result.candidates
        if c.evaluation is not None and not c.evaluation.full_fidelity
    )
    assert screened >= engine.totals.rung_eliminations

    total = full.result.total_candidates
    full_cps = total / full_s
    ladder_cps = ladder.result.total_candidates / ladder_s
    speedup = ladder_cps / full_cps
    benchmark.extra_info["full_candidates_per_sec"] = round(full_cps, 1)
    benchmark.extra_info["ladder_candidates_per_sec"] = round(ladder_cps, 1)
    benchmark.extra_info["ladder_speedup"] = round(speedup, 2)
    bench_records["fidelity_ladder"] = {
        "full_candidates_per_sec": round(full_cps, 1),
        "ladder_candidates_per_sec": round(ladder_cps, 1),
        "speedup": round(speedup, 2),
        "screened_out": screened,
        "rungs": LADDER["rungs"],
    }
    print(
        f"\n[fidelity] full {full_cps:.1f} cand/s, "
        f"3-rung ladder {ladder_cps:.1f} cand/s = {speedup:.2f}x "
        f"({screened}/{total} candidates stopped at a cheap rung; "
        f"{at_full} full-trace simulations against {len(full_calls)})"
    )
