"""Experiment-harness tests on reduced corpora / candidate counts.

These tests verify the harness mechanics and the qualitative *shape* of the
paper's results (see EXPERIMENTS.md), each at the smallest scale that keeps
its shape meaningful; ``repro run <experiment>`` runs the paper-scale versions.
"""

import json
import os

import pytest

from repro.cache.policies.evolved import EVOLVED_HEURISTICS, LFU_SEED_SOURCE, LRU_SEED_SOURCE
from repro.cache.policies.fifo import FIFOCache
from repro.core import engine
from repro.core.executors import ProcessExecutor
from repro.experiments.ablations import run_ablations
from repro.experiments.cc_behaviour import format_behaviour, run_cc_behaviour
from repro.experiments.cc_compilation import format_compilation, run_cc_compilation
from repro.experiments.corpus import evaluate_corpus
from repro.experiments.cost_accounting import format_cost_report, run_cost_accounting
from repro.experiments.figure2 import (
    figure2_from_evaluation,
    figure2_payload,
    format_figure2,
    render_figure2,
)
from repro.experiments.registry import (
    available_experiments,
    get_experiment,
    merge_params,
    run_experiment,
)
from repro.experiments.search_caching import run_search_experiment
from repro.experiments.table2 import format_table2, table2_from_evaluation


@pytest.fixture(scope="module")
def small_cloudphysics_evaluation():
    """8 CloudPhysics-like traces with shortened requests: shared by tests."""
    return evaluate_corpus("cloudphysics", trace_count=8, num_requests=2500)


def test_corpus_evaluation_structure(small_cloudphysics_evaluation):
    evaluation = small_cloudphysics_evaluation
    assert len(evaluation.traces()) == 8
    assert len(evaluation.baseline_names) == 14
    assert len(evaluation.heuristic_names) == 4
    for trace, per_policy in evaluation.results.items():
        assert "FIFO" in per_policy
        for result in per_policy.values():
            assert result.trace == trace
            assert 0 < result.miss_ratio <= 1


def _corpus_miss_ratios(heuristics):
    evaluation = evaluate_corpus(
        "cloudphysics",
        trace_count=2,
        num_requests=800,
        baselines={"FIFO": FIFOCache},
        heuristics=heuristics,
    )
    assert evaluation.heuristic_names == list(heuristics)
    return {
        (trace, name): result.miss_ratio
        for trace, per_policy in evaluation.results.items()
        for name, result in per_policy.items()
        if name in heuristics
    }


def test_corpus_evaluates_an_unshipped_heuristic_from_its_source():
    ratios = _corpus_miss_ratios({"Heuristic Q": LRU_SEED_SOURCE})
    assert len(ratios) == 2 and all(0 < ratio < 1 for ratio in ratios.values())


def test_corpus_scores_the_source_it_is_given_under_a_shipped_name():
    def under(name, source):
        ratios = _corpus_miss_ratios({name: source})
        return {trace: ratio for (trace, _name), ratio in ratios.items()}

    given = under("Heuristic A", LFU_SEED_SOURCE)
    assert given == under("LFU seed", LFU_SEED_SOURCE)
    assert given != under("Heuristic A", EVOLVED_HEURISTICS["Heuristic A"])


def _assert_oracles_dominate(figure):
    b_oracle = figure.row("B-Oracle")
    ps_oracle = figure.row("PS-Oracle")
    # Oracles dominate: per trace they pick the best candidate.
    for row in figure.rows:
        if row.kind == "baseline":
            assert b_oracle.mean_improvement >= row.mean_improvement - 1e-9
    assert ps_oracle.mean_improvement >= b_oracle.mean_improvement - 1e-9


def _assert_best_heuristic_rivals_the_best_baseline(figure):
    best = {
        kind: max(row.mean_improvement for row in figure.rows if row.kind == kind)
        for kind in ("heuristic", "baseline")
    }
    assert best["heuristic"] >= best["baseline"] - 0.05


def test_figure2_shape(small_cloudphysics_evaluation):
    figure = figure2_from_evaluation(small_cloudphysics_evaluation)
    policies = {row.policy for row in figure.rows}
    assert {"GDSF", "FIFO", "Heuristic A", "B-Oracle", "PS-Oracle"} <= policies

    fifo = figure.row("FIFO")
    assert fifo.mean_improvement == pytest.approx(0.0)

    _assert_oracles_dominate(figure)

    # The strongest synthesized heuristics sit near the top of the ordering
    # (the paper: second only to GDSF on average).
    ordered = [row.policy for row in figure.ordered_rows()]
    top_half = ordered[len(ordered) // 2 :]
    assert any(name.startswith("Heuristic") for name in top_half)

    text = format_figure2(figure, top_baselines=5)
    assert "Figure 2" in text and "GDSF" in text


def test_figure2_best_heuristic_rivals_the_best_baseline(small_cloudphysics_evaluation):
    """The best synthesized heuristic's mean improvement over FIFO is within
    0.05 of the best baseline's."""
    _assert_best_heuristic_rivals_the_best_baseline(
        figure2_from_evaluation(small_cloudphysics_evaluation)
    )


def test_figure2_json_roundtrip(small_cloudphysics_evaluation):
    import json

    figure = figure2_from_evaluation(small_cloudphysics_evaluation)
    payload = json.loads(figure.to_json())
    assert payload["dataset"] == "cloudphysics"
    assert len(payload["rows"]) == len(figure.rows)


def test_table2_shape(small_cloudphysics_evaluation):
    entries = table2_from_evaluation(small_cloudphysics_evaluation)
    assert len(entries) == 4
    for entry in entries:
        assert 0 <= entry.wins <= entry.traces == 8
        assert 0.0 <= entry.win_fraction <= 1.0
    # At least one synthesized heuristic wins on a substantial share of
    # traces (the paper reports 14-48 % for CloudPhysics).
    assert max(entry.win_fraction for entry in entries) >= 0.25
    assert "Table 2" in format_table2(entries)


@pytest.fixture(scope="module")
def small_msr_evaluation():
    """4 MSR-like traces with shortened requests: shared by the MSR tests."""
    return evaluate_corpus("msr", trace_count=4, num_requests=1500)


def test_figure2_shape_on_msr(small_msr_evaluation):
    figure = figure2_from_evaluation(small_msr_evaluation)
    _assert_oracles_dominate(figure)
    _assert_best_heuristic_rivals_the_best_baseline(figure)


def test_table2_shape_on_msr(small_msr_evaluation):
    entries = table2_from_evaluation(small_msr_evaluation)
    assert len(entries) == 4
    assert max(entry.win_fraction for entry in entries) >= 0.25


def test_search_on_context_trace_w89_matches_the_best_baseline():
    """§4.2.3: the synthesized heuristic lands within 5 % of the best
    baseline on its own context trace, and beats FIFO there."""
    result = run_search_experiment(
        dataset="cloudphysics",
        trace_index=89,
        rounds=3,
        candidates_per_round=10,
        seed=1,
        num_requests=2500,
    )
    assert result.heuristic_miss_ratio <= result.best_baseline_miss_ratio * 1.05
    assert result.improvement_over_fifo > 0
    assert result.search.prompt_tokens > 0


def test_ablations_keep_a_usable_heuristic_and_full_is_not_the_worst():
    results = run_ablations(trace_index=89, num_requests=1500, rounds=2, candidates_per_round=8)
    miss_ratios = {result.name: result.best_miss_ratio for result in results}
    assert set(miss_ratios) == {"full", "no-parent-feedback", "no-repair", "object-features-only"}
    assert all(0 < ratio < 1 for ratio in miss_ratios.values())
    full = miss_ratios.pop("full")
    assert full <= max(miss_ratios.values())


def test_cc_compilation_rates_match_paper_shape():
    reports = run_cc_compilation(num_candidates=60, seed=11, include_caching=True)
    by_name = {report.template: report for report in reports}
    kernel = by_name["cong-control"]
    caching = by_name["cache-priority"]
    # Kernel-constrained generation passes much less often on the first try
    # than caching generation (paper: 63 % vs 92 %)...
    assert kernel.first_pass_rate < caching.first_pass_rate
    assert 0.4 <= kernel.first_pass_rate <= 0.85
    assert caching.first_pass_rate >= 0.8
    # ...and checker feedback repairs a meaningful share of the rejects.
    assert kernel.repaired_rate > 0.05
    assert kernel.first_pass + kernel.repaired + kernel.failed == kernel.candidates
    # Dominant failure causes are the ones the paper names.
    assert set(kernel.failure_codes) & {"float-arith", "div-by-zero"}
    assert "first pass" in format_compilation(reports)


def test_cc_behaviour_spread():
    report = run_cc_behaviour(num_candidates=12, seed=23, duration_s=2.0)
    assert len(report.candidates) >= 8
    util_lo, util_hi = report.utilization_range()
    delay_lo, delay_hi = report.delay_range_ms()
    # Wide behavioural diversity, as in §5.0.3 (23-98 % util, 2-40 ms delay).
    assert util_hi - util_lo > 0.3
    assert 0 <= delay_lo <= delay_hi <= 60
    assert report.baselines and report.baselines[0].utilization > 0.8
    assert "bandwidth utilisation" in format_behaviour(report)


def test_cost_accounting_report():
    report = run_cost_accounting(trace_indices=[89], rounds=1, candidates_per_round=4,
                                 num_requests=1200)
    assert report.runs == 1
    assert report.prompt_tokens > 0
    assert report.completion_tokens > 0
    assert report.total_cost_usd > 0
    assert report.evaluation_cpu_seconds > 0
    text = format_cost_report(report)
    assert "TOTAL" in text and "CPU-hours" in text


def test_cost_accounting_counts_the_pool_workers_cpu(monkeypatch):
    """On a multi-core box the evaluation runs in pool workers; their CPU
    time is counted, so the report reads about what the in-process run does
    (the coordinator alone spends a small fraction of it)."""
    pools = []
    make_pool = ProcessExecutor._make_pool
    monkeypatch.setattr(
        ProcessExecutor, "_make_pool", lambda self: pools.append(self) or make_pool(self)
    )

    monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda: None)

    def cpu_seconds_on(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
        report = run_cost_accounting(
            trace_indices=[89], rounds=2, candidates_per_round=6, num_requests=3000
        )
        return report.evaluation_cpu_seconds

    serial = cpu_seconds_on(1)
    assert pools == []
    pooled = cpu_seconds_on(2)
    assert len(pools) == 1
    assert 0.5 * serial <= pooled <= 3 * serial


# -- the experiment registry --------------------------------------------------------


def test_all_seven_experiments_registered():
    assert available_experiments() == [
        "ablations",
        "caching-search",
        "cc-behaviour",
        "cc-compilation",
        "cost-accounting",
        "figure2",
        "table2",
    ]


def test_merge_params_rejects_unknown_keys():
    experiment = get_experiment("table2")
    with pytest.raises(ValueError, match="no parameter"):
        merge_params(experiment, {"bogus": 1})
    merged = merge_params(experiment, {"traces": 3})
    assert merged["traces"] == 3
    assert merged["dataset"] == "both"


def test_renderers_are_pure_reducers(small_cloudphysics_evaluation):
    """render(payload) must survive a JSON round-trip byte-identically --
    that is the contract `repro report` relies on."""
    payload = figure2_payload(
        figure2_from_evaluation(small_cloudphysics_evaluation), top_baselines=5
    )
    rendered = render_figure2(payload)
    rendered_from_disk_form = render_figure2(json.loads(json.dumps(payload)))
    assert rendered == rendered_from_disk_form
    assert "Figure 2" in rendered


def test_cost_accounting_accepts_scalar_trace_index():
    payload = run_experiment(
        "cost-accounting", traces=89, rounds=1, candidates=3, requests=800
    )
    assert len(payload["per_run"]) == 1
    assert "w89" in payload["per_run"][0]["name"]


def test_run_experiment_end_to_end():
    payload = run_experiment("cc-compilation", candidates=30)
    experiment = get_experiment("cc-compilation")
    text = experiment.renderer(payload)
    assert "first pass" in text
    assert payload["kind"] == "cc-compilation"
    json.dumps(payload)  # payloads must be JSON-serializable
