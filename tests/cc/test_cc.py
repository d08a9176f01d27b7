"""Congestion-control case-study tests: kernel checker, DSL controller,
baselines, evaluator and template."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cc.dsl_controller import DslCongestionController
from repro.cc.evaluator import CongestionControlEvaluator, default_cc_simulation_config
from repro.cc.kernel_constraints import KernelConstraintChecker, KernelRuleChecker
from repro.cc.policies import CubicController, FixedWindowController, RenoController
from repro.cc.signals import HistoryView, signals_environment
from repro.cc.template import (
    CC_TEMPLATE_PARAMS,
    cc_archetypes,
    cc_seed_programs,
    cc_template,
)
from repro.dsl import parse
from repro.dsl.errors import DslRuntimeError
from repro.netsim.flow import CCSignals, HistoryInterval

REPO_ROOT = Path(__file__).resolve().parents[2]
CC_SIG = f"def cong_control({', '.join(CC_TEMPLATE_PARAMS)})"


def make_signals(cwnd=10, loss=False, losses=0, history=()):
    return CCSignals(
        now_us=1_000_000,
        cwnd_pkts=cwnd,
        mss=1448,
        acked_bytes=0 if loss else 1448,
        inflight_pkts=cwnd,
        inflight_bytes=cwnd * 1448,
        rtt_us=22_000,
        min_rtt_us=20_000,
        srtt_us=21_000,
        loss=loss,
        losses_since_last_ack=losses,
        delivered_bytes=1_000_000,
        history=list(history),
    )


# -- kernel-constraint checker -----------------------------------------------------------


def test_kernel_checker_accepts_seeds_and_archetypes():
    template = cc_template()
    checker = KernelConstraintChecker(template)
    for source in template.seeds_as_source() + cc_archetypes():
        result = checker.check(source)
        assert result.ok, result.feedback


@pytest.mark.parametrize(
    "body,expected_code",
    [
        ("return cwnd + 0.5", "float-arith"),
        ("return cwnd / 2", "float-arith"),
        ("return cwnd // losses", "div-by-zero"),
        ("return acked % inflight", "div-by-zero"),
        ("while (cwnd > 2) { cwnd -= 1 }\n    return cwnd", "unbounded-loop"),
        ("for (i in range(cwnd)) { cwnd -= 1 }\n    return cwnd", "unbounded-loop"),
    ],
)
def test_kernel_checker_rejects_violations(body, expected_code):
    checker = KernelRuleChecker()
    result = checker.check(f"{CC_SIG} {{\n    {body}\n}}")
    assert not result.ok
    assert expected_code in [issue.code for issue in result.issues]


def test_kernel_checker_accepts_guarded_division_and_bounded_loops():
    checker = KernelRuleChecker()
    good = f"""{CC_SIG} {{
    new_cwnd = (cwnd * 7) // 10
    new_cwnd += acked // max(1, mss)
    for (i in range(4)) {{
        new_cwnd += history.losses_at(i)
    }}
    return max(2, new_cwnd)
}}"""
    result = checker.check(good)
    assert result.ok, result.feedback


def test_kernel_checker_reports_syntax_errors_as_build_failures():
    checker = KernelRuleChecker()
    result = checker.check(f"{CC_SIG} {{ return cwnd + }}")
    assert not result.ok
    assert result.issues[0].code == "syntax-error"


def test_kernel_checker_complexity_budget():
    checker = KernelRuleChecker(max_nodes=10)
    source = f"{CC_SIG} {{ return cwnd + cwnd + cwnd + cwnd + cwnd + cwnd }}"
    assert "too-complex" in [i.code for i in checker.check(source).issues]


def test_full_kernel_checker_also_runs_structural_rules():
    template = cc_template()
    checker = KernelConstraintChecker(template)
    result = checker.check(f"{CC_SIG} {{ return undefined_thing }}")
    assert "unknown-name" in result.issue_codes()


# -- HistoryView and signal environment -----------------------------------------------------


def test_history_view_index_clamping_and_aggregates():
    intervals = [
        HistoryInterval(delivered_bytes=1000, avg_rtt_us=20_000, losses=0),
        HistoryInterval(delivered_bytes=2000, avg_rtt_us=25_000, losses=1),
        HistoryInterval(delivered_bytes=3000, avg_rtt_us=30_000, losses=2),
    ]
    view = HistoryView(intervals)
    assert view.length() == 3
    assert view.delivered_at(0) == 3000          # most recent first
    assert view.delivered_at(2) == 1000
    assert view.delivered_at(99) == 1000         # clamped, never out of range
    assert view.rtt_at(-5) == 30_000
    assert view.total_losses() == 3
    assert view.min_rtt() == 20_000


def test_history_view_empty_is_safe():
    view = HistoryView([])
    assert view.length() == 0
    assert view.delivered_at(0) == 0
    assert view.min_rtt() == 0


def test_history_view_rejects_non_numeric_index():
    view = HistoryView([HistoryInterval(1, 2, 3)])
    with pytest.raises(DslRuntimeError):
        view.delivered_at("latest")


def test_signals_environment_matches_template_params():
    signals = make_signals(history=[HistoryInterval(500, 21_000, 0)])
    env = signals_environment(signals)
    for param in CC_TEMPLATE_PARAMS:
        assert param in env
    assert env["cwnd"] == 10
    assert isinstance(env["history"], HistoryView)


# -- DslCongestionController ------------------------------------------------------------------


def test_dsl_controller_signature_validation():
    with pytest.raises(ValueError):
        DslCongestionController(parse("def cong_control(cwnd) { return cwnd }"))


def test_dsl_controller_runs_aimd_seed():
    aimd = cc_seed_programs()[0]
    controller = DslCongestionController(aimd, initial_window=10)
    assert controller.initial_cwnd() == 10
    assert controller.on_ack(make_signals(cwnd=10)) == 11
    assert controller.on_loss(make_signals(cwnd=10, loss=True, losses=1)) == 5
    assert controller.invocations == 2


def test_dsl_controller_strict_mode_raises_on_runtime_error():
    bad = parse(f"{CC_SIG} {{ return cwnd // losses }}")
    strict = DslCongestionController(bad, strict=True)
    with pytest.raises(DslRuntimeError):
        strict.on_ack(make_signals(losses=0))
    lenient = DslCongestionController(bad, strict=False)
    assert lenient.on_ack(make_signals(cwnd=17, losses=0)) == 17
    assert lenient.runtime_errors == 1


# -- baseline controllers -----------------------------------------------------------------------


def test_reno_slow_start_and_loss_reaction():
    reno = RenoController(initial_window=4, ssthresh=8)
    assert reno.on_ack(make_signals(cwnd=4)) == 5          # slow start
    assert reno.on_loss(make_signals(cwnd=20, loss=True)) == 10
    assert reno.ssthresh == 10


def test_cubic_reduces_on_loss_by_beta():
    cubic = CubicController()
    assert cubic.on_loss(make_signals(cwnd=100, loss=True)) == 70


def test_fixed_window_controller_validation():
    with pytest.raises(ValueError):
        FixedWindowController(0)


# -- evaluator -----------------------------------------------------------------------------------


def test_cc_evaluator_prefers_good_controllers():
    evaluator = CongestionControlEvaluator(default_cc_simulation_config(duration_s=2.0))
    # A window close to the bandwidth-delay product fills the link without
    # building a queue; a 2-packet window leaves it mostly idle.
    bdp_sized = parse(f"{CC_SIG} {{ return 20 }}")
    tiny = parse(f"{CC_SIG} {{ return 2 }}")
    good = evaluator.evaluate(bdp_sized)
    poor = evaluator.evaluate(tiny)
    assert good.valid and poor.valid
    assert 0 <= poor.details["utilization"] < good.details["utilization"] <= 1
    assert good.score > poor.score
    # The seed programs must also evaluate cleanly.
    for seed in cc_seed_programs():
        assert evaluator.evaluate(seed).valid


def test_cc_evaluator_marks_crashing_candidates_invalid():
    evaluator = CongestionControlEvaluator(default_cc_simulation_config(duration_s=1.0))
    crashing = parse(f"{CC_SIG} {{ return cwnd // losses }}")
    result = evaluator.evaluate(crashing)
    assert not result.valid
    assert result.score == evaluator.failure_score


def test_template_constraints_mention_kernel_rules():
    template = cc_template()
    text = " ".join(template.constraints).lower()
    assert "floating-point" in text
    assert "division" in text
    assert "loops" in text
    assert len(template.seed_programs) == 2


def test_a_cc_run_never_imports_numpy():
    """The trace generators import numpy; a cc run builds no trace."""
    script = (
        "import sys\n"
        "from repro.core import RunSpec, run\n"
        "run(RunSpec.from_dict({'domain': 'cc', 'name': 'tiny-cc', 'checkpoint': False,\n"
        "    'domain_kwargs': {'duration_s': 0.5},\n"
        "    'search': {'rounds': 1, 'candidates_per_round': 2}}))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
