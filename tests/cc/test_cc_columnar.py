"""Zero-layer CC scoring fast-path tests (:mod:`repro.cc.columnar`).

A kernel bound by ``cc_layout`` must read :class:`CCSignals` exactly like the
classic ``signals_environment`` + ``HistoryView`` path -- same clamping, same
history-index semantics, same errors -- and the layout must return ``None``
for any program outside the Template vocabulary so the controller keeps the
classic path.  Scenario-level decisions must be identical across all three
backend names.

``vectorized`` and ``compiled`` both build the fast scorer, so neither can be
the other's reference: that is :func:`_classic_controller` (the controller's
own scalar ``run(signals_environment(signals))`` branch) or the interpreter.
"""

import pytest

from repro.cc.columnar import cc_layout
from repro.cc.dsl_controller import DslCongestionController
from repro.cc.evaluator import CongestionControlEvaluator
from repro.cc.template import CC_TEMPLATE_PARAMS
from repro.dsl import parse
from repro.dsl.errors import DslError
from repro.dsl.vectorize import VectorizedProgram
from repro.netsim.flow import CCSignals, HistoryInterval

CC_SIG = f"def cong_control({', '.join(CC_TEMPLATE_PARAMS)})"

PROGRAMS = {
    "aimd": f"""{CC_SIG} {{
        new_cwnd = cwnd + 1
        if (losses > 0) {{ new_cwnd = cwnd / 2 }}
        if (new_cwnd < 2) {{ new_cwnd = 2 }}
        return new_cwnd
    }}""",
    "rtt-gated": f"""{CC_SIG} {{
        new_cwnd = cwnd
        if (rtt < min_rtt * 2) {{ new_cwnd = cwnd + acked / mss }}
        if (srtt > min_rtt * 3) {{ new_cwnd = cwnd - 1 }}
        if (new_cwnd < 2) {{ new_cwnd = 2 }}
        return new_cwnd
    }}""",
    "history-heavy": f"""{CC_SIG} {{
        new_cwnd = cwnd + 1
        if (history.length() > 2) {{
            recent = history.delivered_at(0) + history.delivered_at(1)
            if (history.losses_at(0) > 0) {{ new_cwnd = cwnd / 2 }}
            if (history.rtt_at(0) > history.min_rtt() * 2) {{ new_cwnd = cwnd - 1 }}
            if (history.total_losses() > 5) {{ new_cwnd = 2 }}
            if (recent < mss) {{ new_cwnd = new_cwnd + 1 }}
        }}
        if (new_cwnd < 2) {{ new_cwnd = 2 }}
        return new_cwnd
    }}""",
}


def make_signals(cwnd=10, losses=0, rtt=22_000, history=()):
    return CCSignals(
        now_us=1_000_000,
        cwnd_pkts=cwnd,
        mss=1448,
        acked_bytes=1448,
        inflight_pkts=cwnd,
        inflight_bytes=cwnd * 1448,
        rtt_us=rtt,
        min_rtt_us=20_000,
        srtt_us=21_000,
        loss=losses > 0,
        losses_since_last_ack=losses,
        delivered_bytes=1_000_000,
        history=list(history),
    )


_HISTORY = [
    HistoryInterval(delivered_bytes=10_000, avg_rtt_us=25_000, losses=1),
    HistoryInterval(delivered_bytes=0, avg_rtt_us=0, losses=0),  # idle interval
    HistoryInterval(delivered_bytes=20_000, avg_rtt_us=21_000, losses=0),
    HistoryInterval(delivered_bytes=500, avg_rtt_us=40_000, losses=4),
]

_SIGNALS = [
    make_signals(),
    make_signals(cwnd=2, losses=3),
    make_signals(rtt=-5),  # negative rtt must clamp to 0, as the env does
    make_signals(rtt=65_000),
    make_signals(history=_HISTORY),
    make_signals(cwnd=50, losses=1, history=_HISTORY),
    make_signals(history=_HISTORY[:1]),
]


#: The two spellings of a lowered controller; both build the fast scorer.
LOWERED = ("vectorized", "compiled")


def _fast_controller(program, backend, **kwargs):
    ctl = DslCongestionController(program, backend=backend, **kwargs)
    assert ctl.backend == backend
    assert ctl._fast is not None, "expected the zero-layer scorer"
    return ctl


def _classic_controller(program, **kwargs):
    """The same lowering with the fast scorer taken away: every update goes
    through ``runner.run(signals_environment(signals))``, the branch a raising
    fast call falls back to."""
    ctl = DslCongestionController(program, backend="compiled", **kwargs)
    ctl._fast = None
    return ctl


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fast_scorer_matches_classic_controller(name):
    program = parse(PROGRAMS[name])
    controllers = {backend: _fast_controller(program, backend) for backend in LOWERED}
    controllers["classic"] = _classic_controller(program)
    controllers["interpreter"] = DslCongestionController(program, backend="interpreter")
    seen = set()
    for signals in _SIGNALS:
        decisions = {label: ctl.on_ack(signals) for label, ctl in controllers.items()}
        assert len(set(decisions.values())) == 1, decisions
        seen.update(decisions.values())
    assert len(seen) > 1, "signals too uniform to tell a misread field"


def test_fast_scorer_error_matches_classic():
    program = parse(f"{CC_SIG} {{ return cwnd // losses }}")
    signals = make_signals(losses=0)
    classic_ctl = _classic_controller(program, strict=True)
    with pytest.raises(DslError) as classic_exc:
        classic_ctl.on_ack(signals)
    for backend in LOWERED:
        fast_ctl = _fast_controller(program, backend, strict=True)
        with pytest.raises(DslError) as fast_exc:
            fast_ctl.on_ack(signals)
        assert type(fast_exc.value) is type(classic_exc.value)
        assert str(fast_exc.value) == str(classic_exc.value)
        assert fast_ctl.runtime_errors == classic_ctl.runtime_errors == 1


#: Raising updates that read every kind of column the layout serves: a
#: clamped signal, history accessors with a literal and with a signal
#: argument, and the whole-history folds.
RAISING = {
    "clamped-rtt": ("return cwnd / rtt", dict(rtt=-5)),
    "history-literal-index": ("return history.delivered_at(1) // losses", {}),
    "history-signal-index": ("return history.rtt_at(cwnd) % losses", {}),
    "history-folds": (
        "return (history.total_losses() + history.min_rtt() + history.length()) / losses",
        {},
    ),
    "unbound-local": ("if (losses > 0) { x = history.length() }  return x", {}),
}


@pytest.mark.parametrize("name", sorted(RAISING))
def test_fast_scorer_error_matches_classic_whatever_columns_the_update_reads(name):
    body, overrides = RAISING[name]
    program = parse(f"{CC_SIG} {{ {body} }}")
    signals = make_signals(history=_HISTORY, **overrides)
    errors = {}
    for label in (*LOWERED, "classic"):
        if label == "classic":
            strict, lenient = (_classic_controller(program, strict=s) for s in (True, False))
        else:
            strict, lenient = (_fast_controller(program, label, strict=s) for s in (True, False))
        with pytest.raises(DslError) as exc:
            strict.on_ack(signals)
        assert lenient.on_ack(signals) == signals.cwnd_pkts
        assert strict.runtime_errors == lenient.runtime_errors == 1
        errors[label] = (type(exc.value), str(exc.value), strict.last_error, lenient.last_error)
    assert errors["vectorized"] == errors["compiled"] == errors["classic"]


def test_fast_scorer_non_strict_freezes_window_on_error():
    program = parse(f"{CC_SIG} {{ return cwnd // losses }}")
    ctl = DslCongestionController(program, backend="vectorized", strict=False)
    assert ctl.on_ack(make_signals(cwnd=7, losses=0)) == 7
    assert ctl.runtime_errors == 1


def test_build_cc_fast_declines_out_of_vocabulary_columns():
    # ``history.delivered_at(history.length())`` nests a method call as the
    # index argument -- vectorizable programs never produce that shape here,
    # but an expression argument is: it is unvectorizable, so under either
    # spelling the controller reports "compiled" and never builds a fast scorer.
    program = parse(f"{CC_SIG} {{ return cwnd + history.delivered_at(cwnd % 1) }}")
    for backend in LOWERED:
        ctl = DslCongestionController(program, backend=backend)
        assert ctl.backend == "compiled"
        assert ctl._fast is None


def test_fast_scorer_built_for_both_lowered_spellings():
    """What the runner is decides, never the name it was asked by."""
    program = parse(PROGRAMS["aimd"])
    for backend in LOWERED:
        _fast_controller(program, backend)
    oracle = DslCongestionController(program, backend="interpreter")
    assert oracle.backend == "interpreter" and oracle._fast is None


def test_build_cc_fast_literal_history_index_clamps():
    program = parse(f"{CC_SIG} {{ return cwnd + history.losses_at(99) }}")
    fast = VectorizedProgram(program, layout=cc_layout).bound
    # Clamped to the oldest interval when the index overshoots; 0 when empty.
    assert fast(make_signals(cwnd=10, history=_HISTORY)) == 10 + _HISTORY[0].losses
    assert fast(make_signals(cwnd=10)) == 10


def test_scenario_scores_identical_across_backends():
    results = {}
    for backend in ("interpreter", "compiled", "vectorized"):
        evaluator = CongestionControlEvaluator(backend=backend)
        evaluation = evaluator.evaluate(parse(PROGRAMS["history-heavy"]))
        results[backend] = (evaluation.score, tuple(sorted(evaluation.details.items())))
        assert evaluation.backends == {backend: 1}
    assert len(set(results.values())) == 1, results
