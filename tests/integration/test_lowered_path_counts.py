"""Count-based gate: a run pinned to ``compiled`` takes the fast loops.

No wall-clock: counting wrappers around the two places a hot loop is chosen.
In caching, every simulation ``fused_cache_run`` takes or declines and every
``PriorityFunctionCache.lookup`` (one per request of the classic loop body,
none on the fused path); in cc, every call of a controller's fast scorer and
every ``signals_environment`` built.  Only a program that fell back to the
interpreter may cost a classic loop or an environment.
"""

from __future__ import annotations

from pathlib import Path

from repro.cache import columnar
from repro.cache.priority_cache import PriorityFunctionCache
from repro.cc import dsl_controller, evaluator as cc_evaluator
from repro.cc.dsl_controller import DslCongestionController
from repro.core.spec import RunSpec, run
from repro.dsl import parse

from tests.cc.test_cc_columnar import CC_SIG, PROGRAMS, make_signals

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


def test_a_caching_search_pinned_to_compiled_simulates_on_the_fused_loop(monkeypatch, tmp_path):
    taken, declined, looked_up = [], [], []  # the policies, so no id is reused
    fused_cache_run = columnar.fused_cache_run
    lookup = PriorityFunctionCache.lookup

    def counting_run(simulator, policy, trace, warmup=0):
        result = fused_cache_run(simulator, policy, trace, warmup)
        (declined if result is None else taken).append(policy)
        return result

    def counting_lookup(policy, request):
        if not looked_up or looked_up[-1] is not policy:
            looked_up.append(policy)
        return lookup(policy, request)

    monkeypatch.setattr(columnar, "fused_cache_run", counting_run)
    monkeypatch.setattr(PriorityFunctionCache, "lookup", counting_lookup)

    # Seed 3 writes two loop-bearing candidates in 5 x 12: the fallbacks.
    data = RunSpec.from_file(SPECS / "smoke_caching.json").to_dict()
    data["domain_kwargs"]["trace"]["num_requests"] = 300
    data["search"] = {"rounds": 5, "candidates_per_round": 12}
    data["engine"] = {"dsl_backend": "compiled", "executor": "serial"}
    data["seed"] = 3
    outcome = run(RunSpec.from_dict(data), store=tmp_path, eval_store=None)

    resolved = outcome.setup.engine.backends
    assert set(resolved) == {"compiled", "interpreter"}
    assert len(taken) == resolved["compiled"] > resolved["interpreter"] == len(declined) > 0
    assert all(policy._priority.backend == "interpreter" for policy in declined)
    # The classic loop body ran for the fallbacks, one after the other, only.
    assert [id(policy) for policy in looked_up] == [id(policy) for policy in declined]


def test_a_cc_controller_pinned_to_compiled_updates_on_the_fast_scorer(monkeypatch):
    fast_calls, environments, controllers = [], [], []
    signals_environment = dsl_controller.signals_environment

    def counting_environment(signals):
        environments.append(signals)
        return signals_environment(signals)

    class Counting(DslCongestionController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fast = self._fast
            assert fast is not None, "a compiled controller builds the fast scorer"

            def counted(signals):
                fast_calls.append(signals)
                return fast(signals)

            self._fast = counted
            controllers.append(self)

    monkeypatch.setattr(dsl_controller, "signals_environment", counting_environment)
    monkeypatch.setattr(cc_evaluator, "DslCongestionController", Counting)

    evaluation = cc_evaluator.CongestionControlEvaluator(backend="compiled").evaluate(
        parse(PROGRAMS["history-heavy"])
    )
    assert evaluation.valid
    updates = sum(controller.invocations for controller in controllers)
    assert len(fast_calls) == updates > 0
    assert environments == []

    # A raising update is re-run behind the classic environment, once, for
    # the error's usual type and message; the next good one is fast again.
    lenient = Counting(parse(f"{CC_SIG} {{ return cwnd // losses }}"), strict=False, backend="compiled")
    del fast_calls[:]
    sequence = [make_signals(losses=0), make_signals(losses=2), make_signals(losses=0)]
    assert [lenient.on_ack(signals) for signals in sequence] == [10, 5, 10]
    assert len(fast_calls) == 3
    assert environments == [sequence[0], sequence[2]]
    assert lenient.runtime_errors == 2
