"""Picklable evaluators for the distributed-fanout benchmark.

They live outside the test module so both kinds of remote worker can
unpickle them by module path: ``ProcessPoolExecutor`` workers (pickled
through the pool initializer) and ``repro worker`` subprocesses (which
receive the coordinator's ``sys.path`` through ``PYTHONPATH``).
"""

from __future__ import annotations

import os
import time

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.dsl import Interpreter


class SleepyEvaluator(Evaluator):
    """Evaluation-bound stand-in: each unit costs a fixed GIL-releasing sleep.

    The sleep models what makes real searches fan out well -- evaluation
    wall time dominated by simulation, not coordinator CPU -- so the
    benchmark measures scheduling, not interpreter speed, and stays
    meaningful on a single-core runner.
    """

    def __init__(self, sleep_s: float):
        self.sleep_s = sleep_s

    def evaluate_program(self, program):
        time.sleep(self.sleep_s)
        value = Interpreter().run(program, {"x": 1})
        # Who evaluated it: the benchmark asserts where the work ran.
        return EvaluationResult(
            score=float(value), valid=True, details={"pid": float(os.getpid())}
        )


class SleepyCrashOnceEvaluator(SleepyEvaluator):
    """Sleepy evaluator that hard-kills its host process exactly once.

    ``os._exit`` models a SIGKILL/OOM: no exception, no cleanup.  The marker
    file makes the crash one-shot, so the re-dispatched unit succeeds.  A
    process pool is *broken* by this (every queued future fails over to the
    coordinator's serial inline rescue); the spool queue loses one worker,
    reclaims one lease, and keeps its fan-out.
    """

    def __init__(self, sleep_s: float, marker_path: str, trigger_score: float):
        super().__init__(sleep_s)
        self.marker_path = str(marker_path)
        self.trigger_score = trigger_score

    def evaluate_program(self, program):
        result = super().evaluate_program(program)
        if result.score == self.trigger_score and not os.path.exists(self.marker_path):
            with open(self.marker_path, "w", encoding="utf-8") as fh:
                fh.write("crashed once")
            os._exit(1)
        return result
