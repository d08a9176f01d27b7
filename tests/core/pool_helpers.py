"""Picklable evaluators for the process-pool executor tests.

These live in their own module (not the test file) so pool workers can
unpickle them by module path whatever the multiprocessing start method.
"""

import os
import time

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.dsl import Interpreter


class InterpEvaluator(Evaluator):
    """Deterministic toy evaluator: runs the program with ``x = 1``.

    ``details["pid"]`` records which process evaluated it, so a test can
    tell a worker's result from one the coordinator computed inline.
    """

    def evaluate_program(self, program):
        value = Interpreter().run(program, {"x": 1})
        return EvaluationResult(
            score=float(value), valid=True, details={"pid": float(os.getpid())}
        )


class HangingEvaluator(InterpEvaluator):
    """Hangs on the trigger until the release file appears (at most a minute),
    so a test can outwait a timeout without leaving a worker asleep."""

    def __init__(self, release_path, trigger_score):
        self.release_path = str(release_path)
        self.trigger_score = trigger_score

    def evaluate_program(self, program):
        result = super().evaluate_program(program)
        deadline = time.monotonic() + 60.0
        while result.score == self.trigger_score and time.monotonic() < deadline:
            if os.path.exists(self.release_path):
                break
            time.sleep(0.01)
        return result


class CrashOnceEvaluator(InterpEvaluator):
    """Hard-kills its worker process the first time it sees the trigger.

    ``os._exit`` models a SIGKILL/OOM from inside: no exception propagates
    and no result is sent back.  The marker file makes the crash one-shot,
    so the unit succeeds when it is evaluated again.
    """

    def __init__(self, marker_path, trigger_score):
        self.marker_path = str(marker_path)
        self.trigger_score = trigger_score

    def evaluate_program(self, program):
        result = super().evaluate_program(program)
        if result.score == self.trigger_score and not os.path.exists(self.marker_path):
            with open(self.marker_path, "w", encoding="utf-8") as fh:
                fh.write("crashed once")
            os._exit(1)
        return result
