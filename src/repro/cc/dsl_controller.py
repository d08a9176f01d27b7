"""Run a synthesized DSL program as a flow's congestion controller."""

from __future__ import annotations

from typing import Optional

from repro.cc.columnar import cc_layout
from repro.cc.signals import signals_environment
from repro.cc.template import CC_TEMPLATE_PARAMS
from repro.dsl.ast import Program
from repro.dsl.compile import DEFAULT_BACKEND, make_runner
from repro.dsl.errors import DslError
from repro.dsl.vectorize import VectorizedProgram
from repro.netsim.flow import CCSignals


class DslCongestionController:
    """Adapter: DSL cong_control program -> :class:`CongestionController`.

    The generated function is invoked on both ACK and loss events (losses are
    distinguished by the ``losses`` parameter), mirroring the single
    decision-making callback of the paper's kernel Template.

    ``strict`` controls what happens if the candidate raises at runtime
    (division by zero on a path the checker could not rule out, etc.):
    strict mode re-raises -- used by the Evaluator so broken candidates get a
    failing score -- while non-strict mode freezes the window, which is how a
    deployed fallback would behave.

    ``backend`` is ``"vectorized"`` (default) or its other spelling
    ``"compiled"`` -- the program's kernel compiled as a function of the
    signals object by :mod:`repro.cc.columnar`, which skips the environment
    dict and :class:`HistoryView` construction entirely -- or
    ``"interpreter"`` (the tree-walking oracle).  A program that cannot bind
    a kernel falls back to the scalar callable behind the classic
    environment, then the interpreter; cwnd decisions are bit-identical.
    """

    def __init__(
        self,
        program: Program,
        initial_window: int = 10,
        max_steps: int = 20_000,
        strict: bool = True,
        backend: str = DEFAULT_BACKEND,
    ):
        if list(program.params) != list(CC_TEMPLATE_PARAMS):
            raise ValueError(
                f"cong_control program must have parameters {list(CC_TEMPLATE_PARAMS)}, "
                f"got {list(program.params)}"
            )
        self.program = program
        self.initial_window = initial_window
        self.strict = strict
        self._runner, self.backend = make_runner(program, backend, max_steps, cc_layout)
        self._fast = self._runner.bound._fn if isinstance(self._runner, VectorizedProgram) else None
        self.invocations = 0
        self.runtime_errors = 0
        self.last_error: Optional[str] = None

    # -- CongestionController protocol -----------------------------------------------

    def initial_cwnd(self) -> int:
        return self.initial_window

    def _invoke(self, signals: CCSignals) -> int:
        self.invocations += 1
        value = None  # no program returns it: falling off the end returns 0
        if self._fast is not None:
            try:
                value = self._fast(signals)
            except Exception:
                # Re-run through the classic path below so the error
                # surfaces with its usual normalised type and message.
                pass
        if value is None:
            try:
                value = self._runner.run(signals_environment(signals))
            except DslError as exc:
                self.runtime_errors += 1
                self.last_error = str(exc)
                if self.strict:
                    raise
                return signals.cwnd_pkts
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.runtime_errors += 1
            self.last_error = f"non-numeric cwnd {value!r}"
            if self.strict:
                raise TypeError(self.last_error)
            return signals.cwnd_pkts
        return int(value)

    def on_ack(self, signals: CCSignals) -> int:
        return self._invoke(signals)

    def on_loss(self, signals: CCSignals) -> int:
        return self._invoke(signals)
