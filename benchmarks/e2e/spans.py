"""Timing wrappers around each layer's public entry points, kept in memory.

The benchmark owns its tracing: nothing under ``src/`` is edited.  A traced
run installs a wrapper around every entry point in :data:`TARGETS`, each of
which records one span (layer, start, end, the span that caused it) and the
counters measured at that boundary, and removes them again afterwards.  A
layer's *busy* time is the sum of its span durations; its *self* time is busy
time minus the part its child spans cover, so self times add up to the wall
time of the enclosing ``run`` span and ``coverage`` says how much of that wall
the layers explain.

A call into a layer that is already on the stack (the cc checker composing
the structural checker) passes straight through: one logical call, one span.
Spans are per thread, so work a thread or process pool does outside the
calling thread is not attributed here -- the layer probe covers it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT_LAYER = "run"

_MISSING = object()

#: A span: ``[layer, start, end, parent span or None]``.
Span = List[Any]


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, layer: str) -> Optional[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        if any(open_span[0] == layer for open_span in stack):
            return None
        span: Span = [layer, self.clock(), None, stack[-1] if stack else None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span[2] = self.clock()
        self._local.stack.pop()

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        span = self._open(layer)
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    def add(self, layer: str, counts: Dict[str, float]) -> None:
        totals = self.counters.setdefault(layer, {})
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        count: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)`` returns the counters to add when the call
        returns.  The attribute ``owner`` itself held (or its absence, for a
        method inherited from a base class) is remembered for
        :meth:`uninstall`.
        """
        original = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr)

        @functools.wraps(target)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(layer)
            if span is None:
                return target(*args, **kwargs)
            try:
                result = target(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                self.add(layer, count(args, result))
            return result

        traced.__e2e_layer__ = layer  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        try:
            for module_name, class_name, attr, layer, count in TARGETS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                self.wrap(owner, attr, layer, count)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------------

    def budget(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span ``count``, ``busy_s`` and ``self_s``."""
        covered: Dict[int, float] = {}
        for _layer, start, end, parent in self.spans:
            if parent is not None:
                covered[id(parent)] = covered.get(id(parent), 0.0) + (end - start)
        layers: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            layer, start, end, _parent = span
            row = layers.setdefault(layer, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["busy_s"] += end - start
            row["self_s"] += (end - start) - covered.get(id(span), 0.0)
        return layers

    def coverage(self) -> float:
        """Share of the ``run`` spans' wall that layer self times explain."""
        layers = self.budget()
        wall = layers.get(ROOT_LAYER, {}).get("busy_s", 0.0)
        if wall <= 0.0:
            return 0.0
        explained = sum(
            row["self_s"] for layer, row in layers.items() if layer != ROOT_LAYER
        )
        return explained / wall


def leftover_wrappers() -> List[str]:
    """Entry points of :data:`TARGETS` that still carry a wrapper."""
    left = []
    for module_name, class_name, attr, _layer, _count in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        if hasattr(getattr(owner, attr), "__e2e_layer__"):
            left.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
    return left


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds: a wrapped no-op timed against a bare one."""

    class _Box:
        @staticmethod
        def noop() -> None:
            return None

    bare = _Box.noop
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    baseline = time.perf_counter() - start
    tracer = Tracer()
    tracer.wrap(_Box, "noop", "calibration", lambda args, result: {"calls": 1})
    wrapped = _Box.noop
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    return max(0.0, traced - baseline) / calls


# -- the layers ----------------------------------------------------------------------
#
# (module, class or None, attribute, layer, counters).  Public names only; a
# method a class inherits (ProcessExecutor.run_units, KernelConstraintChecker
# .check) is wrapped on the public subclass and deleted again on uninstall.


def _dir_bytes(args: tuple, _result: Any) -> Dict[str, float]:
    from pathlib import Path

    return {"bytes": sum(f.stat().st_size for f in Path(args[0]).iterdir() if f.is_file())}


def _acked(_args: tuple, metrics: Any) -> Dict[str, float]:
    return {"work": sum(flow.packets_acked for flow in metrics.flows)}


def _units(args: tuple, _result: Any) -> Dict[str, float]:
    return {"units": len(args[1])}


def _passed(_args: tuple, result: Any) -> Dict[str, float]:
    return {"passed": 1 if result.ok else 0}


TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.core.generator", "LLMGenerator", "generate", "generate",
     lambda args, sources: {"candidates": len(sources)}),
    ("repro.core.generator", "LLMGenerator", "repair", "repair", None),
    ("repro.core.checker", "StructuralChecker", "check", "check", _passed),
    ("repro.cc.kernel_constraints", "KernelConstraintChecker", "check", "check", _passed),
    ("repro.core.engine", "EvaluationEngine", "process_scored", "engine", None),
    ("repro.dsl.abstract", "StaticScreener", "screen", "screen",
     lambda _args, verdict: {"screened": 1 if verdict.screened else 0}),
    ("repro.core.store", "EvaluationStore", "get", "store.get",
     lambda _args, found: {"hits": 0 if found is None else 1}),
    ("repro.core.store", "EvaluationStore", "put", "store.put", None),
    ("repro.core.executors", "SerialExecutor", "run_units", "executors", _units),
    ("repro.core.executors", "ThreadExecutor", "run_units", "executors", _units),
    ("repro.core.executors", "ProcessExecutor", "run_units", "executors", _units),
    ("repro.core.evaluator", "Evaluator", "evaluate", "evaluate",
     lambda _args, result: {"failed": 0 if result.valid else 1}),
    ("repro.cache.priority_cache", "PriorityFunctionCache", "__init__", "lower", None),
    ("repro.cc.dsl_controller", "DslCongestionController", "__init__", "lower", None),
    ("repro.cache.simulator", "CacheSimulator", "run", "simulate",
     lambda args, _result: {"work": len(args[2])}),
    ("repro.netsim.simulator", "NetworkSimulator", "run", "simulate", _acked),
    ("repro.core.artifacts", None, "prepare_run_dir", "write", None),
    ("repro.core.artifacts", None, "finalize_run_dir", "write", _dir_bytes),
    ("repro.core.spec", None, "resolve_domain_kwargs", "trace_build", None),
    ("repro.core.spec", None, "build_from_spec", "build", None),
    ("repro.core.search", "EvolutionarySearch", "run", "search", None),
    ("repro.dsl.abstract", None, "certify_program", "certify", None),
]
