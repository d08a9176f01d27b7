"""The PolicySmith caching Template: a priority-queue cache.

Object metadata lives in a priority queue; the position of each object is
determined by a customisable ``priority()`` function which is re-evaluated on
every access or insertion of that object (and only then).  When space is
needed, the object with the lowest score is evicted (§4.1.2 of the paper).

The priority function may be

* a :class:`~repro.dsl.ast.Program` in the heuristic DSL (the normal case:
  this is what the Generator produces), or
* any Python callable with the Template signature, which is how the seed
  heuristics (LRU, LFU) and unit tests plug in.

The function receives exactly the environment of Table 1: ``now``,
``obj_id``, ``obj_info``, ``counts``, ``ages``, ``sizes``, ``history``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Protocol, Tuple, Union

from repro.cache.features import EvictionHistory, FeatureAggregates, ObjectInfoView
from repro.cache.layout import _COUNT, _GEN, _INSERTED, _LAST, _SCORE, _SIZE, cache_layout
from repro.cache.policies.base import CachedObject, EvictionPolicy
from repro.cache.request import Request
from repro.dsl.ast import Program
from repro.dsl.compile import DEFAULT_BACKEND, make_runner

#: Signature of a priority function supplied as a plain Python callable.
PriorityCallable = Callable[
    [int, int, ObjectInfoView, FeatureAggregates, FeatureAggregates, FeatureAggregates, EvictionHistory],
    float,
]

#: The Template's formal parameter list, in order.
TEMPLATE_PARAMS = ("now", "obj_id", "obj_info", "counts", "ages", "sizes", "history")


class PriorityFunction(Protocol):
    """Anything that can score an object given the Table-1 environment."""

    def evaluate(self, env: dict) -> float:  # pragma: no cover - protocol
        ...


def as_score(value) -> float:
    """A DSL program's return value as a heap score."""
    if isinstance(value, (bool, int, float)):
        return float(value)
    raise TypeError(f"priority function returned a non-numeric value: {value!r}")


class DslPriorityFunction:
    """Adapts a DSL :class:`Program` to the priority-function interface.

    ``backend`` is ``"vectorized"`` (the default) or its other spelling
    ``"compiled"`` -- the program lowered to a Python callable, its kernel
    compiled behind the call signature of the fused simulation loop
    (:mod:`repro.cache.columnar`) -- or ``"interpreter"``, the tree-walking
    oracle.  A program that cannot bind a kernel falls back to the scalar
    callable, then the interpreter (``self.backend`` is the one in use).
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 20_000,
        backend: str = DEFAULT_BACKEND,
    ):
        expected = list(TEMPLATE_PARAMS)
        if list(program.params) != expected:
            raise ValueError(
                f"priority program must have parameters {expected}, "
                f"got {list(program.params)}"
            )
        self.program = program
        self._runner, self.backend = make_runner(program, backend, max_steps, cache_layout)

    def evaluate(self, env: dict) -> float:
        return as_score(self._runner.run(env))


class CallablePriorityFunction:
    """Adapts a plain Python callable to the priority-function interface."""

    def __init__(self, fn: PriorityCallable):
        self._fn = fn

    def evaluate(self, env: dict) -> float:
        return float(
            self._fn(
                env["now"],
                env["obj_id"],
                env["obj_info"],
                env["counts"],
                env["ages"],
                env["sizes"],
                env["history"],
            )
        )


def as_priority_function(
    priority: Union[Program, PriorityCallable, PriorityFunction],
    backend: str = DEFAULT_BACKEND,
) -> PriorityFunction:
    """Coerce any supported priority representation to the common interface."""
    if isinstance(priority, Program):
        return DslPriorityFunction(priority, backend=backend)
    if hasattr(priority, "evaluate"):
        return priority  # type: ignore[return-value]
    if callable(priority):
        return CallablePriorityFunction(priority)
    raise TypeError(f"unsupported priority function: {priority!r}")


class PriorityFunctionCache(EvictionPolicy):
    """Priority-queue cache parameterised by a synthesized priority function.

    Parameters
    ----------
    capacity:
        Cache capacity in bytes.
    priority:
        DSL program, Python callable, or priority-function object.
    refresh_interval:
        How many requests may elapse between refreshes of the aggregate
        feature snapshots (Table 1's percentile features).  Refreshing on
        every request would be O(N log N) per access and is exactly the kind
        of full-cache scan the Template constraints forbid.
    history_size:
        Number of evicted objects remembered in the history feature.
    backend:
        DSL execution backend for ``priority`` when it is a
        :class:`~repro.dsl.ast.Program`: ``"vectorized"`` (default) or
        ``"compiled"``, alike (a fresh policy on a columnar trace is
        simulated by the fused loop of :mod:`repro.cache.columnar`, one
        Python frame per evaluation), or ``"interpreter"`` (the oracle).
    """

    policy_name = "PolicySmith"

    def __init__(
        self,
        capacity: int,
        priority: Union[Program, PriorityCallable, PriorityFunction],
        refresh_interval: int = 64,
        history_size: int = 1024,
        name: Optional[str] = None,
        backend: str = DEFAULT_BACKEND,
    ):
        super().__init__(capacity)
        if refresh_interval <= 0:
            raise ValueError("refresh_interval must be positive")
        self._priority = as_priority_function(priority, backend=backend)
        if name:
            self.policy_name = name
        self.refresh_interval = refresh_interval
        self._requests_since_refresh = refresh_interval  # force refresh on first use
        self._counts = FeatureAggregates()
        self._ages = FeatureAggregates()
        self._sizes = FeatureAggregates()
        self._history = EvictionHistory(max_entries=history_size)
        # Min-heap of (score, generation, key) with lazy invalidation.
        self._heap: List[Tuple[float, int, int]] = []
        self._generation = 0
        self.priority_evaluations = 0

    # -- feature maintenance -----------------------------------------------------

    def _maybe_refresh_aggregates(self, now: int) -> None:
        self._requests_since_refresh += 1
        if self._requests_since_refresh < self.refresh_interval:
            return
        self._requests_since_refresh = 0
        counts: List[float] = []
        ages: List[float] = []
        sizes: List[float] = []
        for obj in self._objects.values():
            counts.append(obj.access_count)
            ages.append(max(0, now - obj.last_access_time))
            sizes.append(obj.size)
        self._counts.update(counts)
        self._ages.update(ages)
        self._sizes.update(sizes)

    def _environment(self, now: int, obj: CachedObject) -> dict:
        self._history.set_now(now)
        return {
            "now": now,
            "obj_id": obj.key,
            "obj_info": ObjectInfoView(obj),
            "counts": self._counts,
            "ages": self._ages,
            "sizes": self._sizes,
            "history": self._history,
        }

    def _score(self, now: int, obj: CachedObject) -> float:
        self.priority_evaluations += 1
        return self._priority.evaluate(self._environment(now, obj))

    def _push(self, now: int, obj: CachedObject) -> None:
        score = self._score(now, obj)
        self._generation += 1
        obj.extra["ps_gen"] = self._generation
        obj.extra["ps_score"] = score
        heapq.heappush(self._heap, (score, self._generation, obj.key))

    # -- policy hooks ---------------------------------------------------------------

    def lookup(self, request: Request) -> bool:
        self._maybe_refresh_aggregates(request.timestamp)
        return super().lookup(request)

    def on_hit(self, request: Request, obj: CachedObject) -> None:
        self._push(request.timestamp, obj)

    def on_admit(self, request: Request, obj: CachedObject) -> None:
        self._push(request.timestamp, obj)

    def on_evict(self, obj: CachedObject, now: int) -> None:
        self._history.record(obj, now)

    def choose_victim(self, incoming: Request) -> Optional[int]:
        while self._heap:
            _score, generation, key = self._heap[0]
            obj = self.get(key)
            if obj is None or obj.extra.get("ps_gen") != generation:
                heapq.heappop(self._heap)
                continue
            return key
        return None

    def __getattr__(self, name: str):
        """Only for a missing attribute: the object table a fused run
        (:mod:`repro.cache.columnar`) left as its store is built on first read."""
        store = self.__dict__.pop("_fused_store", None) if name == "_objects" else None
        if store is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._objects = {
            key: CachedObject(
                key=key,
                size=entry[_SIZE],
                insert_time=entry[_INSERTED],
                last_access_time=entry[_LAST],
                access_count=entry[_COUNT],
                extra={"ps_gen": entry[_GEN], "ps_score": entry[_SCORE]},
            )
            for key, entry in store.items()
        }
        return self._objects

    # -- introspection -----------------------------------------------------------------

    def current_score(self, key: int) -> Optional[float]:
        """Last computed priority score of ``key`` (None if not resident)."""
        obj = self.get(key)
        if obj is None:
            return None
        return float(obj.extra.get("ps_score", 0.0))

    @property
    def history(self) -> EvictionHistory:
        return self._history
