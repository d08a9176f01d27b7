"""Common machinery shared by every eviction policy.

The division of labour between the simulator and a policy:

* the **simulator** drives the request loop and keeps the hit/miss counters;
* the **policy** owns the cached-object table, byte accounting and the
  eviction decision.

Simple policies only implement :meth:`EvictionPolicy.choose_victim` plus the
``on_hit`` / ``on_admit`` / ``on_evict`` hooks; structurally richer policies
(ARC, LIRS, S3-FIFO, ...) additionally maintain their own ghost lists inside
those hooks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterator, List, Optional

from repro.cache.request import Request


@dataclass
class CachedObject:
    """Metadata tracked for every resident object.

    ``extra`` is a scratch dictionary individual policies may use for their
    own bookkeeping (e.g. SIEVE's visited bit, GDSF's priority).
    """

    key: int
    size: int
    insert_time: int
    last_access_time: int
    access_count: int = 1
    extra: Dict[str, object] = field(default_factory=dict)

    def age(self, now: int) -> int:
        """Time since last access."""
        return now - self.last_access_time

    def residency(self, now: int) -> int:
        """Time since the object entered the cache."""
        return now - self.insert_time


EvictionListener = Callable[[CachedObject, int], None]


class EvictionPolicy(ABC):
    """Base class for eviction policies.

    Parameters
    ----------
    capacity:
        Cache capacity in bytes.  Objects larger than the capacity are never
        admitted (the simulator counts them as bypassed misses).
    """

    policy_name: ClassVar[str] = "base"

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._objects: Dict[int, CachedObject] = {}
        self._used = 0
        self.eviction_count = 0
        self.admission_count = 0
        self._eviction_listeners: List[EvictionListener] = []

    # -- inspection ----------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[CachedObject]:
        return iter(self._objects.values())

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: int) -> Optional[CachedObject]:
        return self._objects.get(key)

    def keys(self) -> List[int]:
        return list(self._objects.keys())

    def add_eviction_listener(self, listener: EvictionListener) -> None:
        """Register a callback invoked as ``listener(evicted_object, now)``."""
        self._eviction_listeners.append(listener)

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property-based tests)."""
        assert self._used == sum(o.size for o in self._objects.values()), (
            f"{self.policy_name}: used-bytes accounting is inconsistent"
        )
        assert self._used <= self.capacity, (
            f"{self.policy_name}: capacity exceeded ({self._used} > {self.capacity})"
        )

    # -- request handling ----------------------------------------------------

    def lookup(self, request: Request) -> bool:
        """Return True on a hit, updating recency/frequency metadata."""
        obj = self._objects.get(request.key)
        if obj is None:
            self.on_miss(request)
            return False
        obj.access_count += 1
        obj.last_access_time = request.timestamp
        self.on_hit(request, obj)
        return True

    def should_admit(self, request: Request) -> bool:
        """Admission control hook; the default admits everything that fits."""
        return request.size <= self.capacity

    def admit(self, request: Request) -> None:
        """Insert ``request``'s object, evicting as needed to make room."""
        if request.size > self.capacity:
            raise ValueError(
                f"object {request.key} ({request.size} B) exceeds cache capacity"
            )
        if request.key in self._objects:
            return
        while self._used + request.size > self.capacity:
            victim = self.choose_victim(request)
            if victim is None or victim not in self._objects:
                raise RuntimeError(
                    f"{self.policy_name}: choose_victim returned invalid key {victim!r}"
                )
            self.evict(victim, request.timestamp)
        obj = CachedObject(
            key=request.key,
            size=request.size,
            insert_time=request.timestamp,
            last_access_time=request.timestamp,
            access_count=1,
        )
        self._objects[request.key] = obj
        self._used += request.size
        self.admission_count += 1
        self.on_admit(request, obj)

    def evict(self, key: int, now: int) -> CachedObject:
        """Remove ``key`` from the cache and fire eviction hooks."""
        obj = self._objects.pop(key)
        self._used -= obj.size
        self.eviction_count += 1
        self.on_evict(obj, now)
        for listener in self._eviction_listeners:
            listener(obj, now)
        return obj

    # -- hooks for subclasses -------------------------------------------------

    def on_hit(self, request: Request, obj: CachedObject) -> None:
        """Called after metadata update on every hit."""

    def on_miss(self, request: Request) -> None:
        """Called on every miss, before any admission decision."""

    def on_admit(self, request: Request, obj: CachedObject) -> None:
        """Called after the object has been inserted."""

    def on_evict(self, obj: CachedObject, now: int) -> None:
        """Called after the object has been removed."""

    @abstractmethod
    def choose_victim(self, incoming: Request) -> Optional[int]:
        """Return the key of the object to evict next."""
