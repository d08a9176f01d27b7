"""Result records produced by the cache simulator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimulationResult:
    """Counters collected over one (policy, trace, cache size) run.

    The paper's headline metric is the *object miss ratio* and, for Figure 2,
    the *improvement in miss ratio over FIFO*:
    ``(miss_ratio(FIFO) - miss_ratio(policy)) / miss_ratio(FIFO)``.
    """

    policy: str
    trace: str
    cache_size: int
    requests: int = 0
    hits: int = 0
    misses: int = 0
    bytes_requested: int = 0
    bytes_missed: int = 0
    evictions: int = 0
    admissions: int = 0
    bypassed: int = 0

    @property
    def miss_ratio(self) -> float:
        """Fraction of requests that missed (0 when the trace is empty)."""
        if self.requests == 0:
            return 0.0
        return self.misses / self.requests

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio if self.requests else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_missed / self.bytes_requested

    def improvement_over(self, baseline: "SimulationResult") -> float:
        """Relative miss-ratio improvement over ``baseline`` (FIFO in Fig. 2).

        Positive values mean this policy misses less often than the baseline.
        When the baseline never misses the improvement is defined as 0.
        """
        if baseline.miss_ratio == 0:
            return 0.0
        return (baseline.miss_ratio - self.miss_ratio) / baseline.miss_ratio
