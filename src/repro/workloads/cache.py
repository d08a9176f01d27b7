"""Caching workloads: the built-in table, its builders and two generators.

Every builder here turns a :class:`~repro.workloads.spec.WorkloadSpec` into a
:class:`~repro.cache.request.Trace` (or a constant-memory
:class:`~repro.traces.streaming.StreamingTrace` for file-backed workloads).
All generators take an explicit ``seed`` and build their *own* RNG
(``random.Random`` for the pure-Python generators, ``numpy`` Generators for
the vectorised ones), so sweep and pool workers never share module-global
random state.

Two generator families are new relative to the corpus stand-ins in
:mod:`repro.traces`:

* **shifting** -- the working set jumps between disjoint hot sets every
  ``phase_length`` requests (a regime-change workload; policies that latch
  onto frequency counts adapt slowly);
* **adversarial** -- a cyclic loop over slightly more objects than the cache
  holds (the classic LRU-killer), interleaved with one-touch scans and a
  small reusable hot set so that smarter policies can still win.

``cache_fraction`` appears in every caching workload's parameters but is not
a generator knob: the caching domain's scenario-evaluator factory reads it,
which is what makes a *cache-size grid* (same trace, several fractions,
distinct labels) expressible as plain workload references.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.cache.request import Request, Trace
from repro.cache.simulator import DEFAULT_CACHE_FRACTION
from repro.workloads.spec import WorkloadSpec

#: Parameters read by the caching domain's evaluator factory, not by trace
#: builders.
EVAL_PARAMS = frozenset({"cache_fraction"})


def _builder_params(spec: WorkloadSpec) -> dict:
    return {k: v for k, v in spec.param_dict.items() if k not in EVAL_PARAMS}


# -- generators ---------------------------------------------------------------------


def _object_sizes(rng: random.Random, num_objects: int) -> list:
    """Per-object quantised log-normal sizes (block-I/O-like), seeded locally."""
    sizes = []
    for _ in range(num_objects):
        raw = rng.lognormvariate(9.2, 1.1)
        size = max(512, min(1 << 22, int(-(-raw // 512)) * 512))
        sizes.append(size)
    return sizes


def generate_shifting_trace(
    name: str = "shifting",
    num_requests: int = 6000,
    num_objects: int = 1500,
    seed: int = 0,
    phase_length: int = 1200,
    hot_fraction: float = 0.08,
    hot_weight: float = 0.75,
    zipf_alpha: float = 0.9,
    mean_interarrival: float = 10.0,
) -> Trace:
    """Working set jumps to a disjoint hot set every ``phase_length`` requests."""
    if num_requests <= 0 or num_objects <= 0:
        raise ValueError("num_requests and num_objects must be positive")
    if not 0 < hot_fraction <= 1:
        raise ValueError("hot_fraction must be in (0, 1]")
    rng = random.Random(seed)
    sizes = _object_sizes(rng, num_objects)
    hot_size = max(8, int(num_objects * hot_fraction))
    # Zipf-like weights inside the hot set (rank^-alpha, drawn by inversion).
    weights = [(rank + 1) ** (-zipf_alpha) for rank in range(hot_size)]
    total_weight = sum(weights)

    requests = []
    timestamp = 0.0
    hot_start = 0
    for index in range(num_requests):
        timestamp += rng.expovariate(1.0 / mean_interarrival)
        if index % phase_length == 0:
            # Jump to a hot set disjoint from the previous one.
            hot_start = (hot_start + hot_size + rng.randrange(hot_size)) % num_objects
        if rng.random() < hot_weight:
            point = rng.random() * total_weight
            rank = 0
            while rank < hot_size - 1 and point > weights[rank]:
                point -= weights[rank]
                rank += 1
            obj = (hot_start + rank) % num_objects
        else:
            obj = rng.randrange(num_objects)
        requests.append(Request(timestamp=int(timestamp), key=obj, size=sizes[obj]))
    return Trace(requests, name=name)


def generate_adversarial_trace(
    name: str = "adversarial",
    num_requests: int = 6000,
    num_objects: int = 1500,
    seed: int = 0,
    loop_fraction: float = 0.13,
    loop_weight: float = 0.55,
    scan_weight: float = 0.15,
    scan_length: int = 150,
    hot_objects: int = 32,
    mean_interarrival: float = 10.0,
) -> Trace:
    """Cyclic loop slightly larger than a 10 %-of-footprint cache.

    With the paper's cache sizing (10 % of the trace footprint), a loop over
    ``loop_fraction`` > 0.10 of the object universe re-touches every loop
    object just after LRU evicted it -- recency is actively misleading, scans
    pollute the cache, and only the small hot set rewards retention.
    """
    if not 0 < loop_fraction <= 1:
        raise ValueError("loop_fraction must be in (0, 1]")
    if loop_weight + scan_weight >= 1:
        raise ValueError("loop_weight + scan_weight must leave room for hot reuse")
    rng = random.Random(seed)
    sizes = _object_sizes(rng, num_objects)
    loop_size = max(8, int(num_objects * loop_fraction))
    loop_cursor = 0
    scan_cursor = 0
    scan_remaining = 0

    requests = []
    timestamp = 0.0
    for _ in range(num_requests):
        timestamp += rng.expovariate(1.0 / mean_interarrival)
        draw = rng.random()
        if draw < loop_weight:
            obj = loop_cursor % loop_size
            loop_cursor += 1
        elif draw < loop_weight + scan_weight:
            if scan_remaining <= 0:
                scan_remaining = scan_length
                scan_cursor = loop_size + rng.randrange(max(1, num_objects - loop_size))
            obj = scan_cursor % num_objects
            scan_cursor += 1
            scan_remaining -= 1
        else:
            obj = loop_size + (rng.randrange(hot_objects) % max(1, num_objects - loop_size))
        requests.append(Request(timestamp=int(timestamp), key=obj, size=sizes[obj]))
    return Trace(requests, name=name)


def corpus_traces(
    dataset: str,
    count: Optional[int] = None,
    num_requests: Optional[int] = None,
    num_objects: Optional[int] = None,
) -> Iterator[Trace]:
    """Yield a corpus's traces through the workload machinery.

    The canonical loader (the old ``repro.traces.cloudphysics_corpus`` /
    ``msr_corpus`` entry points were removed after their deprecation
    window).
    """
    from repro.traces.synthetic import generate_trace

    if dataset == "cloudphysics":
        from repro.traces.cloudphysics import NUM_TRACES as total
        from repro.traces.cloudphysics import cloudphysics_config as config_for

        defaults = (6000, 1500)
    elif dataset == "msr":
        from repro.traces.msr import NUM_TRACES as total
        from repro.traces.msr import msr_config as config_for

        defaults = (8000, 2000)
    else:
        raise ValueError(
            f"unknown dataset {dataset!r} (use 'cloudphysics' or 'msr')"
        )
    limit = total if count is None else min(count, total)
    for index in range(1, limit + 1):
        yield generate_trace(
            config_for(
                index,
                num_requests=num_requests or defaults[0],
                num_objects=num_objects or defaults[1],
            )
        )


# -- builders (``repro.traces`` imports numpy: a cc run must not load it) -----------


def _build_synthetic(spec: WorkloadSpec) -> Trace:
    from repro.traces.synthetic import SyntheticWorkloadConfig, generate_trace

    params = _builder_params(spec)
    params.setdefault("name", spec.display_name)
    return generate_trace(SyntheticWorkloadConfig(**params))


def _build_cloudphysics(spec: WorkloadSpec) -> Trace:
    from repro.traces.cloudphysics import cloudphysics_config
    from repro.traces.synthetic import generate_trace

    params = _builder_params(spec)
    return generate_trace(cloudphysics_config(**params))


def _build_msr(spec: WorkloadSpec) -> Trace:
    from repro.traces.msr import msr_config
    from repro.traces.synthetic import generate_trace

    params = _builder_params(spec)
    return generate_trace(msr_config(**params))


def _build_shifting(spec: WorkloadSpec) -> Trace:
    params = _builder_params(spec)
    params.setdefault("name", spec.display_name)
    return generate_shifting_trace(**params)


def _build_adversarial(spec: WorkloadSpec) -> Trace:
    params = _builder_params(spec)
    params.setdefault("name", spec.display_name)
    return generate_adversarial_trace(**params)


def _build_csv(spec: WorkloadSpec):
    from repro.traces.streaming import open_csv_trace

    params = _builder_params(spec)
    params.setdefault("name", spec.display_name)
    return open_csv_trace(**params)


def build_trace(ref, **overrides) -> Trace:
    """Build a caching workload's trace (type-checked convenience wrapper)."""
    from repro.workloads.spec import build_workload, resolve_workload_ref

    spec = resolve_workload_ref(ref)
    if overrides:
        spec = spec.with_overrides(**overrides)
    if spec.domain != "caching":
        raise ValueError(
            f"workload {spec.name!r} belongs to domain {spec.domain!r}, not 'caching'"
        )
    return build_workload(spec)


#: ``(domain, kind)`` -> the function that builds a spec of that kind.
BUILDERS = {
    ("caching", "synthetic"): _build_synthetic,
    ("caching", "cloudphysics"): _build_cloudphysics,
    ("caching", "msr"): _build_msr,
    ("caching", "shifting"): _build_shifting,
    ("caching", "adversarial"): _build_adversarial,
    ("caching", "csv"): _build_csv,
}


# -- the built-in workloads ---------------------------------------------------------

#: The built-in caching workloads, by name.
WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec.create(
            name="caching/synthetic",
            domain="caching",
            kind="synthetic",
            params={
                "num_requests": 6000,
                "num_objects": 1500,
                "seed": 0,
                "zipf_weight": 0.45,
                "churn_weight": 0.30,
                "scan_weight": 0.15,
                "recent_weight": 0.10,
                "zipf_alpha": 0.9,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="Generic four-source synthetic mixture (zipf/churn/scan/recent).",
        ),
        WorkloadSpec.create(
            name="caching/cloudphysics",
            domain="caching",
            kind="cloudphysics",
            params={
                "index": 89,
                "num_requests": 6000,
                "num_objects": 1500,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="CloudPhysics-like corpus trace w<index> (105 diverse VM traces).",
        ),
        WorkloadSpec.create(
            name="caching/msr",
            domain="caching",
            kind="msr",
            params={
                "index": 1,
                "num_requests": 8000,
                "num_objects": 2000,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="MSR-Cambridge-like corpus trace <index> (14 server roles).",
        ),
        WorkloadSpec.create(
            name="caching/zipf-hot",
            domain="caching",
            kind="synthetic",
            params={
                "num_requests": 6000,
                "num_objects": 1500,
                "seed": 11,
                "zipf_weight": 0.85,
                "churn_weight": 0.05,
                "scan_weight": 0.02,
                "recent_weight": 0.08,
                "zipf_alpha": 1.2,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="Heavily skewed Zipf reuse: frequency-aware policies shine.",
        ),
        WorkloadSpec.create(
            name="caching/scan-storm",
            domain="caching",
            kind="synthetic",
            params={
                "num_requests": 6000,
                "num_objects": 1500,
                "seed": 12,
                "zipf_weight": 0.25,
                "churn_weight": 0.10,
                "scan_weight": 0.55,
                "recent_weight": 0.10,
                "zipf_alpha": 0.8,
                "scan_length": 200,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="One-touch scan storms: scan-resistant policies shine.",
        ),
        WorkloadSpec.create(
            name="caching/shifting",
            domain="caching",
            kind="shifting",
            params={
                "num_requests": 6000,
                "num_objects": 1500,
                "seed": 13,
                "phase_length": 1200,
                "hot_fraction": 0.08,
                "hot_weight": 0.75,
                "zipf_alpha": 0.9,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="Hot set jumps to a disjoint region every phase_length requests.",
        ),
        WorkloadSpec.create(
            name="caching/adversarial-loop",
            domain="caching",
            kind="adversarial",
            params={
                "num_requests": 6000,
                "num_objects": 1500,
                "seed": 14,
                "loop_fraction": 0.13,
                "loop_weight": 0.55,
                "scan_weight": 0.15,
                "scan_length": 150,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="Cyclic loop just over the cache size (LRU-adversarial) + scans.",
        ),
        WorkloadSpec.create(
            name="caching/csv",
            domain="caching",
            kind="csv",
            params={
                "path": "trace.csv",
                "chunk_size": 65536,
                "cache_decoded": True,
                "cache_fraction": DEFAULT_CACHE_FRACTION,
            },
            description="File-backed trace, streamed in constant memory (see traces/streaming).",
        ),
    )
}
