"""Unified workload subsystem: every evaluation scenario as table data.

A *workload* is one concrete thing a candidate policy can be scored against
-- a cache trace at a cache-size point, or a netsim topology with its link,
loss, RTT and flow-count configuration.  This package makes workloads
first-class: each is a named, JSON-serializable
:class:`~repro.workloads.spec.WorkloadSpec` in its domain module's
``WORKLOADS`` table, discoverable via ``python -m repro workloads list``, referenced
declaratively from a :class:`~repro.core.spec.RunSpec` (the
``domain_kwargs["workloads"]`` matrix), and buildable into the domain object
(a :class:`~repro.cache.request.Trace` or a
:class:`~repro.workloads.netsim.NetSimScenario`) with one call.

A new workload is one more table entry (plus a ``BUILDERS`` entry for a
new kind), and every frontend -- CLI, specs, multi-scenario search -- can
use it.
"""

from repro.workloads.spec import (
    WorkloadSpec,
    available_workloads,
    build_workload,
    get_workload,
    resolve_workload_ref,
)
from repro.workloads.cache import build_trace, corpus_traces
from repro.workloads.netsim import NetSimScenario, build_scenario

__all__ = [
    "WorkloadSpec",
    "available_workloads",
    "build_workload",
    "get_workload",
    "resolve_workload_ref",
    "build_trace",
    "corpus_traces",
    "NetSimScenario",
    "build_scenario",
]
