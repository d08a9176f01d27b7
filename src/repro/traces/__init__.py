"""Synthetic workload generators standing in for the paper's trace datasets.

The paper evaluates on two real block-I/O corpora -- CloudPhysics (105
week-long VM traces) and MSR Cambridge (14 production-server traces) --
which cannot be redistributed here.  This package generates synthetic
corpora with the structural properties those datasets are known for and that
the paper's results depend on: Zipfian object popularity, strong temporal
locality (churn), one-touch scan phases, heterogeneous object sizes, and --
crucially for instance-optimality experiments -- *diversity across traces*
within a corpus, so that different traces favour different eviction
policies.

README.md ("Workload subsystem") lists the generators and the built-in
traces built on them.
"""

from repro.traces.synthetic import (
    SyntheticWorkloadConfig,
    generate_trace,
    zipf_weights,
)
from repro.traces.cloudphysics import cloudphysics_config
from repro.traces.msr import msr_config
from repro.traces.streaming import (
    CsvRequestSource,
    DecodedArraySource,
    StreamingTrace,
    TraceStats,
    open_csv_trace,
)

#: Traces are loaded through the workload tables
#: (``repro.workloads.build_trace("caching/cloudphysics", index=...)``,
#: ``repro.workloads.corpus_traces(dataset, ...)``); the ``*_config``
#: parameter sources and :func:`generate_trace` are the machinery beneath it.

__all__ = [
    "SyntheticWorkloadConfig",
    "generate_trace",
    "zipf_weights",
    "cloudphysics_config",
    "msr_config",
    "CsvRequestSource",
    "DecodedArraySource",
    "StreamingTrace",
    "TraceStats",
    "open_csv_trace",
]
