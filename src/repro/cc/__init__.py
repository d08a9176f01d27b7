"""Congestion-control case study (§5 of the paper).

The paper evolves Linux-kernel congestion-control heuristics, executing the
generated logic in an eBPF probe attached to ``cong_control`` and letting the
eBPF verifier act as the Checker.  This package reproduces the pipeline on
the simulation substrate:

* :mod:`repro.cc.template` -- the cong_control Template (signature, feature
  description, kernel constraints, seed programs, archetypes);
* :mod:`repro.cc.kernel_constraints` -- the verifier stand-in: a static
  checker rejecting floating point, unguarded division and unbounded loops;
* :mod:`repro.cc.dsl_controller` -- runs a DSL candidate as the congestion
  controller of a :class:`repro.netsim.flow.Flow`;
* :mod:`repro.cc.policies` -- hand-written baselines (Reno/AIMD, integer
  CUBIC) for comparison;
* :mod:`repro.cc.evaluator` / :mod:`repro.cc.search` -- the Evaluator over
  the emulated 12 Mbps / 20 ms link and the full search assembly.
"""

from repro.cc.template import (
    CC_TEMPLATE_PARAMS,
    cc_archetypes,
    cc_feature_spec,
    cc_seed_programs,
    cc_template,
    kernel_llm_config,
)
from repro.cc.kernel_constraints import KernelConstraintChecker, KernelRuleChecker
from repro.cc.dsl_controller import DslCongestionController
from repro.cc.evaluator import CongestionControlEvaluator

__all__ = [
    "CC_TEMPLATE_PARAMS",
    "cc_archetypes",
    "cc_feature_spec",
    "cc_seed_programs",
    "cc_template",
    "kernel_llm_config",
    "KernelConstraintChecker",
    "KernelRuleChecker",
    "DslCongestionController",
    "CongestionControlEvaluator",
]
