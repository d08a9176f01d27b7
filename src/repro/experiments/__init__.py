"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning plain data structures and
registers itself in the experiment registry
(:mod:`repro.experiments.registry`) as a named spec + reducer, so the unified
CLI runs it (``python -m repro run <name>``), stores its payload as an
artifact, and re-renders the report offline (``python -m repro report``).
README.md ("The ``repro`` CLI") shows how to run and re-render them.

Quick map:

========================  ================  ===================================
Paper artefact            Registry name     Module
========================  ================  ===================================
Figure 2a / 2b            ``figure2``       :mod:`repro.experiments.figure2`
Table 2                   ``table2``        :mod:`repro.experiments.table2`
§4.2.1 search (1 trace)   ``caching-search``  :mod:`repro.experiments.search_caching`
§4.2.6 cost accounting    ``cost-accounting`` :mod:`repro.experiments.cost_accounting`
§5.0.3 compile rates      ``cc-compilation``  :mod:`repro.experiments.cc_compilation`
§5.0.3 behaviour spread   ``cc-behaviour``    :mod:`repro.experiments.cc_behaviour`
Ablations                 ``ablations``     :mod:`repro.experiments.ablations`
========================  ================  ===================================
"""

from repro.experiments.corpus import CorpusEvaluation, evaluate_corpus
from repro.experiments.figure2 import Figure2Row, run_figure2
from repro.experiments.registry import (
    ExperimentDef,
    available_experiments,
    get_experiment,
    register_experiment,
    run_experiment,
)
from repro.experiments.table2 import Table2Entry, run_table2
from repro.experiments.search_caching import run_search_experiment
from repro.experiments.cc_compilation import CompilationReport, run_cc_compilation
from repro.experiments.cc_behaviour import BehaviourReport, run_cc_behaviour
from repro.experiments.cost_accounting import run_cost_accounting

__all__ = [
    "CorpusEvaluation",
    "evaluate_corpus",
    "ExperimentDef",
    "available_experiments",
    "get_experiment",
    "register_experiment",
    "run_experiment",
    "Figure2Row",
    "run_figure2",
    "Table2Entry",
    "run_table2",
    "run_search_experiment",
    "CompilationReport",
    "run_cc_compilation",
    "BehaviourReport",
    "run_cc_behaviour",
    "run_cost_accounting",
]
