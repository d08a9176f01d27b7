"""The experiment table: every paper artefact as a named spec + reducer.

Each experiment module defines one :class:`ExperimentDef`, ``EXPERIMENT`` --
a name, its default parameters, a *runner* producing a JSON-serializable
payload, and a *renderer* (the reducer) that turns a payload back into the
printed table/figure.  The split is what makes artifacts re-renderable
offline: ``repro run <name>`` stores the payload, and ``repro report <dir>``
feeds the stored payload through the same pure renderer, reproducing the
output byte-for-byte without re-running anything.  :data:`_EXPERIMENTS`
names each experiment's module, imported on first lookup.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: A runner takes the merged parameters as keyword arguments and returns the
#: payload dictionary; a renderer is a pure function payload -> report text.
Runner = Callable[..., Dict[str, Any]]
Renderer = Callable[[Dict[str, Any]], str]


@dataclass(frozen=True)
class ExperimentDef:
    """One experiment of the paper.

    ``accepts_progress`` marks runners taking a presentation-only
    ``progress`` keyword (stderr progress lines).  It is passed alongside --
    never as part of -- ``params``, so it influences neither the stored
    spec.json nor the run directory's config hash.
    """

    name: str
    description: str
    runner: Runner
    renderer: Renderer
    params: Dict[str, Any] = field(default_factory=dict)
    accepts_progress: bool = False


#: Experiment name -> the module whose ``EXPERIMENT`` it is.
_EXPERIMENTS = {
    "caching-search": "repro.experiments.search_caching",
    "figure2": "repro.experiments.figure2",
    "table2": "repro.experiments.table2",
    "ablations": "repro.experiments.ablations",
    "cost-accounting": "repro.experiments.cost_accounting",
    "cc-compilation": "repro.experiments.cc_compilation",
    "cc-behaviour": "repro.experiments.cc_behaviour",
}


def get_experiment(name: str) -> ExperimentDef:
    """Look up an experiment, importing its module on first use."""
    try:
        module = _EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(_EXPERIMENTS)}") from exc
    return importlib.import_module(module).EXPERIMENT


def available_experiments() -> List[str]:
    """Names of every experiment."""
    return sorted(_EXPERIMENTS)


def merge_params(
    experiment: ExperimentDef, overrides: Dict[str, Any]
) -> Dict[str, Any]:
    """Layer CLI/user overrides onto the experiment's defaults, strictly."""
    unknown = set(overrides) - set(experiment.params)
    if unknown:
        raise ValueError(
            f"experiment {experiment.name!r} has no parameter(s) "
            f"{sorted(unknown)}; available: {sorted(experiment.params)}"
        )
    merged = dict(experiment.params)
    merged.update(overrides)
    return merged


def run_experiment(
    name: str, *, progress: bool = False, **overrides: Any
) -> Dict[str, Any]:
    """Run an experiment and return its payload."""
    experiment = get_experiment(name)
    kwargs = merge_params(experiment, overrides)
    if experiment.accepts_progress:
        kwargs["progress"] = progress
    return experiment.runner(**kwargs)


def params_hash(name: str, params: Dict[str, Any]) -> str:
    """Deterministic identity of one experiment invocation (for run dirs)."""
    canonical = json.dumps(
        {"experiment": name, "params": params}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
