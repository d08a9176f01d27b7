"""WorkloadSpec and the lookups over the built-in workload tables.

A :class:`WorkloadSpec` is pure data -- name, owning domain, builder kind and
a parameter dictionary -- that round-trips through JSON, so a scenario matrix
can live inside a stored ``spec.json`` and rebuild the exact same workloads
on another machine.  :mod:`repro.workloads.cache` and
:mod:`repro.workloads.netsim` each hold two tables: ``WORKLOADS`` (name ->
spec) and ``BUILDERS`` (``(domain, kind)`` -> the function that turns a spec
into the domain object: a trace for ``"caching"``, a
:class:`~repro.workloads.netsim.NetSimScenario` for ``"cc"``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

#: A builder turns a (fully-parameterised) spec into the domain object.
WorkloadBuilder = Callable[["WorkloadSpec"], Any]

#: Parameters every workload accepts but no builder consumes: presentation
#: and evaluation knobs read by the domain's scenario-evaluator factory.
META_PARAMS = frozenset({"label"})


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: domain + builder kind + parameters.

    ``params`` holds the builder's keyword arguments (every generator takes
    an explicit ``seed``); ``label`` is the display/scenario name, defaulting
    to ``name`` -- grid variants of the same workload (e.g. one trace at
    several cache sizes) must carry distinct labels.
    """

    name: str
    domain: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    description: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a WorkloadSpec needs a non-empty name")
        if not self.domain:
            raise ValueError(f"workload {self.name!r} needs a domain")
        if not self.kind:
            raise ValueError(f"workload {self.name!r} needs a builder kind")

    # -- parameters ----------------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        domain: str,
        kind: str,
        params: Optional[Mapping[str, Any]] = None,
        description: str = "",
        label: str = "",
    ) -> "WorkloadSpec":
        items = tuple(sorted((params or {}).items()))
        return cls(
            name=name,
            domain=domain,
            kind=kind,
            params=items,
            description=description,
            label=label,
        )

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def param(self, key: str, default: Any = None) -> Any:
        return self.param_dict.get(key, default)

    @property
    def display_name(self) -> str:
        """The scenario name used in scores, events and reports."""
        return self.label or self.name

    def with_overrides(self, **overrides: Any) -> "WorkloadSpec":
        """A copy with parameter (and ``label``) overrides layered on.

        Overrides must name existing parameters -- a typo
        (``num_request=``) fails loudly instead of silently building the
        default workload.
        """
        label = overrides.pop("label", self.label)
        if not overrides:
            return WorkloadSpec(
                name=self.name,
                domain=self.domain,
                kind=self.kind,
                params=self.params,
                description=self.description,
                label=label,
            )
        known = set(self.param_dict)
        unknown = set(overrides) - known - META_PARAMS
        if unknown:
            raise ValueError(
                f"workload {self.name!r} has no parameter(s) {sorted(unknown)}; "
                f"available: {sorted(known)}"
            )
        merged = self.param_dict
        merged.update(overrides)
        return WorkloadSpec.create(
            name=self.name,
            domain=self.domain,
            kind=self.kind,
            params=merged,
            description=self.description,
            label=label,
        )

    def scale(self, fraction: float, seed: Optional[int] = None) -> "WorkloadSpec":
        """A reduced-budget variant of this workload (fidelity scaling).

        ``fraction`` deterministically shrinks the workload's budget
        parameter -- ``num_requests`` for trace generators, ``duration_s``
        for netsim scenarios -- and suffixes the label so grid variants stay
        distinct.  ``seed`` (optional) reseeds the scaled workload, for
        ladders that want a different subsample per rung rather than a
        prefix.  File-backed workloads (no budget parameter) refuse to
        scale.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
        if fraction == 1.0 and seed is None:
            return self
        params = self.param_dict
        overrides: Dict[str, Any] = {}
        if fraction != 1.0:
            if "num_requests" in params:
                overrides["num_requests"] = max(
                    1, int(math.ceil(params["num_requests"] * fraction))
                )
            elif "duration_s" in params:
                overrides["duration_s"] = params["duration_s"] * fraction
            else:
                raise ValueError(
                    f"workload {self.name!r} has no scalable budget parameter "
                    "(num_requests or duration_s); file-backed workloads "
                    "cannot be fidelity-scaled"
                )
        if seed is not None:
            if "seed" not in params:
                raise ValueError(
                    f"workload {self.name!r} has no seed parameter to rescale"
                )
            overrides["seed"] = seed
        if fraction != 1.0:
            # A reseed-only copy keeps its label: it is not a rung variant.
            overrides["label"] = f"{self.display_name}@{fraction:g}"
        return self.with_overrides(**overrides)

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "domain": self.domain,
            "kind": self.kind,
            "params": self.param_dict,
        }
        if self.description:
            data["description"] = self.description
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        known = {"name", "domain", "kind", "params", "description", "label"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown WorkloadSpec field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls.create(
            name=data["name"],
            domain=data["domain"],
            kind=data["kind"],
            params=data.get("params", {}),
            description=data.get("description", ""),
            label=data.get("label", ""),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- presentation --------------------------------------------------------------

    def estimated_length(self) -> str:
        """Human-readable size estimate for ``repro workloads list``."""
        params = self.param_dict
        if "num_requests" in params:
            return f"{params['num_requests']} reqs"
        if "duration_s" in params:
            return f"{params['duration_s']} s sim"
        if "path" in params:
            return "file-backed"
        return "-"


# -- lookups ------------------------------------------------------------------------


def _tables() -> Tuple[Dict[str, WorkloadSpec], Dict[Tuple[str, str], WorkloadBuilder]]:
    """The built-in workloads and builders (both modules import this one)."""
    from repro.workloads import cache, netsim

    return {**cache.WORKLOADS, **netsim.WORKLOADS}, {**cache.BUILDERS, **netsim.BUILDERS}


def get_workload(name: str, **overrides: Any) -> WorkloadSpec:
    """Look up a built-in workload, with optional parameter overrides."""
    try:
        spec = _tables()[0][name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from exc
    return spec.with_overrides(**overrides) if overrides else spec


def available_workloads(domain: Optional[str] = None) -> List[str]:
    """Names of every built-in workload (optionally for one domain)."""
    return sorted(
        name
        for name, spec in _tables()[0].items()
        if domain is None or spec.domain == domain
    )


def resolve_workload_ref(
    ref: Union[str, Mapping[str, Any], WorkloadSpec]
) -> WorkloadSpec:
    """Build a spec from a declarative reference.

    A reference is a workload name (``"caching/zipf-hot"``), a dictionary
    ``{"name": <workload name>, <param overrides>...}``, an inline spec
    dictionary (with ``domain`` and ``kind`` keys), or an already-built
    :class:`WorkloadSpec`.
    """
    if isinstance(ref, WorkloadSpec):
        return ref
    if isinstance(ref, str):
        return get_workload(ref)
    if isinstance(ref, Mapping):
        if "domain" in ref and "kind" in ref:
            return WorkloadSpec.from_dict(ref)
        data = dict(ref)
        try:
            name = data.pop("name")
        except KeyError:
            raise ValueError(
                "a workload reference dict needs a 'name' key (a workload "
                "name plus overrides) or 'domain'+'kind' (an inline spec); "
                f"got keys {sorted(ref)}"
            ) from None
        return get_workload(name, **data)
    raise TypeError(f"cannot resolve a workload from {type(ref).__name__}")


def build_workload(
    ref: Union[str, Mapping[str, Any], WorkloadSpec], **overrides: Any
) -> Any:
    """Resolve a workload reference and build its domain object."""
    spec = resolve_workload_ref(ref)
    if overrides:
        spec = spec.with_overrides(**overrides)
    builders = _tables()[1]
    try:
        builder = builders[(spec.domain, spec.kind)]
    except KeyError as exc:
        known = sorted(f"{d}/{k}" for d, k in builders)
        raise KeyError(
            f"no builder registered for workload kind "
            f"{spec.domain}/{spec.kind} (workload {spec.name!r}); "
            f"registered kinds: {known}"
        ) from exc
    return builder(spec)
