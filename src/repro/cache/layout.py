"""How a priority kernel reads its feature columns out of the arguments of
:func:`repro.cache.columnar._fused_loop`'s one evaluation site (a leaf module:
the loop and the priority-function adapter both import it)."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.cache.features import _REC_AGE, _REC_COUNT, _REC_EVICTED_AT, _REC_SIZE
from repro.dsl.analysis import ColumnSpec
from repro.dsl.vectorize import KernelBinding

#: Store-entry slots (plain lists are markedly faster than CachedObject in
#: the fused loop; the table is converted back on exit).
_COUNT, _LAST, _INSERTED, _SIZE, _GEN, _SCORE = range(6)

_ATTR_SLOT = {"count": _COUNT, "last_accessed": _LAST, "inserted_at": _INSERTED, "size": _SIZE}
_AGG_ARITY = {"percentile": 1, "mean": 0, "minimum": 0, "maximum": 0, "count": 0}

#: :class:`EvictionHistory` methods as ``(arity, expression)``: the method
#: bodies over the live records dict ``{h}`` and its ``get`` ``{get}`` (same
#: reads, no method-call frames).  ``{0}`` is the method argument, ``{r}`` /
#: ``{d}`` per-column temporaries bound by the walrus in the condition; a
#: record is a plain tuple, indexed by the ``_REC_*`` slots.  Records are
#: always truthy, so ``record if record else 0`` is an is-None test.
#: ``time_since_eviction`` uses the push-time ``now`` directly -- the classic
#: loop's set_now(now) happens at the same instant, so ``history._now == now``
#: whenever it is read.
_HISTORY_EXPR = {
    "contains": (1, "({0} in {h})"),
    "count_of": (1, "({r}[%d] if ({r} := {get}({0})) else 0)" % _REC_COUNT),
    "age_at_eviction": (1, "({r}[%d] if ({r} := {get}({0})) else 0)" % _REC_AGE),
    "size_of": (1, "({r}[%d] if ({r} := {get}({0})) else 0)" % _REC_SIZE),
    "time_since_eviction": (
        1,
        "(0 if ({r} := {get}({0})) is None"
        " else ({d} if ({d} := now - {r}[%d]) > 0 else 0))" % _REC_EVICTED_AT,
    ),
    "length": (0, "{len}({h})"),
}


def cache_layout(
    columns: Sequence[ColumnSpec], names: Sequence[str], prefix: str
) -> Optional[KernelBinding]:
    """Bind a priority kernel to the fused loop's evaluation site.

    The kernel is called as ``kernel(now, key, entry, table, hrecords, hget)``.
    ``now`` and ``obj_id`` are the first two parameters themselves; every
    other column is one prologue line: an ``entry`` slot read for an
    ``obj_info`` attribute, an inlined history expression, or a ``table``
    slot.  ``plan`` lists the table slots as ``(aggregate, method, args)``:
    with literal ``args`` the slot holds the method's value as of the last
    aggregate refresh, with ``args=None`` the bound method, which the
    prologue calls with its per-row argument.

    ``None`` when a column falls outside the Table-1 vocabulary: the program
    then runs as the scalar compiled program, with the usual errors.
    """
    entry, table, hrecords, hget, length = (
        f"{prefix}{name}" for name in ("entry", "table", "hrecords", "hget", "len")
    )
    prologue: List[str] = []
    plan: List[Tuple[str, str, Optional[Tuple[Any, ...]]]] = []
    for index, (spec, name) in enumerate(zip(columns, names)):
        if spec.kind == "scalar":
            if spec.param not in ("now", "obj_id"):
                return None
            continue
        if spec.kind == "attr":
            if spec.param != "obj_info" or spec.attr not in _ATTR_SLOT:
                return None
            prologue.append(f"{name} = {entry}[{_ATTR_SLOT[spec.attr]}]")
            continue
        if any(kind != "lit" and value not in ("now", "obj_id") for kind, value in spec.args):
            return None
        literal = all(kind == "lit" for kind, _value in spec.args)
        args = [repr(value) if kind == "lit" else value for kind, value in spec.args]
        if spec.param == "history":
            arity, template = _HISTORY_EXPR.get(spec.attr, (None, ""))
            if arity != len(args):
                return None
            temps = {"r": f"{prefix}r{index}", "d": f"{prefix}d{index}"}
            source = template.format(*args, h=hrecords, get=hget, len=length, **temps)
        elif spec.param in ("counts", "ages", "sizes"):
            if _AGG_ARITY.get(spec.attr) != len(args):
                return None
            source = f"{table}[{len(plan)}]"
            if literal:
                plan.append((spec.param, spec.attr, tuple(v for _kind, v in spec.args)))
            else:
                plan.append((spec.param, spec.attr, None))
                source += f"({', '.join(args)})"
        else:
            return None
        prologue.append(f"{name} = {source}")
    return KernelBinding(
        params=("now", "obj_id", entry, table, hrecords, hget),
        prologue=tuple(prologue),
        helpers={length: len},
        plan=tuple(plan),
    )
