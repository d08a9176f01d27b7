"""Zero-layer scoring fast path for lowered DSL congestion controllers.

The classic invocation path builds a fresh environment dict and a
:class:`~repro.cc.signals.HistoryView` (which copies and reverses the
interval list) for *every* ACK, then calls the runner through its
normalising wrapper with keyword arguments.  Per-ACK cwnd updates are the
netsim inner loop, so those layers dominate once the program itself is a
compiled kernel.

:func:`cc_layout` tells :class:`~repro.dsl.vectorize.VectorizedProgram` how
to compile a program's kernel as a function of the
:class:`~repro.netsim.flow.CCSignals` object itself: the prologue reads the
signal fields directly and inlines the ``HistoryView`` accessor bodies over
the live interval list (index 0 of the view is the *newest* interval, i.e.
``history[len - 1]``) -- exactly one Python frame per cwnd update.  True
cross-ACK batching is not possible (each update's inputs depend on the
previous update's cwnd), so this per-event lowering is the
congestion-control counterpart of the fused cache loop in
:mod:`repro.cache.columnar`.

Exactness: the kernel computes bit-identical values to the classic path --
same clamping (``max(0, rtt)``), same bounds-clamped history indexing, same
``int()`` truncation of method arguments.  It is used opportunistically: a
program with any feature column outside the cong_control Template
vocabulary runs as the scalar compiled program instead, and a call that
raises is re-run through the classic path so errors surface with their
usual normalised types and messages.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dsl.analysis import ColumnSpec
from repro.dsl.vectorize import KernelBinding

#: CCSignals reads for the Template's scalar parameters (``{s}`` the signals
#: object, ``{t}`` a temporary).  ``rtt``-family signals are clamped to zero
#: exactly like ``signals_environment``.
_SCALAR_SRC = {
    "now": "{s}.now_us",
    "cwnd": "{s}.cwnd_pkts",
    "mss": "{s}.mss",
    "acked": "{s}.acked_bytes",
    "inflight": "{s}.inflight_pkts",
    "rtt": "({t} if ({t} := {s}.rtt_us) > 0 else 0)",
    "min_rtt": "({t} if ({t} := {s}.min_rtt_us) > 0 else 0)",
    "srtt": "({t} if ({t} := {s}.srtt_us) > 0 else 0)",
    "losses": "{s}.losses_since_last_ack",
}

_HISTORY_AT_FIELD = {
    "delivered_at": "delivered_bytes",
    "rtt_at": "avg_rtt_us",
    "losses_at": "losses",
}
_HISTORY_ARITY = {
    "length": 0,
    "delivered_at": 1,
    "rtt_at": 1,
    "losses_at": 1,
    "total_losses": 0,
    "min_rtt": 0,
}


def cc_layout(
    columns: Sequence[ColumnSpec], names: Sequence[str], prefix: str
) -> Optional[KernelBinding]:
    """Bind a cong_control kernel to a single ``CCSignals`` argument.

    ``kernel(signals)`` returns exactly what the classic
    ``runner.run(signals_environment(signals))`` would return.  ``None``
    when any kernel column falls outside the Template vocabulary.
    """
    s, h, hn, iv = (f"{prefix}{name}" for name in ("s", "h", "hn", "iv"))
    hlen, hsum, hmin = (f"{prefix}{name}" for name in ("len", "sum", "min"))
    body: List[str] = []
    needs_history = False

    def scalar_source(param: str, temp: str) -> Optional[str]:
        template = _SCALAR_SRC.get(param)
        return template.format(s=s, t=f"{prefix}t{temp}") if template else None

    for index, (spec, name) in enumerate(zip(columns, names)):
        if spec.kind == "scalar":
            source = scalar_source(spec.param, str(index))
            if source is None:
                return None
            body.append(f"{name} = {source}")
        elif spec.kind == "attr":
            return None  # no attribute-bearing params in the cong_control Template
        else:  # method column
            if spec.param != "history":
                return None
            arity = _HISTORY_ARITY.get(spec.attr)
            if arity is None or len(spec.args) != arity:
                return None
            needs_history = True
            if spec.attr == "length":
                body.append(f"{name} = {hn}")
            elif spec.attr == "total_losses":
                body.append(f"{name} = {hsum}({iv}.losses for {iv} in {h})")
            elif spec.attr == "min_rtt":
                rtts = f"{prefix}rtts{index}"
                body.append(f"{rtts} = [{iv}.avg_rtt_us for {iv} in {h} if {iv}.avg_rtt_us > 0]")
                body.append(f"{name} = {hmin}({rtts}) if {rtts} else 0")
            else:
                kind, value = spec.args[0]
                if kind == "lit":
                    # HistoryView._at truncates the index with int().
                    arg_source = repr(int(value))
                else:
                    arg_source = scalar_source(value, f"{index}a")
                    if arg_source is None:
                        return None
                field = _HISTORY_AT_FIELD[spec.attr]
                i = f"{prefix}i{index}"
                # HistoryView._at, inlined: clamp into [0, hn-1] over the
                # reversed view (view index 0 == live list index hn-1).
                body.extend(
                    [
                        f"if {hn}:",
                        f"    {i} = {arg_source}",
                        f"    if {i} < 0:",
                        f"        {i} = 0",
                        f"    elif {i} > {hn} - 1:",
                        f"        {i} = {hn} - 1",
                        f"    {name} = {h}[{hn} - 1 - {i}].{field}",
                        "else:",
                        f"    {name} = 0",
                    ]
                )

    prologue = [f"{h} = {s}.history", f"{hn} = {hlen}({h})"] if needs_history else []
    return KernelBinding(
        params=(s,), prologue=tuple(prologue + body), helpers={hlen: len, hsum: sum, hmin: min}
    )
