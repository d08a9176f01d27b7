"""The one JSON type check of the config dataclasses a spec fills in.

It lives outside :mod:`repro.core` so that :mod:`repro.llm.client` can use
it without importing the core package (which imports the client).
"""

from __future__ import annotations

import dataclasses
import typing
from functools import lru_cache

#: The checked field types, and how an error message names each.
_KINDS = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    dict: "a mapping", list: "a list",
}


@lru_cache(maxsize=None)
def _checked_fields(cls: type) -> tuple:
    """``(name, type, optional)`` per field annotated with a type of
    ``_KINDS`` or ``Optional`` of one; other fields go unchecked."""
    hints = typing.get_type_hints(cls)
    checked = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = typing.get_origin(hint) is typing.Union and type(None) in args
        if optional and len(args) == 2:
            hint = next(arg for arg in args if arg is not type(None))
        hint = typing.get_origin(hint) or hint  # Dict[str, Any] -> dict
        if hint in _KINDS:
            checked.append((f.name, hint, optional))
    return tuple(checked)


def check_field_types(config, block: str) -> None:
    """Raise ``ValueError("<block>.<field> must be <kind>, got <type> <value>")``
    for the first field of the dataclass ``config`` whose value has the wrong
    JSON type: a bool is no number, an int passes for a float, and ``None``
    passes only for an ``Optional`` field."""
    for name, kind, optional in _checked_fields(type(config)):
        value = getattr(config, name)
        if value is None and optional:
            continue
        if isinstance(value, bool):
            ok = kind is bool
        else:
            ok = isinstance(value, (int, float) if kind is float else kind)
        if not ok:
            raise ValueError(
                f"{block}.{name} must be {_KINDS[kind]}, "
                f"got {type(value).__name__} {value!r}"
            )
