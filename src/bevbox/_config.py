"""JSON mappings to configuration dataclasses, with one key check."""

from __future__ import annotations

import dataclasses
import numbers
import typing

import numpy as np


def _require_keys(mapping: dict, required, optional, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{context}: expected an object, got {type(mapping).__name__}")
    keys = set(mapping)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise ValueError(f"{context}: missing keys {sorted(missing)}")
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")


def _require_list(value, context: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{context}: expected a list, got {type(value).__name__}")
    return value


def _number_array(value, context: str) -> np.ndarray:
    """Nested lists of real numbers as a float array.  A leaf that is not a
    real number (a boolean, a string, ``null`` or an object), a ragged list
    and an ``int`` too large for a ``float`` raise ``ValueError``."""
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, numbers.Real):
            raise ValueError(f"{context}: expected nested lists of numbers")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):
        raise ValueError(f"{context}: expected nested lists of numbers") from None


def _scalar(kind, value, context: str):
    """``kind(value)`` for ``kind`` ``float``, ``int`` or ``str``.  A
    non-string for a ``str``; for a number anything but a real number
    (``null``, a string, a list or an object), a boolean, an ``int`` too
    large for a ``float`` and a number with a fractional part for an
    ``int`` raise ``ValueError``."""
    if (not isinstance(value, str) if kind is str
            else isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{context}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{context}: expected an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{context}: expected {kind.__name__}, got {type(value).__name__}") from None


def _seed(value, context: str) -> int:
    """A random seed: an ``int`` by :func:`_scalar` that is not negative."""
    seed = _scalar(int, value, context)
    if seed < 0:
        raise ValueError(f"{context}: expected a non-negative integer, got {seed}")
    return seed


def _count(value, context: str, minimum: int = 1) -> int:
    """A sample count: an ``int`` by :func:`_scalar` that is at least
    ``minimum``."""
    count = _scalar(int, value, context)
    if count < minimum:
        raise ValueError(f"{context}: expected an integer >= {minimum}, got {count}")
    return count


def _from_dict(cls, mapping: dict, context: str, required=(),
               contexts: dict[str, str] | None = None):
    """Build the dataclass ``cls`` from a JSON mapping.

    The allowed keys are the field names; the fields without a default are
    required, and so are the names in ``required``.  Absent keys take the
    dataclass defaults.  Each value is coerced by its field's annotation:
    ``float``, ``int`` and ``str`` go through :func:`_scalar`, and a
    dataclass or a ``tuple`` of one (a list in the mapping) is built by this
    function, with the field name as the context unless ``contexts`` names
    another.  Keys are checked before any value is read, so an outer section
    reports its errors before the sections nested in it.
    """
    fields = dataclasses.fields(cls)
    no_default = {
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    _require_keys(mapping, no_default | set(required), {f.name for f in fields}, context)
    types = typing.get_type_hints(cls)
    values = {}
    # Tuples of sections are built first, then the other fields in order:
    # with errors in both, the one inside a size class is the one reported.
    for f in sorted(fields, key=lambda f: typing.get_origin(types[f.name]) is not tuple):
        if f.name not in mapping:
            continue
        kind, value = types[f.name], mapping[f.name]
        nested = (contexts or {}).get(f.name, f.name)
        if dataclasses.is_dataclass(kind):
            values[f.name] = _from_dict(kind, value, nested)
        elif typing.get_origin(kind) is tuple:
            element = typing.get_args(kind)[0]
            values[f.name] = tuple(_from_dict(element, v, nested)
                                   for v in _require_list(value, f"{context}: {f.name}"))
        else:
            values[f.name] = _scalar(kind, value, f"{context}: {f.name}")
    return cls(**values)
