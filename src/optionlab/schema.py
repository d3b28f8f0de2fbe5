"""Declarative JSON config schemas and the one checker that walks them.

A schema maps each key to a field: a type (``int``, ``float``, ``bool``,
``str``, or ``dict`` for an object whose keys the caller checks itself), a
set of the only strings allowed, a one-element list ``[field]`` for an array
of that field, or a nested schema.  A ``(field, default)`` pair makes the key
optional.  Typing is strict: int takes JSON integers only (not ``true``, not
``1.0``), float takes any finite JSON number (not ``NaN``, ``Infinity``, or a
number past the float range) and stores a Python float, bool takes only
``true`` and ``false``, and ``null`` is never a value.

``of`` derives the schema of a config dataclass from its fields, so each
config's keys, types and defaults are stated once, on the class.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from datetime import date

__all__ = ["check", "load_config", "of"]

_NOUNS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "an object"}


def _wrong(path: str, noun: str, value) -> ValueError:
    return ValueError(f"{path or 'config'} must be {noun}, got {json.dumps(value, default=repr)}")


def of(cls) -> dict:
    """The schema of the dataclass ``cls``: one key per field, in field
    order, typed by its annotation and optional with the field's default.
    ``X | None`` reads as X, ``tuple[X, ...]`` as ``[X]``, a dataclass as its
    own schema and ``date`` as (ISO) text."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _field(hints[f.name]) if f.default is dataclasses.MISSING
        else (_field(hints[f.name]), f.default)
        for f in dataclasses.fields(cls)
    }


def _field(tp):
    """The schema field of one annotation (see ``of``)."""
    if dataclasses.is_dataclass(tp):
        return of(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and args[1:] == (Ellipsis,):
        return [_field(args[0])]
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args:
        (tp,) = (a for a in args if a is not type(None))
        return _field(tp)
    return str if tp is date else tp


def check(value, field, path: str = ""):
    """``value`` checked against ``field``, with every absent optional key
    set to its default.  Raises ValueError naming the key path; ``path`` is
    the prefix for nested keys, and an empty one names the root "config"."""
    if isinstance(field, dict):
        label = path or "config"
        if not isinstance(value, dict):
            raise _wrong(label, "an object", value)
        unknown = sorted(set(value) - set(field))
        if unknown:
            raise ValueError(f"unknown {label} keys {unknown}; known: {'/'.join(field)}")
        missing = [k for k, f in field.items() if k not in value and not isinstance(f, tuple)]
        if missing:
            raise ValueError(f"missing {label} keys {missing}")
        out = {}
        for key, sub in field.items():
            if isinstance(sub, tuple):
                sub, default = sub
                if key not in value:
                    out[key] = default
                    continue
            out[key] = check(value[key], sub, f"{path}.{key}" if path else key)
        return out
    if isinstance(field, list):
        if not isinstance(value, list):
            raise _wrong(path, "a list", value)
        return [check(v, field[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(field, set):
        if not (isinstance(value, str) and value in field):
            raise _wrong(path, f"one of {sorted(field)}", value)
        return value
    if field is float and type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int past the floats
            raise _wrong(path, "a finite number", value)
        return float(value)
    if type(value) is not field:
        raise _wrong(path, _NOUNS[field], value)
    return value


def load_config(path, schema: dict) -> dict:
    """Read the JSON file at ``path`` and check it against ``schema``."""
    with open(path) as fh:
        try:
            return check(json.load(fh), schema)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
