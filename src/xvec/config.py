"""The one reader for JSON config sections. It builds a dataclass from its
field annotations, so a wrongly typed value fails like an unknown key, with
a ConfigError that names the field: "run.json: model.heads: expected an
integer, got a string"."""

from __future__ import annotations

import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError

# annotation -> (the JSON values it accepts, its name); int takes integers only
_EXPECTED = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
             list: ((list, tuple), "an array"), tuple: ((list, tuple), "an array"), dict: (dict, "an object")}
_GOT = {type(None): "null", bool: "a boolean"} | {t: name for t, (_, name) in _EXPECTED.items()}


def from_json(cls, value, where: str):
    """Build ``cls`` (a dataclass, list[X], tuple[X, ...], int, float, str,
    dict or X | None) from decoded JSON. A dataclass checks its own rules
    when built; a ConfigError it raises is prefixed with ``where``, which
    names the value: "run.json", "run.json: model"."""
    if typing.get_origin(cls) is types.UnionType:  # X | None
        if value is None:
            return None
        (cls,) = [arg for arg in typing.get_args(cls) if arg is not type(None)]
    origin = typing.get_origin(cls) or cls
    accepted, expected = (dict, "an object") if is_dataclass(cls) else _EXPECTED[origin]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {expected}, got {_GOT.get(type(value), type(value).__name__)}")
    if origin in (list, tuple):
        return origin(from_json(typing.get_args(cls)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if cls is float:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"{where}: number out of range") from None
        if not math.isfinite(number):  # JSON as Python reads it: NaN, Infinity, 1e999
            raise ConfigError(f"{where}: expected a finite number")
        return number
    if not is_dataclass(cls):
        return value
    known = {f.name: f for f in fields(cls)}
    if unknown := [name for name in value if name not in known]:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    required = [f.name for f in known.values() if f.default is MISSING and f.default_factory is MISSING]
    if missing := [name for name in required if name not in value]:
        raise ConfigError(f"{where}: missing key {missing[0]!r}")
    hints = typing.get_type_hints(cls)
    sep = "." if ": " in where else ": "  # "run.json: model", then "run.json: model.heads"
    kwargs = {name: from_json(hints[name], v, f"{where}{sep}{name}") for name, v in value.items()}
    try:
        return cls(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None
