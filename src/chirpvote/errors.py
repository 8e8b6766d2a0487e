"""Exception types shared across the package, and the type check of every
configuration dataclass.

Argument and domain errors use plain ValueError; the classes here mark
failure modes that callers (notably the CLI) dispatch on.
"""
from __future__ import annotations

import sys
from dataclasses import fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """A configuration object or file violates its invariants."""


class InfeasibleError(Exception):
    """A request has no solution in the admissible range (e.g. an ACLR
    target below the scheme's distortion floor, more vote pairs than fit in
    the band, or a delay beyond the untapered cyclic prefix)."""


class FramingError(ValueError):
    """A signal or block sequence has the wrong length for the operation."""


#: what a field must hold, by annotation
_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def _fits(value, kind) -> bool:
    """Whether a value has a field's annotated type: an integer (not a bool)
    for int, a finite number for float, a list or tuple of such for a tuple,
    an instance of the class for a section's dataclass."""
    if get_origin(kind) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool):
        return False
    if kind is float:
        # a comparison, not math.isfinite, which overflows on a huge integer;
        # it is false for NaN, the infinities and integers no float can hold
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _describe(kind) -> str:
    if get_origin(kind) is tuple:
        return f"a list, each entry {_describe(get_args(kind)[0])}"
    if is_dataclass(kind):
        return f"a {kind.__name__} object"
    return _EXPECTED[kind]


@cache
def _typed_fields(cls) -> tuple:
    """The (name, annotation) pairs of a dataclass's int, float, str, tuple
    and section (dataclass-typed) fields; fields of other types, such as
    arrays, are not checked here."""
    hints = get_type_hints(cls)
    kinds = [(f.name, hints[f.name]) for f in fields(cls)]
    return tuple(
        (n, k) for n, k in kinds if k in _EXPECTED or get_origin(k) is tuple or is_dataclass(k)
    )


def require_field_types(config) -> None:
    """ConfigError naming the first typed field of a configuration dataclass
    whose value does not have the field's annotated type (see ``_fits``)."""
    for name, kind in _typed_fields(type(config)):
        value = getattr(config, name)
        if not _fits(value, kind):
            raise ConfigError(f"{name} must be {_describe(kind)}, got {value!r}")
