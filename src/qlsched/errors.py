"""Exception types shared across the package, and the config type checks."""

import sys
from dataclasses import is_dataclass
from numbers import Real
from typing import get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, out-of-range value)."""


class BufferFullError(RuntimeError):
    """Admission attempted on a VM whose buffer is at capacity."""


class CapacityError(ValueError):
    """Requested oracle MDP would enumerate too many states or entries."""


class MetricsError(ValueError):
    """Metric requested on an empty or inconsistent record set."""


# annotation -> (what the value must be, test). Bools are ints to Python but
# never a count or a rate here; the float bound also fails NaN, the
# infinities and ints too large for a float.
_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: isinstance(v, str)),
}


def check_fields(obj):
    """Raise ConfigError naming the first field of dataclass `obj` whose value
    does not fit its annotation: a type in _TYPES, list[T] (a non-empty list or
    tuple of T, no entry repeated) or T | None. Dataclass fields are skipped."""
    for key, hint in get_type_hints(type(obj)).items():
        if not is_dataclass(hint):
            _check(key, hint, getattr(obj, key))


def _check(name: str, hint, value):
    if type(None) in get_args(hint):
        if value is not None:
            _check(name, get_args(hint)[0], value)
    elif get_origin(hint) is list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        for entry in value:
            _check(f"{name} entries", get_args(hint)[0], entry)
        if len(set(value)) != len(value):
            raise ConfigError(f"{name} must not repeat an entry, got {value!r}")
    else:
        kind, fits = _TYPES[hint]
        if not fits(value):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
