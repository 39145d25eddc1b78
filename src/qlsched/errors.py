"""Exception types shared across the package, and the config type checks."""

from math import isfinite
from numbers import Real


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, out-of-range value)."""


class BufferFullError(RuntimeError):
    """Admission attempted on a VM whose buffer is at capacity."""


class NoFeasibleActionError(RuntimeError):
    """Every VM buffer is full; the caller must defer the task."""


class CapacityError(ValueError):
    """Requested oracle MDP would enumerate too many states."""


class MetricsError(ValueError):
    """Metric requested on an empty or inconsistent record set."""


def require_int(key: str, value):
    """Raise ConfigError naming `key` unless value is an int (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def require_real(key: str, value):
    """Raise ConfigError naming `key` unless value is a finite real number
    (bools, strings, infinities and NaN are not)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
