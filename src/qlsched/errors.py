"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, out-of-range value)."""


class BufferFullError(RuntimeError):
    """Admission attempted on a VM whose buffer is at capacity."""


class CapacityError(ValueError):
    """Requested oracle MDP would enumerate too many states or entries."""


class MetricsError(ValueError):
    """Metric requested on an empty or inconsistent record set."""

