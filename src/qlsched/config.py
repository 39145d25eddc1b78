"""The experiment plan schema and its YAML parser.

The dataclass annotations are the schema: check_fields derives every type
check from them and _build every key and nesting check. Only the standard
library, PyYAML and errors.py are imported, so parsing loads no numpy.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from numbers import Real
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError

# Append only, as a policy's index seeds its draws; policies.POLICIES follows it.
POLICY_NAMES = ("random", "fifo", "mixed", "greedy", "qsch", "qlearn")
DEFAULT_D_MAX = 5
ARRIVAL_MODES = ("iid", "markov")
DEFAULT_LR_EXPONENT = 0.65
DEFAULT_MAX_ATTEMPTS = 10
DEFAULT_RANGE_MI = 10_000
DEFAULT_L_CAP = 40

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


def csv_cell(x) -> str:
    """A value as the output CSVs print it: runner writes every cell with it,
    and ExperimentPlan checks that failure_ratios stay apart in it."""
    return "" if x is None else f"{x:.6f}" if isinstance(x, float) else str(x)


@dataclass
class ScenarioConfig:
    """Static description of one simulated scenario."""

    num_tasks: int
    length_min: int
    length_max: int
    num_vms: int
    vm_mips: float
    buffer_min: int = 5
    buffer_max: int = 15
    num_pes: int = 1
    arrival_mode: str = "iid"
    arrival_mean: float = 1.0

    def __post_init__(self):
        check_fields(self)
        # range checks are written so that NaN fails them
        if not self.num_tasks >= 1:
            raise ConfigError("num_tasks must be >= 1")
        if not (0 < self.length_min <= self.length_max):
            raise ConfigError("need 0 < length_min <= length_max")
        if not self.num_vms >= 1:
            raise ConfigError("num_vms must be >= 1")
        if not self.vm_mips > 0:
            raise ConfigError("vm_mips must be > 0")
        if not (1 <= self.buffer_min <= self.buffer_max):
            raise ConfigError("need 1 <= buffer_min <= buffer_max")
        if not self.num_pes >= 1:
            raise ConfigError("num_pes must be >= 1")
        if self.arrival_mode not in ARRIVAL_MODES:
            raise ConfigError(f"arrival_mode must be one of {ARRIVAL_MODES}")
        if not self.arrival_mean > 0:
            raise ConfigError("arrival_mean must be > 0")


@dataclass
class LearnerConfig:
    gamma: float = 0.9
    epsilon0: float = 1.0
    total_cycles: int = 10_000
    repeater_threshold: int = 500
    lr_exponent: float = DEFAULT_LR_EXPONENT

    def __post_init__(self):
        check_fields(self)
        # range checks are written so that NaN fails them
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError("gamma must be in (0, 1)")
        if not (0.0 <= self.epsilon0 <= 1.0):
            raise ConfigError("epsilon0 must be in [0, 1]")
        if not self.total_cycles >= 1:
            raise ConfigError("total_cycles must be a positive integer")
        if not self.repeater_threshold >= 1:
            raise ConfigError("repeater_threshold must be a positive integer")
        if not self.lr_exponent > 0:
            raise ConfigError("lr_exponent must be > 0")


@dataclass
class ExperimentPlan:
    scenario: ScenarioConfig
    policies: list[str] = field(default_factory=lambda: list(POLICY_NAMES))
    task_counts: list[int] | None = None
    buffer_sizes: list[int] | None = None
    failure_ratios: list[float] = field(default_factory=lambda: [0.0])
    replications: int = 20
    seed: int = 1
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    slot_seconds: float = 1.0
    range_mi: int = DEFAULT_RANGE_MI
    l_cap: int = DEFAULT_L_CAP
    arrival_dmax: int = DEFAULT_D_MAX
    qsch_w_buffer: float = 0.5
    qsch_w_wait: float = 0.5
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    out_dir: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.task_counts is None:
            self.task_counts = [self.scenario.num_tasks]
        if self.buffer_sizes is None:
            self.buffer_sizes = [self.scenario.buffer_max]
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {name!r} in policies "
                                  f"(choose from {POLICY_NAMES})")
        # range checks are written so that NaN fails them
        if not all(t >= 1 for t in self.task_counts):
            raise ConfigError("task_counts entries must be >= 1")
        if not all(b >= 1 for b in self.buffer_sizes):
            raise ConfigError("buffer_sizes entries must be >= 1")
        if any(not (0.0 <= f <= 1.0) for f in self.failure_ratios):
            raise ConfigError("failure_ratios entries must lie in [0, 1]")
        # a point's ratio reaches its CSV rows and its q-table file names
        for spelled in ({csv_cell(float(f)) for f in self.failure_ratios},
                        {f"{f:g}" for f in self.failure_ratios}):
            if len(spelled) < len(self.failure_ratios):
                raise ConfigError(f"failure_ratios entries must print apart in "
                                  f"the outputs, got {self.failure_ratios!r}")
        if not (0.0 <= self.qsch_w_buffer <= 1.0):
            raise ConfigError("qsch_w_buffer must lie in [0, 1]")
        if not (0.0 <= self.qsch_w_wait <= 1.0):
            raise ConfigError("qsch_w_wait must lie in [0, 1]")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.slot_seconds > 0:
            raise ConfigError("slot_seconds must be > 0")
        if self.range_mi <= 0:
            raise ConfigError("range_mi must be > 0")
        if self.l_cap < 0:
            raise ConfigError("l_cap must be >= 0")
        if self.arrival_dmax < 1:
            raise ConfigError("arrival_dmax must be >= 1")
        if not self.scenario.arrival_mean <= self.arrival_dmax:
            raise ConfigError(f"arrival_mean must be <= arrival_dmax "
                              f"({self.arrival_dmax}): the per-slot count is "
                              f"Binomial(arrival_dmax, mean / arrival_dmax)")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a repeated key, which safe_load lets win."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode):
                key = (key_node.tag, key_node.value)
                if key in seen:
                    raise ConfigError(f"duplicate config key {key_node.value!r} "
                                      f"at line {key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def parse_config(path: str) -> ExperimentPlan:
    """Load a YAML plan file; unknown, missing and repeated keys raise
    ConfigError naming them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return _build(ExperimentPlan, raw, "")


def _build(cls, raw, prefix: str):
    """Construct dataclass `cls` from mapping `raw`, building each field
    typed as a dataclass from its own sub-mapping."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a mapping "
                          f"of keys to values, got {raw!r}")
    hints = get_type_hints(cls)
    for key in raw:
        if key not in hints:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    kwargs = dict(raw)
    for f in fields(cls):
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing config key: {prefix}{f.name}")
        elif is_dataclass(hints[f.name]):
            kwargs[f.name] = _build(hints[f.name], raw[f.name], f"{prefix}{f.name}.")
    return cls(**kwargs)
