"""The experiment plan schema and its YAML parser.

The dataclass annotations are the schema: check_fields derives every type
and range check from them, and _build every key and nesting check. A
numeric key declares its range in its annotation, as
Annotated[int, Bound(">=", 1)]; only cross-field and registry rules are
written out in __post_init__. Only the standard library, PyYAML and
errors.py are imported, so parsing loads no numpy.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from numbers import Real
from typing import Annotated, NamedTuple, get_args, get_origin, get_type_hints

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
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class Bound(NamedTuple):
    """A range limit in a field's annotation: the value must be `op limit`."""

    op: str
    limit: int


Count = Annotated[int, Bound(">=", 1)]
Positive = Annotated[float, Bound(">", 0)]
Fraction = Annotated[float, Bound(">=", 0), Bound("<=", 1)]


def check_fields(obj):
    """Raise ConfigError naming the first field of dataclass `obj` whose value
    does not fit its annotation: a type in _TYPES, list[T] (a non-empty list or
    tuple of T, no entry repeated), T | None or Annotated[T, Bound, ...] (T,
    then each bound as one comparison, which NaN fails). Dataclass fields are
    skipped."""
    for key, hint in get_type_hints(type(obj), include_extras=True).items():
        if not is_dataclass(hint):
            _check(key, hint, getattr(obj, key))


def _check(name: str, hint, value):
    if get_origin(hint) is Annotated:
        kind, *bounds = get_args(hint)
        _check(name, kind, value)
        for op, limit in bounds:
            if not _OPS[op](value, limit):
                raise ConfigError(f"{name} must be {op} {limit}, got {value!r}")
    elif type(None) in get_args(hint):
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

    num_tasks: Count
    length_min: Count
    length_max: Annotated[int, Bound("<", 2**63)]   # a numpy int64 draw
    num_vms: Count
    vm_mips: Positive
    buffer_min: Count = 5
    buffer_max: int = 15
    num_pes: Count = 1
    arrival_mode: str = "iid"
    arrival_mean: Positive = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.length_min > self.length_max:
            raise ConfigError(f"length_min must be <= length_max, got "
                              f"{self.length_min} > {self.length_max}")
        if self.buffer_min > self.buffer_max:
            raise ConfigError(f"buffer_min must be <= buffer_max, got "
                              f"{self.buffer_min} > {self.buffer_max}")
        if self.arrival_mode not in ARRIVAL_MODES:
            raise ConfigError(f"arrival_mode must be one of {ARRIVAL_MODES}")


@dataclass
class LearnerConfig:
    gamma: Annotated[float, Bound(">", 0), Bound("<", 1)] = 0.9
    epsilon0: Fraction = 1.0
    total_cycles: Count = 10_000
    repeater_threshold: Count = 500
    lr_exponent: Positive = DEFAULT_LR_EXPONENT

    def __post_init__(self):
        check_fields(self)


@dataclass
class ExperimentPlan:
    scenario: ScenarioConfig
    policies: list[str] = field(default_factory=lambda: list(POLICY_NAMES))
    task_counts: list[Count] | None = None
    buffer_sizes: list[Count] | None = None
    failure_ratios: list[Fraction] = field(default_factory=lambda: [0.0])
    replications: Count = 20
    seed: Annotated[int, Bound(">=", 0)] = 1
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    slot_seconds: Positive = 1.0
    range_mi: Count = DEFAULT_RANGE_MI
    l_cap: Annotated[int, Bound(">=", 0)] = DEFAULT_L_CAP
    # math.comb(arrival_dmax, i) times a float overflows from 1030 up
    arrival_dmax: Annotated[Count, Bound("<=", 1000)] = DEFAULT_D_MAX
    qsch_w_buffer: Fraction = 0.5
    qsch_w_wait: Fraction = 0.5
    max_attempts: Count = DEFAULT_MAX_ATTEMPTS

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
        # a point's ratio reaches its CSV rows and its q-table file names
        for spelled in ({csv_cell(float(f)) for f in self.failure_ratios},
                        {f"{f:g}" for f in self.failure_ratios}):
            if len(spelled) < len(self.failure_ratios):
                raise ConfigError(f"failure_ratios entries must print apart in "
                                  f"the outputs, got {self.failure_ratios!r}")
        if not self.scenario.arrival_mean <= self.arrival_dmax:
            raise ConfigError(f"arrival_mean must be <= arrival_dmax "
                              f"({self.arrival_dmax}): the per-slot count is "
                              f"Binomial(arrival_dmax, mean / arrival_dmax)")


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


def parse_config(path: str, overrides=()) -> ExperimentPlan:
    """Load a YAML plan file, then apply each KEY=VALUE override (_apply);
    unknown, missing and repeated keys raise ConfigError naming them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if isinstance(raw, dict):
        for override in overrides:
            _apply(raw, override)
    return _build(ExperimentPlan, raw, "")


def _apply(raw: dict, override: str):
    """Set the dotted key before the first "=" (learner.gamma walks into,
    or creates, the learner mapping) to the rest read as the file is."""
    key, eq, text = override.partition("=")
    path = key.split(".")
    if not eq or "" in path:
        raise ConfigError(f"override {override!r} must be KEY=VALUE")
    for section in path[:-1]:
        raw = raw.setdefault(section, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"override {override!r}: {section} is not a mapping")
    try:
        raw[path[-1]] = yaml.load(text, Loader=_UniqueKeyLoader)
    except (yaml.YAMLError, ConfigError) as exc:    # ConfigError: a repeated key
        raise ConfigError(f"override {override!r} is not valid YAML: {exc}") from exc


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
