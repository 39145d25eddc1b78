"""Task workloads: trace parsing, synthetic generation and slotted arrivals.

A workload is a list of tasks, each with an integer id, a non-negative
arrival slot and a length in million instructions (MI). Traces are CSV
lines ``id,arrival_slot,length_mi`` with an optional header. Synthetic
workloads draw lengths uniformly from a configured range and spread
arrivals over slots according to an arrival model (iid or Markov counts
per slot).
"""

from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, TraceParseError, require_int, require_real

DEFAULT_D_MAX = 5
ARRIVAL_MODES = ("iid", "markov")

# generate_workload gives up if the arrival model yields this many empty
# slots in a row (e.g. a point mass on zero arrivals).
_MAX_IDLE_SLOTS = 1_000_000

# Most slot uniforms generate_workload takes per rng.random(k) call.
_SLOT_BLOCK_MAX = 4096


class TaskSpec(NamedTuple):
    """One task: identity, arrival slot and length in MI."""

    id: int
    arrival_slot: int
    length: int


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
        for key in ("num_tasks", "length_min", "length_max", "num_vms",
                    "buffer_min", "buffer_max", "num_pes"):
            require_int(key, getattr(self, key))
        for key in ("vm_mips", "arrival_mean"):
            require_real(key, getattr(self, key))
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
class ArrivalModel:
    """Distribution of the per-slot arrival count d_n on {0..d_max}.

    mode "iid": each slot draws from `probs` independently.
    mode "markov": `matrix[prev]` is the distribution of the next count,
    rows indexed by the previous slot's count.
    `_cum` holds the cumulative rows as Python lists (one row for iid).
    Each row's last entry is exactly 1.0, whatever the rounding of the
    sum, so a bisect of a uniform in [0, 1) stays inside 0..d_max.
    """

    mode: str
    probs: np.ndarray | None = None
    matrix: np.ndarray | None = None
    _cum: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode == "iid":
            p = np.asarray(self.probs, dtype=float)
            if p.ndim != 1 or p.size < 1:
                raise ConfigError("iid arrival probs must be a 1-d vector")
            self._check_row(p)
            self.probs = p
            self._cum = [_cumulative(p)]
        elif self.mode == "markov":
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConfigError("markov arrival matrix must be square")
            for row in m:
                self._check_row(row)
            self.matrix = m
            self._cum = [_cumulative(row) for row in m]
        else:
            raise ConfigError(f"arrival mode must be one of {ARRIVAL_MODES}")

    @staticmethod
    def _check_row(row):
        if np.any(row < 0):
            raise ConfigError("arrival probabilities must be non-negative")
        if abs(float(row.sum()) - 1.0) > 1e-9:
            raise ConfigError("arrival probability rows must sum to 1 within 1e-9")

    @property
    def d_max(self) -> int:
        n = self.probs.size if self.mode == "iid" else self.matrix.shape[0]
        return n - 1

    @classmethod
    def iid_binomial(cls, d_max: int = DEFAULT_D_MAX, mean: float = 1.0) -> "ArrivalModel":
        """iid counts ~ Binomial(d_max, mean/d_max), so E[d] = mean."""
        if not (0 < mean <= d_max):
            raise ConfigError("need 0 < mean <= d_max for binomial arrivals")
        k = np.arange(d_max + 1)
        p = mean / d_max
        from math import comb

        pmf = np.array([comb(d_max, int(i)) * p**i * (1 - p) ** (d_max - i) for i in k])
        pmf /= pmf.sum()
        return cls(mode="iid", probs=pmf)

    @classmethod
    def markov_sticky(cls, d_max: int = DEFAULT_D_MAX, mean: float = 1.0,
                      stickiness: float = 0.5) -> "ArrivalModel":
        """Sticky chain: rows = stickiness*I + (1-stickiness)*binomial pmf.

        The stationary distribution is the binomial itself, so the
        long-run mean arrival count stays `mean`.
        """
        base = cls.iid_binomial(d_max, mean).probs
        m = stickiness * np.eye(d_max + 1) + (1.0 - stickiness) * base[None, :]
        return cls(mode="markov", matrix=m)


def _cumulative(row) -> list[float]:
    """Cumulative sums of a checked probability row, ending at exactly 1.0."""
    cum = np.cumsum(row).tolist()
    cum[-1] = 1.0
    return cum


def _arrival_model(mode: str, d_max: int, mean: float) -> ArrivalModel:
    if mode == "iid":
        return ArrivalModel.iid_binomial(d_max, mean)
    return ArrivalModel.markov_sticky(d_max, mean)


def arrival_model_for(cfg: ScenarioConfig, d_max: int = DEFAULT_D_MAX) -> ArrivalModel:
    """A fresh arrival model for cfg; the caller may change it freely."""
    return _arrival_model(cfg.arrival_mode, d_max, cfg.arrival_mean)


@lru_cache(maxsize=64)
def _cum_rows(mode: str, d_max: int, mean: float) -> tuple[tuple[float, ...], ...]:
    """Cumulative arrival rows indexed by the previous slot's count.

    Built once per (mode, d_max, mean) and kept as tuples, so no caller
    can change the rows another run draws from. An iid model repeats its
    one row for every count 0..d_max, so one lookup serves both modes.
    """
    cum = _arrival_model(mode, d_max, mean)._cum
    if mode == "iid":
        cum = cum * len(cum[0])
    return tuple(tuple(row) for row in cum)


def sample_arrivals(model: ArrivalModel, prev: int, rng: np.random.Generator) -> int:
    """Draw one slot's arrival count; `prev` is the previous slot's count."""
    if not (0 <= prev <= model.d_max):
        raise ValueError(f"prev count {prev} outside support 0..{model.d_max}")
    cum = model._cum[0 if model.mode == "iid" else prev]
    return bisect_right(cum, rng.random())


def generate_workload(cfg: ScenarioConfig, seed: int,
                      d_max: int = DEFAULT_D_MAX) -> list[TaskSpec]:
    """Synthesize cfg.num_tasks tasks with uniform lengths and slotted arrivals.

    Deterministic in (cfg, seed). Ids are assigned 0..n-1 in arrival
    order, so arrival slots are non-decreasing in id. Slots are shifted
    so the first arrival lands in slot 0; makespans then measure the
    span of actual work rather than an arbitrary idle lead-in. Each
    slot's count is one bisect of a uniform into the cumulative row of
    the previous count, the draw sample_arrivals makes.

    The slot uniforms come in blocks of rng.random(k), which yields the
    same doubles as k scalar rng.random() calls; the generator is then
    put back where one scalar call per slot would have left it, so the
    lengths that follow are drawn from the same position.
    """
    rng = np.random.default_rng(seed)
    rows = _cum_rows(cfg.arrival_mode, d_max, cfg.arrival_mean)
    n = cfg.num_tasks
    bitgen = rng.bit_generator
    start = bitgen.state
    # about n / arrival_mean slots hold n arrivals, so one block with a
    # margin usually serves the whole loop; a short one is followed by more
    block = min(int(n / cfg.arrival_mean * 1.25) + 16, _SLOT_BLOCK_MAX)
    slots: list[int] = []
    used = 0    # slot uniforms drawn so far; one more than the current slot
    d = 0
    idle = 0
    while len(slots) < n:
        for u in rng.random(block).tolist():
            used += 1
            d = bisect_right(rows[d], u)
            if d:
                slots.extend([used] * d)
                if len(slots) >= n:
                    break
                idle = 0
            else:
                idle += 1
                if idle > _MAX_IDLE_SLOTS:
                    raise ConfigError("arrival model produced no arrivals for too long")
    bitgen.state = start
    bitgen.advance(used)
    first = slots[0]
    lengths = rng.integers(cfg.length_min, cfg.length_max + 1, size=n).tolist()
    # tuple.__new__ is what TaskSpec's own __new__ calls, less its
    # Python-level frame
    return list(map(tuple.__new__, repeat(TaskSpec, n),
                    zip(range(n), [s - first for s in slots], lengths)))


def serialize(tasks: list[TaskSpec]) -> str:
    """Render tasks as a trace: header plus one id,arrival_slot,length_mi line each."""
    lines = ["id,arrival_slot,length_mi"]
    lines.extend(f"{t.id},{t.arrival_slot},{t.length}" for t in tasks)
    return "\n".join(lines) + "\n"


def parse_trace(raw) -> list[TaskSpec]:
    """Parse a CSV trace into TaskSpecs.

    Accepts a string, an open text file or any iterable of lines. An
    optional header line is skipped. Errors carry 1-based file line
    numbers.
    """
    if isinstance(raw, str):
        lines = io.StringIO(raw)
    else:
        lines = raw
    tasks: list[TaskSpec] = []
    seen: set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = [p.strip() for p in text.split(",")]
        if lineno == 1 and not _is_data_row(parts):
            continue  # header
        if len(parts) != 3:
            raise TraceParseError(f"malformed row (expected 3 fields) at line {lineno}")
        try:
            tid, slot, length = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise TraceParseError(f"malformed row (non-integer field) at line {lineno}") from None
        if tid < 0:
            raise TraceParseError(f"negative id at line {lineno}")
        if slot < 0:
            raise TraceParseError(f"negative arrival slot at line {lineno}")
        if length <= 0:
            raise TraceParseError(f"non-positive length at line {lineno}")
        if tid in seen:
            raise TraceParseError(f"duplicate id {tid} at line {lineno}")
        seen.add(tid)
        tasks.append(TaskSpec(tid, slot, length))
    return tasks


def _is_data_row(parts) -> bool:
    try:
        [int(p) for p in parts]
        return True
    except ValueError:
        return False
