"""Task workloads: synthetic generation with slotted arrivals.

A workload is a list of tasks, each with an integer id, a non-negative
arrival slot and a length in million instructions (MI). Lengths are
drawn uniformly from a configured range; arrivals are spread over slots
by a binomial count per slot, drawn iid or from a sticky Markov chain.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import repeat
from math import comb
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ScenarioConfig

# generate_workload gives up if the arrival rows yield this many empty
# slots in a row (e.g. a mean so small the count is always zero).
_MAX_IDLE_SLOTS = 1_000_000

# Most slot uniforms generate_workload takes per rng.random(k) call.
_SLOT_BLOCK_MAX = 4096


class TaskSpec(NamedTuple):
    """One task: identity, arrival slot and length in MI."""

    id: int
    arrival_slot: int
    length: int


# Weight of the previous slot's count in a sticky Markov arrival row.
STICKINESS = 0.5


@lru_cache(maxsize=64)
def _cum_rows(mode: str, d_max: int, mean: float) -> tuple[tuple[float, ...], ...]:
    """Cumulative arrival rows indexed by the previous slot's count.

    Counts are Binomial(d_max, mean/d_max), so E[d] = mean. Mode "iid"
    repeats the pmf's row for every previous count, so one lookup serves
    both modes; mode "markov" rows are STICKINESS*I + (1-STICKINESS)*pmf,
    whose stationary law is the pmf itself. Each row's last entry is
    exactly 1.0, whatever the rounding of the sum, so a bisect of a
    uniform in [0, 1) stays inside 0..d_max. Built once per
    (mode, d_max, mean) and kept as tuples, so no caller can change the
    rows another run draws from.
    """
    k = np.arange(d_max + 1)
    p = mean / d_max
    pmf = np.array([comb(d_max, int(i)) * p**i * (1 - p) ** (d_max - i) for i in k])
    pmf /= pmf.sum()
    if mode == "iid":
        rows = [pmf]
    else:
        rows = STICKINESS * np.eye(d_max + 1) + (1.0 - STICKINESS) * pmf[None, :]
    cum = []
    for row in rows:
        c = np.cumsum(row).tolist()
        c[-1] = 1.0
        cum.append(tuple(c))
    return tuple(cum * (d_max + 1) if mode == "iid" else cum)


def generate_workload(cfg: ScenarioConfig, seed: int, d_max: int) -> list[TaskSpec]:
    """Synthesize cfg.num_tasks tasks with uniform lengths and slotted arrivals.

    Deterministic in (cfg, seed). Ids are assigned 0..n-1 in arrival
    order, so arrival slots are non-decreasing in id. Slots are shifted
    so the first arrival lands in slot 0; makespans then measure the
    span of actual work rather than an arbitrary idle lead-in. Each
    slot's count is one bisect of a uniform into the cumulative row of
    the previous count.

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
                    raise ConfigError(f"scenario.arrival_mean {cfg.arrival_mean!r} "
                                      f"produced no arrivals for too long")
    bitgen.state = start
    bitgen.advance(used)
    first = slots[0]
    lengths = rng.integers(cfg.length_min, cfg.length_max + 1, size=n).tolist()
    # tuple.__new__ is what TaskSpec's own __new__ calls, less its
    # Python-level frame
    return list(map(tuple.__new__, repeat(TaskSpec, n),
                    zip(range(n), [s - first for s in slots], lengths)))

