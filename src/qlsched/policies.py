"""Scheduling policies: four classic baselines, a buffer-only learner and
the length-aware Q-learning scheduler's evaluation wrapper.

Every select function takes the live cluster and returns the index of
a VM with a free buffer slot. The driver asks only while some buffer
has space; a task that arrives at a full cluster waits in the global
queue until a completion frees a slot.

POLICIES is the one registry of policy names (see the end of the module).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_L_CAP, DEFAULT_RANGE_MI, POLICY_NAMES
from .envs import FreeBufferView, LengthAwareView
from .qlearn import QTable, select_action


def random_select(cluster, rng: np.random.Generator):
    """Uniform draw over all VMs; full draws redraw over the free ones."""
    free = cluster.feasible_vms()
    pick = int(rng.integers(len(cluster.vms)))
    if pick in free:
        return pick
    return free[int(rng.integers(len(free)))]


def fifo_select(cluster, rng=None):
    """VM whose head-of-line work finishes earliest, among those with space."""
    free = cluster.feasible_vms()
    clock = cluster.clock
    return min(free, key=lambda i: (cluster.vms[i].available_at(clock), i))


def mixed_select(cluster, rng: np.random.Generator):
    """Random draw, corrected to the max-free-buffer VM when the draw is not one."""
    free_counts = cluster.free_counts()
    top = max(free_counts)
    pick = int(rng.integers(len(cluster.vms)))
    if free_counts[pick] == top:
        return pick
    return free_counts.index(top)  # lowest index among the maxima


def greedy_select(cluster, rng=None):
    """VM with the largest free-buffer count, lowest index on ties."""
    free_counts = cluster.free_counts()
    return free_counts.index(max(free_counts))


class QschAgent:
    """Buffer-state-only Q-learning baseline.

    The table is keyed by the free-buffer vector alone. Training explores
    through SimulationEnv; select is the greedy evaluation choice and
    breaks ties by lowest index (unlike the length-aware scheduler, whose
    ties are resolved at random).
    """

    def __init__(self, num_vms: int, w_buffer: float = 0.5, w_wait: float = 0.5,
                 table: QTable | None = None):
        self.view = FreeBufferView(w_buffer, w_wait)
        self.table = table if table is not None else QTable(num_vms)

    def select(self, cluster, rng: np.random.Generator):
        return self.table.greedy(self.view.state(cluster),
                                 cluster.feasible_vms())


class QlearnPolicy:
    """Greedy evaluation wrapper around a trained length-aware table."""

    def __init__(self, table: QTable, range_mi: int = DEFAULT_RANGE_MI,
                 l_cap: int = DEFAULT_L_CAP):
        self.table = table
        self.view = LengthAwareView(range_mi, l_cap)

    def __call__(self, cluster, rng: np.random.Generator):
        return select_action(self.view.state(cluster), self.table, 0.0, rng,
                             cluster.feasible_vms())


class Policy(NamedTuple):
    """Registry entry: how to train a policy, if it learns, and how to run it.

    view(plan) is the training view of a learning policy (None for the
    fixed baselines). selector(plan, trained) returns the select function
    for evaluation runs; trained is the TrainResult, or None when the
    policy does not learn. The selectors look their functions up by name
    when called, so a function patched on this module or on its class
    is the one that runs.
    """

    view: Callable | None
    selector: Callable

    @property
    def learns(self) -> bool:
        return self.view is not None


def _qsch_selector(plan, trained):
    agent = QschAgent(plan.scenario.num_vms, plan.qsch_w_buffer,
                      plan.qsch_w_wait, table=trained.table)
    return lambda cluster, rng: agent.select(cluster, rng)


# Append only, in config.POLICY_NAMES order: a policy's index seeds its draws.
POLICIES = {
    "random": Policy(None, lambda plan, trained: random_select),
    "fifo": Policy(None, lambda plan, trained: fifo_select),
    "mixed": Policy(None, lambda plan, trained: mixed_select),
    "greedy": Policy(None, lambda plan, trained: greedy_select),
    "qsch": Policy(
        lambda plan: FreeBufferView(plan.qsch_w_buffer, plan.qsch_w_wait),
        _qsch_selector),
    "qlearn": Policy(
        lambda plan: LengthAwareView(plan.range_mi, plan.l_cap),
        lambda plan, trained: QlearnPolicy(trained.table, plan.range_mi,
                                           plan.l_cap)),
}
if tuple(POLICIES) != POLICY_NAMES:
    raise RuntimeError(f"POLICIES {tuple(POLICIES)} != POLICY_NAMES {POLICY_NAMES}")
