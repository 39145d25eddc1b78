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

from .config import POLICY_NAMES
from .envs import FreeBufferView, LengthAwareView
from .qlearn import QTable, select_action


def random_select(cluster, rng: np.random.Generator):
    """Uniform draw over all VMs; full draws redraw over the free ones."""
    free = cluster.feasible_vms()
    pick = int(rng.integers(len(cluster.vms)))
    if pick in free:
        return pick
    return free[int(rng.integers(len(free)))]


def fifo_select(cluster, rng):
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


def greedy_select(cluster, rng):
    """VM with the largest free-buffer count, lowest index on ties."""
    free_counts = cluster.free_counts()
    return free_counts.index(max(free_counts))


class QschAgent:
    """Buffer-state-only Q-learning baseline.

    The table is keyed by the state of a FreeBufferView, the free-buffer
    vector alone. Training explores through SimulationEnv with the same
    view; select is the greedy evaluation choice and breaks ties by
    lowest index (unlike the length-aware scheduler, whose ties are
    resolved at random).
    """

    def __init__(self, view: FreeBufferView, table: QTable):
        self.view = view
        self.table = table

    def select(self, cluster, rng: np.random.Generator):
        return self.table.greedy(self.view.state(cluster),
                                 cluster.feasible_vms())


class QlearnPolicy:
    """Greedy evaluation wrapper around a table trained on a LengthAwareView."""

    def __init__(self, view: LengthAwareView, table: QTable):
        self.view = view
        self.table = table

    def __call__(self, cluster, rng: np.random.Generator):
        return select_action(self.view.state(cluster), self.table, 0.0, rng,
                             cluster.feasible_vms())


class Policy(NamedTuple):
    """Registry entry: how to train a policy, if it learns, and how to run it.

    view(plan) builds a learning policy's view (None for the fixed
    baselines), once per sweep point: training and evaluation share it.
    selector(view, table) returns the select function for evaluation
    runs; view and table are the view and the trained QTable, or None
    when the policy does not learn. The selectors look their functions
    up by name when called, so a function patched on this module or on
    its class is the one that runs.
    """

    view: Callable | None
    selector: Callable

    @property
    def learns(self) -> bool:
        return self.view is not None


# Append only, in config.POLICY_NAMES order: a policy's index seeds its draws.
POLICIES = {
    "random": Policy(None, lambda view, table: random_select),
    "fifo": Policy(None, lambda view, table: fifo_select),
    "mixed": Policy(None, lambda view, table: mixed_select),
    "greedy": Policy(None, lambda view, table: greedy_select),
    "qsch": Policy(
        lambda plan: FreeBufferView(plan.qsch_w_buffer, plan.qsch_w_wait),
        lambda view, table: QschAgent(view, table).select),
    "qlearn": Policy(
        lambda plan: LengthAwareView(plan.range_mi, plan.l_cap),
        lambda view, table: QlearnPolicy(view, table)),
}
if tuple(POLICIES) != POLICY_NAMES:
    raise RuntimeError(f"POLICIES {tuple(POLICIES)} != POLICY_NAMES {POLICY_NAMES}")
