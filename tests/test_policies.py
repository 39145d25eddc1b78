"""Baseline selectors and the two learned policies against hand states."""

import numpy as np
import pytest
from scipy import stats

from qlsched.cluster import ClusterState, VmSpec
from qlsched.config import POLICY_NAMES, ExperimentPlan
from qlsched.envs import FreeBufferView, LengthAwareView, encode_state
from qlsched.policies import (
    POLICIES,
    QlearnPolicy,
    QschAgent,
    fifo_select,
    greedy_select,
    mixed_select,
    random_select,
)
from qlsched.qlearn import QTable, update_q
from qlsched.workload import TaskSpec


def make_cluster(capacities, mips=1000.0):
    specs = [VmSpec(mips=mips, buffer_capacity=c, pes=1)
             for i, c in enumerate(capacities)]
    return ClusterState(specs, max_attempts=10, fails=None)


def fill(cluster, occupied, length=1000):
    """Admit `occupied[i]` unit tasks on VM i."""
    tid = 0
    for i, n in enumerate(occupied):
        for _ in range(n):
            cluster.admit(TaskSpec(tid, 0, length), i)
            tid += 1
    return cluster


class FixedDraw:
    """Stub rng whose integer draw is pinned; lets tests steer mixed_select."""

    def __init__(self, value):
        self.value = value

    def integers(self, n):
        assert self.value < n
        return self.value


# -- greedy --------------------------------------------------------------------

def test_greedy_picks_most_free():
    c = fill(make_cluster([5, 5, 5]), [4, 0, 3])  # free (1, 5, 2)
    assert greedy_select(c, None) == 1


def test_greedy_breaks_ties_low_index():
    c = make_cluster([4, 4, 4])  # free (4, 4, 4)
    assert greedy_select(c, None) == 0


def test_greedy_single_free_slot():
    c = fill(make_cluster([2, 2, 2]), [2, 2, 1])  # free (0, 0, 1)
    assert greedy_select(c, None) == 2


# -- fifo ----------------------------------------------------------------------

def test_fifo_empty_cluster_low_index():
    assert fifo_select(make_cluster([3, 3, 3]), None) == 0


def test_fifo_picks_earliest_release():
    c = make_cluster([2, 2, 2])
    for vm, length in enumerate((9000, 2000, 5000)):
        c.admit(TaskSpec(vm, 0, length), vm)
    # head-of-line work frees the VMs at t = 9, 2, 5
    assert fifo_select(c, None) == 1


def test_fifo_skips_full_earliest():
    c = make_cluster([2, 1, 2])
    for vm, length in enumerate((9000, 2000, 5000)):
        c.admit(TaskSpec(vm, 0, length), vm)
    # VM 1 would free first but its buffer is full: next earliest is VM 2
    assert fifo_select(c, None) == 2


def test_fifo_deterministic():
    c = fill(make_cluster([3, 3, 3]), [1, 2, 0])
    assert len({fifo_select(c, None) for _ in range(20)}) == 1


# -- mixed ---------------------------------------------------------------------

def test_mixed_keeps_draw_on_max_free():
    c = fill(make_cluster([3, 3, 3]), [3, 0, 0])  # free (0, 3, 3)
    assert mixed_select(c, FixedDraw(1)) == 1


def test_mixed_redirects_to_max_free():
    c = fill(make_cluster([5, 5, 5]), [4, 0, 3])  # free (1, 5, 2)
    assert mixed_select(c, FixedDraw(0)) == 1
    assert mixed_select(c, FixedDraw(2)) == 1
    assert mixed_select(c, FixedDraw(1)) == 1


def test_mixed_redirect_prefers_lowest_max():
    c = fill(make_cluster([2, 2, 2]), [0, 1, 0])  # free (2, 1, 2)
    assert mixed_select(c, FixedDraw(1)) == 0


def test_mixed_single_vm():
    c = make_cluster([4])
    rng = np.random.default_rng(0)
    assert all(mixed_select(c, rng) == 0 for _ in range(30))


def test_mixed_always_lands_on_max_free():
    # exhaustive over K=3, capacity 2 occupancies and every draw value
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if (i, j, k) == (2, 2, 2):
                    continue
                for draw in range(3):
                    c = fill(make_cluster([2, 2, 2]), [i, j, k])
                    free = c.free_counts()
                    pick = mixed_select(c, FixedDraw(draw))
                    assert free[pick] == max(free)


# -- random --------------------------------------------------------------------

def test_random_single_vm():
    c = make_cluster([3])
    rng = np.random.default_rng(1)
    assert all(random_select(c, rng) == 0 for _ in range(30))


def test_random_uniform_over_free_vms():
    c = make_cluster([3, 3, 3])
    rng = np.random.default_rng(3)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[random_select(c, rng)] += 1
    assert np.all(np.abs(counts / n - 1 / 3) < 0.01)
    assert stats.chisquare(counts).pvalue > 0.01


def test_random_redraw_stays_uniform_over_free():
    # VM 1 full: its draws redistribute evenly over the free VMs
    c = fill(make_cluster([2, 1, 2]), [0, 1, 0])
    rng = np.random.default_rng(4)
    n = 100_000
    counts = {0: 0, 2: 0}
    for _ in range(n):
        pick = random_select(c, rng)
        assert pick in (0, 2)
        counts[pick] += 1
    assert stats.chisquare([counts[0], counts[2]]).pvalue > 0.01


# -- feasibility invariant -------------------------------------------------------

def test_every_policy_returns_a_feasible_vm():
    rng = np.random.default_rng(5)
    qlearn = QlearnPolicy(LengthAwareView(10_000, 40), QTable(5))
    checks = 0
    for _ in range(300):
        k = int(rng.integers(1, 5))
        caps = [int(rng.integers(1, 5)) for _ in range(k)]
        c = make_cluster(caps)
        for tid in range(int(rng.integers(0, sum(caps) + 1))):
            free = c.feasible_vms()
            if not free:
                break
            c.admit(TaskSpec(tid, 0, int(rng.integers(500, 5000))),
                    free[int(rng.integers(len(free)))])
        free = set(c.feasible_vms())
        if not free:
            continue    # the driver never asks about a full cluster
        agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(k))
        picks = [random_select(c, rng), fifo_select(c, None), mixed_select(c, rng),
                 greedy_select(c, None), agent.select(c, rng), qlearn(c, rng)]
        for pick in picks:
            checks += 1
            assert pick in free
    assert checks >= 1000


# -- qsch ----------------------------------------------------------------------

def test_qsch_state_is_free_buffer_vector():
    c = fill(make_cluster([2, 2, 2]), [0, 2, 1])
    agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(3))
    assert agent.view.state(c) == (2, 0, 1)


def test_qsch_state_ignores_task_lengths():
    a = fill(make_cluster([2, 2, 2]), [1, 0, 0], length=1000)
    b = fill(make_cluster([2, 2, 2]), [1, 0, 0], length=90_000)
    agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(3))
    assert agent.view.state(a) == agent.view.state(b)


def test_qsch_reward_free_vm_no_backlog():
    # full free buffer and zero queueing delay: 0.5*1 - 0.5*0
    c = make_cluster([3, 3, 3])
    agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(3))
    assert agent.view.reward(c, 0, agent.view.state(c)) == 0.5


def test_qsch_reward_penalizes_backlog():
    c = make_cluster([2, 2, 2])
    c.admit(TaskSpec(0, 0, 4000), 0)  # VM 0 carries all the backlog
    agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(3))
    state = agent.view.state(c)
    assert agent.view.reward(c, 0, state) == pytest.approx(0.5 * 0.5 - 0.5 * 1.0)
    assert agent.view.reward(c, 1, state) == pytest.approx(0.5 * 1.0 - 0.5 * 0.0)


def test_qsch_zero_table_picks_lowest_index():
    agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(3))
    rng = np.random.default_rng(6)
    assert agent.select(make_cluster([3, 3, 3]), rng) == 0


def test_qsch_exploits_learned_values():
    c = make_cluster([3, 3, 3])
    agent = QschAgent(FreeBufferView(0.5, 0.5), QTable(3))
    state = agent.view.state(c)
    agent.table.ensure(state, (0, 1, 2))
    update_q(agent.table, state, 2, 1.0, ("void",), 0.9, 0.65)
    rng = np.random.default_rng(7)
    assert agent.select(c, rng) == 2


# -- qlearn wrapper --------------------------------------------------------------

def test_qlearn_policy_follows_trained_table():
    c = make_cluster([3, 3, 3])
    table = QTable(4)
    state = encode_state(c, ExperimentPlan.range_mi, ExperimentPlan.l_cap)
    table.ensure(state, (0, 1, 2))
    update_q(table, state, 1, 1.0, ("void",), 0.9, 0.65)
    policy = QlearnPolicy(LengthAwareView(10_000, 40), table)
    rng = np.random.default_rng(10)
    assert all(policy(c, rng) == 1 for _ in range(50))


def test_qlearn_policy_unseen_state_uniform_fallback():
    c = make_cluster([2, 2])
    policy = QlearnPolicy(LengthAwareView(10_000, 40), QTable(3))
    rng = np.random.default_rng(11)
    picks = {policy(c, rng) for _ in range(200)}
    assert picks == {0, 1}


def test_qlearn_policy_state_tracks_cluster_changes():
    c = make_cluster([2, 2])
    policy = QlearnPolicy(LengthAwareView(10_000, 5), QTable(3))
    empty_state = policy.view.state(c)
    c.admit(TaskSpec(0, 0, 25_000), 0)
    assert policy.view.state(c) != empty_state


def test_policy_name_registry():
    # append only: a policy's index seeds its training and evaluation draws
    assert POLICY_NAMES[:6] == ("random", "fifo", "mixed", "greedy", "qsch", "qlearn")
    assert tuple(POLICIES) == POLICY_NAMES
    # a new policy extends this pin and leaves the six indices above as they are
    assert len(POLICY_NAMES) == 6
    assert {name for name, p in POLICIES.items() if p.learns} == {"qsch", "qlearn"}
