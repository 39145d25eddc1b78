"""Tabular Q-learning with visit-count learning rates.

The table is sparse: a state's row materializes on first touch. The
learning rate for the t-th update of a pair is 1 / (1 + visits^0.65),
exploration is epsilon-greedy with a linearly decaying epsilon, and
training stops when the greedy action of every visited state survives a
whole cycle unchanged or when the repeater budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_LR_EXPONENT, LearnerConfig


def learning_rate(visits: int, exponent: float = DEFAULT_LR_EXPONENT) -> float:
    """Step size for the update following `visits` prior updates of a pair."""
    if visits < 0:
        raise ValueError("visits must be >= 0")
    return 1.0 / (1.0 + visits**exponent)


def decay_epsilon(epsilon0: float, cycle: int, total_cycles: int) -> float:
    """Linear decay epsilon0 * (1 - cycle/total_cycles), clamped at 0."""
    if cycle < 0:
        raise ValueError("cycle must be >= 0")
    if total_cycles < 1:
        raise ValueError("total_cycles must be >= 1")
    return max(0.0, epsilon0 * (1.0 - cycle / total_cycles))


class QTable:
    """Sparse q/visit store keyed by state tuples.

    num_actions is the number of action slots in a state's row: for a
    scheduler, one per VM. greedy_map holds the lowest-index greedy action
    of every state that has received at least one update; it is
    maintained incrementally so the convergence check stays cheap.
    """

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self._q: dict = {}
        self._visits: dict = {}
        self._feasible: dict = {}
        self.greedy_map: dict = {}

    def __len__(self):
        return len(self._q)

    def states(self):
        return self._q.keys()

    def ensure(self, state, feasible):
        """Materialize a state row; records its feasible action set."""
        if state not in self._q:
            self._q[state] = [0.0] * self.num_actions
            self._visits[state] = [0] * self.num_actions
            self._feasible[state] = tuple(feasible)

    def q(self, state, action) -> float:
        row = self._q.get(state)
        return 0.0 if row is None else row[action]

    def visits(self, state, action) -> int:
        row = self._visits.get(state)
        return 0 if row is None else row[action]

    def greedy(self, state, actions=None) -> int:
        """Lowest-index argmax over the state's feasible actions.

        actions (by default the state's recorded feasible set) must be
        distinct action indices in ascending order, as
        ClusterState.feasible_vms returns them: when it is as long as the
        row it is every action, and the argmax is taken over the row.
        """
        if actions is None:
            actions = self._feasible[state]
        row = self._q.get(state)
        if row is None:
            return actions[0]
        if len(actions) == len(row):
            return row.index(max(row))
        return max(actions, key=row.__getitem__)   # the first maximum wins


def select_action(state, table: QTable, epsilon: float,
                  rng: np.random.Generator, actions) -> int:
    """Epsilon-greedy action choice over the feasible actions (not empty).

    With probability epsilon the action is uniform over `actions`;
    otherwise the q-argmax, with exact ties broken uniformly at random.
    `actions` must be distinct action indices in ascending order, as
    ClusterState.feasible_vms returns them: when it is as long as the
    state's row it is every action, and a unique argmax is read off the
    row without indexing it action by action.
    """
    if len(actions) == 1:
        return actions[0]
    if epsilon > 0.0 and rng.random() < epsilon:
        return actions[int(rng.integers(len(actions)))]
    row = table._q.get(state)
    if row is None:
        return actions[int(rng.integers(len(actions)))]
    if len(actions) == len(row):
        best = max(row)
        if row.count(best) == 1:
            return row.index(best)
    else:
        best = max([row[a] for a in actions])
    ties = [a for a in actions if row[a] == best]
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def update_q(table: QTable, state, action, reward_value: float, next_state,
             next_actions, gamma: float,
             lr_exponent: float = DEFAULT_LR_EXPONENT) -> float:
    """One Q-learning backup; returns the new q(state, action).

    The step size comes from the pair's visit count before this update,
    the bootstrap is the max over the next state's feasible actions, and
    the visit count then increments. The state must have been ensure()d.
    The rows are read directly: an unseen next state bootstraps 0, and
    the greedy action is QTable.greedy's, the first maximum. next_actions
    and the state's recorded feasible set follow select_action's
    contract: distinct, ascending, and every action when as long as the
    row, in which case the max is taken over the whole row.
    """
    q_rows = table._q
    visits = table._visits[state]
    n = visits[action]
    beta = learning_rate(n, lr_exponent)
    next_row = q_rows.get(next_state)
    if next_row is None:
        best_next = 0.0
    elif len(next_actions) == len(next_row):
        best_next = max(next_row)
    else:
        best_next = max([next_row[a] for a in next_actions])
    target = reward_value + gamma * best_next
    row = q_rows[state]
    new_q = (1.0 - beta) * row[action] + beta * target
    row[action] = new_q
    visits[action] = n + 1
    assert abs(new_q) <= 1.0 / (1.0 - gamma) + 1e-9, \
        f"|q|={new_q} escapes the reward bound"
    feasible = table._feasible[state]
    table.greedy_map[state] = (row.index(max(row)) if len(feasible) == len(row)
                               else max(feasible, key=row.__getitem__))
    return new_q


@dataclass
class ConvergenceMonitor:
    repeater: int = 0
    best_action_snapshot: dict | None = None


def check_convergence(monitor: ConvergenceMonitor, table: QTable,
                      threshold: int) -> str | None:
    """End-of-cycle stop test: the stop reason, or None to go on.

    "stable" when the greedy action of every visited state matches the
    previous cycle's snapshot (newly visited states count as mismatches),
    else "budget" when the repeater exceeds the threshold. Otherwise
    refreshes the snapshot and increments the repeater, which counts every
    cycle that did not stop: the threshold is a cycle cap, not a count of
    stable cycles, and training that is never stable stops after
    threshold + 2 cycles.
    """
    current = table.greedy_map
    if monitor.best_action_snapshot is not None and monitor.best_action_snapshot == current:
        return "stable"
    if monitor.repeater > threshold:
        return "budget"
    monitor.best_action_snapshot = dict(current)
    monitor.repeater += 1
    return None


@dataclass
class TrainResult:
    table: QTable
    cycles_run: int
    stop_reason: str                 # "stable", "budget" or "schedule"
    trace: list = field(default_factory=list)


def train(env, cfg: LearnerConfig, seed) -> TrainResult:
    """Run epsilon-greedy Q-learning episodes until convergence.

    env protocol: num_actions; reset(rng); episode(agent, rng) calls
    agent(previous action's reward or None, state, actions) -> action per
    decision and returns the final (reward, state, actions), which backs
    up the last action; episode_metrics() -> dict or None, called after
    each episode for the convergence trace.
    """
    rng = np.random.default_rng(seed)
    table = QTable(env.num_actions)
    ensure, rows = table.ensure, table._q
    monitor = ConvergenceMonitor()
    trace = []
    stop_reason = "schedule"
    cycles = 0
    gamma = cfg.gamma
    lr_exponent = cfg.lr_exponent
    prev_state = prev_action = None
    for cycle in range(cfg.total_cycles):
        epsilon = decay_epsilon(cfg.epsilon0, cycle, cfg.total_cycles)

        def agent(reward_value, state, actions):
            nonlocal prev_state, prev_action
            if reward_value is not None:
                update_q(table, prev_state, prev_action, reward_value, state,
                         actions, gamma, lr_exponent)
            if state not in rows:
                ensure(state, actions)
            prev_state = state
            prev_action = select_action(state, table, epsilon, rng, actions)
            return prev_action

        env.reset(rng)
        reward_value, state, actions = env.episode(agent, rng)
        update_q(table, prev_state, prev_action, reward_value, state, actions,
                 gamma, lr_exponent)
        cycles = cycle + 1
        metrics = env.episode_metrics()
        row = {"cycle": cycle, "epsilon": epsilon, "states_seen": len(table)}
        if metrics:
            row.update(metrics)
        trace.append(row)
        if reason := check_convergence(monitor, table, cfg.repeater_threshold):
            stop_reason = reason
            break
    return TrainResult(table=table, cycles_run=cycles,
                       stop_reason=stop_reason, trace=trace)


def export_qtable(table: QTable) -> str:
    """CSV dump of the learned entries: state,action,q,visits.

    States render as dash-joined (b, l) vectors. Only pairs that
    received at least one update appear; rows sort by state then action.
    """
    lines = ["state,action,q,visits"]
    for state in sorted(table.states()):
        key = "-".join(map(str, state))
        q = table._q[state]
        for action, v in enumerate(table._visits[state]):
            if v:
                lines.append(f"{key},{action},{q[action]:.9g},{v}")
    return "\n".join(lines) + "\n"
