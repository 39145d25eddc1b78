"""Tabular Q-learning with visit-count learning rates.

The table is sparse: a state's row materializes on first touch, -inf at
the actions the state cannot take. The learning rate for the t-th update
of a pair is 1 / (1 + visits^0.65), exploration is epsilon-greedy with a
linearly decaying epsilon, and training stops when the greedy action of
every visited state survives a whole cycle unchanged or when the cycle
cap runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import LearnerConfig


def learning_rate(visits: int, exponent: float) -> float:
    """Step size for the update following `visits` prior updates of a pair."""
    return 1.0 / (1.0 + visits**exponent)


def decay_epsilon(epsilon0: float, cycle: int, total_cycles: int) -> float:
    """Linear decay epsilon0 * (1 - cycle/total_cycles), clamped at 0."""
    return max(0.0, epsilon0 * (1.0 - cycle / total_cycles))


class QTable:
    """Sparse q/visit store keyed by state tuples.

    num_actions is the number of action slots in a state's row: for a
    scheduler, one per VM. A row holds -inf at the actions its state
    cannot take, so its max is the feasible max. greedy_map is the one
    record of each updated state's greedy action, its row's first argmax:
    update_q keeps it, greedy reads it and the stop rule compares it.
    """

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self._q: dict = {}
        self._visits: dict = {}
        self.greedy_map: dict = {}

    def __len__(self):
        return len(self._q)

    def states(self):
        return self._q.keys()

    def ensure(self, state, feasible):
        """Materialize a state row: 0.0 at its feasible actions, else -inf."""
        if state not in self._q:
            self._q[state] = [0.0 if a in feasible else -np.inf
                              for a in range(self.num_actions)]
            self._visits[state] = [0] * self.num_actions

    def visits(self, state, action) -> int:
        row = self._visits.get(state)
        return 0 if row is None else row[action]

    def greedy(self, state, actions) -> int:
        """The state's greedy_map entry; the first of `actions` (its
        feasible actions, ascending) when it has none. Rows change only
        through update_q, and an ensured row that was never updated has its
        first argmax at actions[0], so this is the row's first argmax."""
        return self.greedy_map.get(state, actions[0])


def select_action(state, table: QTable, epsilon: float,
                  rng: np.random.Generator, actions) -> int:
    """Epsilon-greedy action choice over the feasible actions (not empty).

    With probability epsilon the action is uniform over `actions`;
    otherwise the q-argmax, with exact ties broken uniformly at random.
    `actions` are the state's feasible actions in ascending order, as
    ClusterState.feasible_vms returns them; a seen state's row holds -inf
    at every other action, so its max is the feasible max.
    """
    if len(actions) == 1:
        return actions[0]
    row = table._q.get(state)
    if (epsilon > 0.0 and rng.random() < epsilon) or row is None:
        return actions[int(rng.integers(len(actions)))]   # explore, or unseen
    best = max(row)
    if row.count(best) == 1:
        return row.index(best)
    ties = [a for a in actions if row[a] == best]
    return ties[int(rng.integers(len(ties)))]


def update_q(table: QTable, state, action, reward_value: float, next_state,
             gamma: float, lr_exponent: float) -> float:
    """One Q-learning backup; returns the new q(state, action).

    The step size comes from the pair's visit count before this update,
    the bootstrap is the max of the next state's row (0 when unseen), and
    the visit count then increments. The state must have been ensure()d
    and the action be feasible there: a masked one breaks the reward bound
    and raises ValueError before the table changes. The greedy action is
    QTable.greedy's, the first maximum.
    """
    q_rows = table._q
    visits = table._visits[state]
    n = visits[action]
    beta = learning_rate(n, lr_exponent)
    next_row = q_rows.get(next_state)
    target = reward_value + gamma * (0.0 if next_row is None else max(next_row))
    row = q_rows[state]
    new_q = (1.0 - beta) * row[action] + beta * target
    if not abs(new_q) <= 1.0 / (1.0 - gamma) + 1e-9:
        raise ValueError(f"|q|={new_q} escapes the reward bound")
    row[action] = new_q
    visits[action] = n + 1
    table.greedy_map[state] = row.index(max(row))
    return new_q


def check_convergence(previous: dict | None, current: dict, cycle: int,
                      threshold: int) -> str | None:
    """End-of-cycle stop test: the stop reason, or None to go on.

    "stable" when the greedy map `current` equals `previous`, the map
    after the last cycle that did not stop (None before the first check;
    newly visited states count as mismatches), else "budget" when the
    0-based `cycle` exceeds the threshold. The threshold is a cycle cap,
    not a count of stable cycles: training that is never stable stops
    after threshold + 2 cycles.
    """
    if previous == current:
        return "stable"
    if cycle > threshold:
        return "budget"
    return None


@dataclass
class TrainResult:
    """A trained table, why training stopped ("stable", "budget" or
    "schedule") and one trace row per cycle run."""
    table: QTable
    stop_reason: str
    trace: list = field(default_factory=list)

    @property
    def cycles_run(self) -> int:
        return len(self.trace)


def train(env, cfg: LearnerConfig, seed) -> TrainResult:
    """Run epsilon-greedy Q-learning episodes until check_convergence stops
    them, or for cfg.total_cycles ("schedule").

    env protocol: num_actions; reset(rng); episode(agent, rng) calls
    agent(previous action's reward or None, state, actions) -> action per
    decision and returns the final (reward, state), which backs up the
    last action; episode_metrics() -> dict or None, for the trace.
    """
    rng = np.random.default_rng(seed)
    table = QTable(env.num_actions)
    ensure, rows = table.ensure, table._q
    trace, stop_reason, previous = [], "schedule", None
    gamma, lr_exponent = cfg.gamma, cfg.lr_exponent
    prev_state = prev_action = None
    for cycle in range(cfg.total_cycles):
        epsilon = decay_epsilon(cfg.epsilon0, cycle, cfg.total_cycles)

        def agent(reward_value, state, actions):
            nonlocal prev_state, prev_action
            if reward_value is not None:
                update_q(table, prev_state, prev_action, reward_value, state,
                         gamma, lr_exponent)
            if state not in rows:
                ensure(state, actions)
            prev_state = state
            prev_action = select_action(state, table, epsilon, rng, actions)
            return prev_action

        env.reset(rng)
        reward_value, state = env.episode(agent, rng)
        update_q(table, prev_state, prev_action, reward_value, state, gamma,
                 lr_exponent)
        trace.append({"cycle": cycle, "epsilon": epsilon, "states_seen": len(table),
                      **(env.episode_metrics() or {})})
        if reason := check_convergence(previous, table.greedy_map, cycle,
                                       cfg.repeater_threshold):
            stop_reason = reason
            break
        previous = dict(table.greedy_map)
    return TrainResult(table=table, stop_reason=stop_reason, trace=trace)


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
