"""Oracle MDP lookups, rollouts and reference computations for the tests.

The run path only builds an OracleMdp and solves it. The tests also walk
it state by state: these functions read an OracleMdp's arrays to do so,
and OracleEnv rolls it out for the Q-learning loop.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np


def shape(m):
    """Digit ranges of a state: K buffer counts, then K length classes."""
    k, n, c = m.num_vms, m.buffer_capacity, m.num_classes
    return (n + 1,) * k + (c,) * k


def state_index(m, state):
    return int(np.ravel_multi_index(state, shape(m)))


def index_state(m, idx):
    return tuple(int(x) for x in np.unravel_index(idx, shape(m)))


def feasible_actions(m, state):
    """VM actions open in `state`; [defer] (action K) when every buffer is full."""
    acts = [i for i, b in enumerate(state[:m.num_vms]) if b < m.buffer_capacity]
    return acts if acts else [m.num_vms]


def row_of(m, idx, action):
    for r in range(m.act_indptr[idx], m.act_indptr[idx + 1]):
        if m.act_action[r] == action:
            return int(r)
    raise ValueError(f"action {action} infeasible in state {index_state(m, idx)}")


def sample_next(m, idx, action, rng):
    """Draw a successor state index of (idx, action) from the kernel."""
    r = row_of(m, idx, action)
    lo, hi = m.csr_indptr[r], m.csr_indptr[r + 1]
    cum = np.cumsum(m.csr_probs[lo:hi])
    j = int(np.searchsorted(cum, rng.random(), side="right"))
    return int(m.csr_cols[lo + min(j, cum.size - 1)])  # guard the 1.0-boundary draw


class OracleEnv:
    """Fixed-horizon rollouts of an OracleMdp, starting from the empty state."""

    def __init__(self, oracle, horizon=50):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.mdp = oracle
        self.horizon = horizon
        self.num_actions = oracle.num_vms + 1

    def reset(self, rng):
        """Every episode starts from the empty state: nothing to draw."""

    def episode(self, agent, rng):
        """horizon decisions: the agent's pick, its reward, then the draw
        of the successor state; returns the last reward and the state the
        rollout ends in."""
        m = self.mdp
        idx = state_index(m, (0,) * (2 * m.num_vms))
        reward_value = None
        for _ in range(self.horizon):
            state = index_state(m, idx)
            action = agent(reward_value, state, feasible_actions(m, state))
            reward_value = float(m.row_reward[row_of(m, idx, action)])
            idx = sample_next(m, idx, action, rng)
        return reward_value, index_state(m, idx)

    def episode_metrics(self):
        return None


def reachable_from_empty(m):
    """Bool mask of states reachable from all-zeros under any actions."""
    mask = np.zeros(m.num_states, dtype=bool)
    start = state_index(m, (0,) * (2 * m.num_vms))
    mask[start] = True
    frontier = deque([start])
    while frontier:
        s = frontier.popleft()
        for r in range(m.act_indptr[s], m.act_indptr[s + 1]):
            for e in range(m.csr_indptr[r], m.csr_indptr[r + 1]):
                if m.csr_probs[e] <= 0.0:
                    continue
                nxt = int(m.csr_cols[e])
                if not mask[nxt]:
                    mask[nxt] = True
                    frontier.append(nxt)
    return mask


def reference_build(num_vms, buffer_capacity, num_classes, p_c=0.5):
    """The oracle MDP, its arrival classes uniform, built by concatenating
    per-(action, mask, class) entry lists and stable-sorting them by row:
    build_oracle_mdp must give the same arrays, value for value and dtype
    for dtype."""
    k, n, c = num_vms, buffer_capacity, num_classes
    arrival_prob = 1.0 / c
    num_states = (n + 1) ** k * c**k
    shape = (n + 1,) * k + (c,) * k
    digits = np.array(np.unravel_index(np.arange(num_states), shape))
    b = digits[:k].T.astype(np.int64)
    l = digits[k:].T.astype(np.int64)
    busy = b >= 1
    avg = np.where(busy, l // np.maximum(b, 1), 0)

    feas = b < n
    n_actions = feas.sum(axis=1)
    act_indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(np.where(n_actions > 0, n_actions, 1), out=act_indptr[1:])
    num_rows = int(act_indptr[-1])
    rank = np.cumsum(feas, axis=1) - feas
    act_action = np.full(num_rows, k, dtype=np.int64)
    row_reward = np.zeros(num_rows, dtype=np.float64)
    b_min = b.min(axis=1)
    l_max = l.max(axis=1)
    for a in range(k):
        sel = feas[:, a]
        rows = act_indptr[:-1][sel] + rank[sel, a]
        act_action[rows] = a
        row_reward[rows] = np.where(b[sel, a] == b_min[sel], 1.0,
                                    np.where(l[sel, a] == l_max[sel], -1.0, 0.0))

    masks = [np.array([(m >> j) & 1 for j in range(k)], dtype=np.int64)
             for m in range(2**k)]

    def mask_prob(depart):
        w = np.ones(num_states)
        for j in range(k):
            if depart[j]:
                w = w * np.where(busy[:, j], p_c, 0.0)
            else:
                w = w * np.where(busy[:, j], 1.0 - p_c, 1.0)
        return w

    ent_rows, ent_cols, ent_probs = [], [], []
    for a in range(k):
        sel = feas[:, a]
        rows_a = act_indptr[:-1][sel] + rank[sel, a]
        for depart in masks:
            w = mask_prob(depart)[sel]
            b2 = b[sel] + np.eye(k, dtype=np.int64)[a][None, :] - depart[None, :] * busy[sel]
            for ci in range(c):
                p = w * arrival_prob
                keep = p > 0
                l_arr = l[sel].copy()
                l_arr[:, a] = np.minimum(l_arr[:, a] + ci, c - 1)
                l2 = np.maximum(l_arr - avg[sel] * depart[None, :], 0)
                ent_rows.append(rows_a[keep])
                ent_cols.append(np.ravel_multi_index(
                    tuple(b2[keep].T) + tuple(l2[keep].T), shape))
                ent_probs.append(p[keep])
    full = ~feas.any(axis=1)
    rows_d = act_indptr[:-1][full]
    for depart in masks:
        w = mask_prob(depart)[full]
        keep = w > 0
        b2 = b[full] - depart[None, :] * busy[full]
        l2 = np.maximum(l[full] - avg[full] * depart[None, :], 0)
        ent_rows.append(rows_d[keep])
        ent_cols.append(np.ravel_multi_index(tuple(b2[keep].T) + tuple(l2[keep].T), shape))
        ent_probs.append(w[keep])

    rows = np.concatenate(ent_rows)
    order = np.argsort(rows, kind="stable")
    csr_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=csr_indptr[1:])
    return SimpleNamespace(
        act_indptr=act_indptr, act_action=act_action, row_reward=row_reward,
        csr_indptr=csr_indptr,
        csr_cols=np.concatenate(ent_cols)[order].astype(np.int32),
        csr_probs=np.concatenate(ent_probs)[order].astype(np.float64))
