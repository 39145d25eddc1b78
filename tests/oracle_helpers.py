"""Reference computations on the oracle MDP that only the tests need."""

from collections import deque

import numpy as np


def reachable_from_empty(m):
    """Bool mask of states reachable from all-zeros under any actions."""
    mask = np.zeros(m.num_states, dtype=bool)
    start = m.state_index((0,) * (2 * m.num_vms))
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
