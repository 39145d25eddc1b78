"""State encoding, reward shaping and the enumerable oracle MDP.

The scheduler's state is the vector (B_1..B_K, L-class_1..L-class_K):
per-VM occupied buffer counts followed by per-VM discretized total
assigned lengths (class = floor(total / range), capped). The reward for
assigning to VM a in state s is +1 when a has the fewest occupied
buffers, otherwise -1 when it carries the largest length class,
otherwise 0; the +1 case wins when both apply.

The oracle MDP is a small abstract model of those dynamics (one arrival
per epoch, geometric service) used to certify the learner's policy
against exact value iteration. It is not a timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_RANGE_MI = 10_000
DEFAULT_L_CAP = 40
MAX_ORACLE_STATES = 100_000
# Transition entries per block of the Bellman kernel: 256 KiB of float64
# gather buffer, which stays in L2 across the block's gather, multiply and
# reduce. 2^15 and 2^16 timed best; at 2^12 the per-block Python
# overhead made a sweep slower.
KERNEL_BLOCK = 1 << 15


def encode_state(cluster, range_mi: int = DEFAULT_RANGE_MI,
                 l_cap: int = DEFAULT_L_CAP) -> tuple:
    """Observed scheduler state of a cluster, as a flat tuple of 2K ints.

    Each VM's length class is min(total // range_mi, l_cap) of its total
    assigned length. The arguments are not checked here: LengthAwareView
    checks them once.
    """
    occupied, assigned = cluster.counters()
    return (*occupied,
            *[c if (c := x // range_mi) <= l_cap else l_cap for x in assigned])


def reward(state: tuple, action: int, capacities) -> int:
    """Immediate reward for assigning the arriving task to `action`.

    +1 when the VM has minimal occupied-buffer count (this wins), else -1
    when it has the maximal length class, else 0. `capacities` holds one
    buffer capacity per VM. Raises on infeasible actions (buffer at
    capacity).
    """
    k = len(state) // 2
    b, l = state[:k], state[k:]
    if not (0 <= action < len(b)):
        raise ValueError(f"action {action} out of range for {len(b)} VMs")
    if b[action] >= capacities[action]:
        raise ValueError(f"action {action} infeasible: buffer at capacity")
    if b[action] == min(b):
        return 1
    if l[action] == max(l):
        return -1
    return 0


@dataclass
class OracleMdp:
    """Enumerated abstract scheduling MDP in flattened row/CSR form.

    Action ids 0..K-1 assign the arriving task to that VM; action id K is
    the forced defer used by all-buffers-full states (reward 0, no
    arrival admitted). State s is the row-major index of (B_1..B_K,
    L-class_1..L-class_K) over the shape (n+1,)*K + (c,)*K. Rows for
    state s live at act_indptr[s]:act_indptr[s+1]; act_action maps row to
    action id.
    """

    num_vms: int
    buffer_capacity: int
    num_classes: int
    p_c: float
    gamma: float
    arrival_probs: np.ndarray
    act_indptr: np.ndarray
    act_action: np.ndarray
    row_reward: np.ndarray
    csr_indptr: np.ndarray
    csr_cols: np.ndarray
    csr_probs: np.ndarray

    @property
    def num_states(self) -> int:
        return self.act_indptr.size - 1


def build_oracle_mdp(num_vms: int, buffer_capacity: int, num_classes: int,
                     arrival_probs=None, p_c: float = 0.5, gamma: float = 0.9,
                     max_states: int = MAX_ORACLE_STATES) -> OracleMdp:
    """Enumerate the abstract scheduling MDP.

    Per decision epoch: one task with length class c ~ arrival_probs is
    assigned by the action, then every VM that was busy before the
    assignment completes its head with probability p_c, independently. A
    departure at VM k removes the state-average length share
    floor(l_k / b_k). Kernel rows are exact products of those independent
    events and sum to 1.

    A row's size, and the offset of each (departure mask, arrival class)
    entry within it, follow from its state's busy set alone, through the
    departure-mask weights of that set, so csr_indptr is known before any
    entry is made. Each entry is then written straight into its final CSR
    slot, csr_indptr[row] + offset, with its successor's index computed
    from the state's own index by row-major strides: the build holds no
    copy of the transition entries besides the model's own.
    """
    k, n, c = num_vms, buffer_capacity, num_classes
    if k < 1 or n < 1 or c < 1:
        raise ValueError("need num_vms, buffer_capacity, num_classes >= 1")
    if not (0.0 <= p_c <= 1.0):
        raise ValueError("p_c must be in [0, 1]")
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    if arrival_probs is None:
        arrival_probs = np.full(c, 1.0 / c)
    arrival_probs = np.asarray(arrival_probs, dtype=float)
    # NaN passes both `< 0` and the sum check below, so test finiteness
    if (arrival_probs.shape != (c,) or not np.all(np.isfinite(arrival_probs))
            or np.any(arrival_probs < 0)):
        raise ValueError("arrival_probs must be a finite non-negative vector "
                         "of len num_classes")
    if abs(float(arrival_probs.sum()) - 1.0) > 1e-9:
        raise ValueError("arrival_probs must sum to 1 within 1e-9")

    num_states = (n + 1) ** k * c**k
    if num_states > max_states:
        raise CapacityError(
            f"{num_states} states exceed the enumeration limit {max_states}")

    shape = (n + 1,) * k + (c,) * k
    digits = np.array(np.unravel_index(np.arange(num_states), shape))
    b = digits[:k].T.astype(np.int64)          # (S, K) occupied counts
    l = digits[k:].T.astype(np.int64)          # (S, K) length classes
    busy = b >= 1
    avg = np.where(busy, l // np.maximum(b, 1), 0)

    feas = b < n                               # (S, K)
    n_actions = feas.sum(axis=1)
    n_rows_per_state = np.where(n_actions > 0, n_actions, 1)
    act_indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(n_rows_per_state, out=act_indptr[1:])
    num_rows = int(act_indptr[-1])

    # rank of action a among the feasible actions of each state
    rank = np.cumsum(feas, axis=1) - feas
    act_action = np.full(num_rows, k, dtype=np.int64)  # defer unless overwritten
    row_reward = np.zeros(num_rows, dtype=np.float64)
    b_min = b.min(axis=1)
    l_max = l.max(axis=1)
    for a in range(k):
        sel = feas[:, a]
        rows = act_indptr[:-1][sel] + rank[sel, a]
        act_action[rows] = a
        row_reward[rows] = np.where(b[sel, a] == b_min[sel], 1.0,
                                    np.where(l[sel, a] == l_max[sel], -1.0, 0.0))

    # A departure mask's weight depends only on which VMs are busy, so it
    # is computed per busy set (VM j busy iff bit j is set), with the float
    # products a per-state weight would take. Every VM row of a state has
    # one entry per (mask, class) with weight * arrival_prob > 0, its defer
    # row one per mask with weight > 0: those counts size the CSR rows.
    masks = (np.arange(2**k)[:, None] >> np.arange(k)) & 1   # (2^K, K)
    busy_sets = masks.astype(bool)
    busy_code = busy @ (1 << np.arange(k))     # (S,) busy set of each state

    def mask_prob(depart):
        w = np.ones(2**k)
        for j in range(k):
            if depart[j]:
                w = w * np.where(busy_sets[:, j], p_c, 0.0)
            else:
                w = w * np.where(busy_sets[:, j], 1.0 - p_c, 1.0)
        return w

    vm_len = np.zeros(2**k, dtype=np.int64)
    defer_len = np.zeros(2**k, dtype=np.int64)
    for depart in masks:
        w = mask_prob(depart)
        vm_len += np.count_nonzero(np.multiply.outer(w, arrival_probs) > 0, axis=1)
        defer_len += w > 0
    row_set = busy_code.repeat(n_rows_per_state)
    row_len = np.where(act_action == k, defer_len[row_set], vm_len[row_set])
    assert np.all(row_len > 0), "every row needs transition mass"
    csr_indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_len, out=csr_indptr[1:])
    csr_cols = np.full(int(csr_indptr[-1]), -1, dtype=np.int64)
    csr_probs = np.empty(int(csr_indptr[-1]), dtype=np.float64)

    # Successor columns by row-major strides. Only departures of busy VMs
    # have weight, and a departure at VM j removes one buffer and the
    # average share avg_j <= l_j, so no digit leaves its range: a mask
    # moves state s's index by -(leave[s] @ depart). An arrival of class
    # ci at VM a adds one buffer at a and raises a's length class, capped.
    stride = np.cumprod((1,) + shape[:0:-1])[::-1]
    leave = stride[:k] + avg * stride[k:]      # (S, K)
    # The entry loop's transients, on top of the model's arrays, set the
    # build's peak: free the per-state and per-row tables it does not read.
    del (digits, b, busy, avg, n_actions, n_rows_per_state, b_min, l_max,
         row_set, row_len, sel, rows)

    # Entries per (action, departure mask), all states and arrival classes
    # at once as a (rows, classes) block: only the assigned VM's length
    # digit depends on the class. The defer action admits no arrival: one
    # class of probability 1 (w * 1.0 == w) that moves no digit. A row's
    # entries run in (mask, class) order, so an entry's slot is its row's
    # start plus its offset: the kept entries of the row's busy set under
    # earlier masks (`before`), plus its rank among this mask's kept
    # classes. Outcomes of probability 0 (a departure at an idle VM, or an
    # underflow) are skipped.
    written = 0
    for a in range(k + 1):
        if a < k:
            s = np.flatnonzero(feas[:, a])
            start = csr_indptr[act_indptr[s] + rank[s, a]][:, None]
            l_a = l[s, a][:, None]
            grown = np.minimum(l_a + np.arange(c), c - 1) - l_a
            arrive = (s + stride[a])[:, None] + grown * stride[k + a]
            class_probs = arrival_probs
        else:
            s = np.flatnonzero(~feas.any(axis=1))
            start = csr_indptr[act_indptr[s]][:, None]
            arrive = s[:, None]
            class_probs = np.ones(1)
        sets = busy_code[s]
        leave_a = leave[s]
        before = np.zeros(2**k, dtype=np.int64)
        for depart in masks:
            p_set = np.multiply.outer(mask_prob(depart), class_probs)  # (set, class)
            keep_set = p_set > 0
            offset = before[:, None] + np.cumsum(keep_set, axis=1) - keep_set
            before += keep_set.sum(axis=1)
            keep = keep_set[sets]              # (rows, classes)
            slot = (start + offset[sets])[keep]
            csr_cols[slot] = (arrive - (leave_a @ depart)[:, None])[keep]
            csr_probs[slot] = p_set[sets][keep]
            written += slot.size
    # csr_cols was filled with -1: as many writes as slots, none left at
    # -1, means each slot was written exactly once.
    assert written == csr_cols.size and csr_cols.min() >= 0, \
        "every slot is written exactly once"

    return OracleMdp(
        num_vms=k, buffer_capacity=n, num_classes=c, p_c=p_c, gamma=gamma,
        arrival_probs=arrival_probs, act_indptr=act_indptr,
        act_action=act_action, row_reward=row_reward, csr_indptr=csr_indptr,
        csr_cols=csr_cols, csr_probs=csr_probs)


@dataclass
class ValueIterationResult:
    values: np.ndarray
    policy: np.ndarray      # action id per state (num_vms means defer)
    deltas: list
    sweeps: int


def _row_blocks(csr_indptr: np.ndarray) -> list[int]:
    """Row bounds of the kernel's blocks, from 0 to the number of rows.

    Each block is the longest run of whole rows with at most KERNEL_BLOCK
    transition entries, or a single row when that row alone is longer.
    """
    num_rows = csr_indptr.size - 1
    bounds = [0]
    while bounds[-1] < num_rows:
        r0 = bounds[-1]
        r1 = int(np.searchsorted(csr_indptr, csr_indptr[r0] + KERNEL_BLOCK,
                                 side="right")) - 1
        bounds.append(max(r1, r0 + 1))
    return bounds


def action_values(mdp: OracleMdp, values: np.ndarray,
                  out: np.ndarray | None = None,
                  bounds: list[int] | None = None) -> np.ndarray:
    """Per-row q(s,a) = r + gamma * E[v(s')] for the given value vector.

    The one Bellman kernel: every sweep of value_iteration and its greedy
    extraction read it. It runs over blocks of whole rows (_row_blocks),
    so its gather buffer is block-sized and stays in cache. Each row's
    expectation is the same reduceat over the same products, in the same
    order, as over the whole kernel at once, so q does not depend on
    KERNEL_BLOCK to the last bit. `out`, a float64 buffer at least as
    long as the largest block, takes the gathered successor values in
    place of a fresh array per block; its gather clips column indices,
    so whoever passes it checks the columns first (value_iteration does,
    once per solve). Without `out` a column past the end of `values`
    raises IndexError. `bounds`, the kernel's _row_blocks, is computed
    when not given.
    """
    indptr, cols, probs = mdp.csr_indptr, mdp.csr_cols, mdp.csr_probs
    q = np.empty(indptr.size - 1, dtype=np.float64)
    bounds = _row_blocks(indptr) if bounds is None else bounds
    for r0, r1 in zip(bounds, bounds[1:]):
        e0, e1 = indptr[r0], indptr[r1]
        if out is None:
            buf = values[cols[e0:e1]]
        else:
            buf = np.take(values, cols[e0:e1], out=out[:e1 - e0], mode="clip")
        buf *= probs[e0:e1]
        np.add.reduceat(buf, indptr[r0:r1] - e0, out=q[r0:r1])
    q *= mdp.gamma
    q += mdp.row_reward      # gamma*x + r is r + gamma*x: float addition commutes
    return q


def value_iteration(mdp: OracleMdp, tol: float = 1e-8,
                    max_sweeps: int = 100_000) -> ValueIterationResult:
    """Solve the MDP to max-norm tolerance tol; ties go to the lowest action.

    One gather buffer, the size of action_values' largest block, and one
    set of block bounds serve every sweep and the greedy extraction.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    cols = mdp.csr_cols
    if cols.size and (cols.min() < 0 or cols.max() >= mdp.num_states):
        raise IndexError(f"transition columns must lie in [0, {mdp.num_states})")
    bounds = _row_blocks(mdp.csr_indptr)
    buf = np.empty(int(np.diff(mdp.csr_indptr[bounds]).max(initial=0)),
                   dtype=np.float64)
    starts = mdp.act_indptr[:-1]
    v = np.zeros(mdp.num_states, dtype=np.float64)
    deltas = []
    for sweep in range(1, max_sweeps + 1):
        v_new = np.maximum.reduceat(action_values(mdp, v, buf, bounds), starts)
        delta = float(np.max(np.abs(v_new - v)))
        deltas.append(delta)
        v = v_new
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach tol={tol} "
                           f"in {max_sweeps} sweeps")
    # lowest row among each state's maxima; rows run in action order
    q = action_values(mdp, v, buf, bounds)
    is_max = q >= np.repeat(np.maximum.reduceat(q, starts), np.diff(mdp.act_indptr))
    best_rows = np.minimum.reduceat(np.where(is_max, np.arange(q.size), q.size),
                                    starts)
    return ValueIterationResult(values=v, policy=mdp.act_action[best_rows],
                                deltas=deltas, sweeps=len(deltas))
