"""The enumerable oracle MDP: an abstract model of the scheduler's
decisions (one arrival per epoch, geometric service) over the state and
reward of envs.encode_state and envs.reward, used to certify the learner's
policy against exact value iteration. It is not a timing model."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np


class CapacityError(ValueError):
    """Requested oracle MDP would enumerate too many states or entries."""


# State indices are int32 in csr_cols, so this stays at or below 2^31.
MAX_ORACLE_STATES = 100_000
# Transition entries: 2^24 take 201 MB of csr_cols and csr_probs.
MAX_ORACLE_ENTRIES = 1 << 24
# Padded (departure mask, class) slots of the build's per-kind table, and
# of one kernel block's rows: 2^24 take 134 MB of float64.
MAX_ORACLE_PADDED = 1 << 24
# Transition entries per block of the Bellman kernel: 256 KiB of float64
# gather buffer, which stays in L2 across the block's gather, multiply and
# reduce. 2^15 and 2^16 timed best; at 2^12 the per-block Python
# overhead made a sweep slower.
KERNEL_BLOCK = 1 << 15
# Value-iteration sweeps before value_iteration gives up.
MAX_SWEEPS = 100_000


@dataclass
class OracleMdp:
    """Enumerated abstract scheduling MDP in flattened row/CSR form.

    Action ids 0..K-1 assign the arriving task to that VM; action id K is
    the forced defer used by all-buffers-full states (reward 0, no
    arrival admitted). State s is the row-major index of (B_1..B_K,
    L-class_1..L-class_K) over the shape (n+1,)*K + (c,)*K. Rows for
    state s live at act_indptr[s]:act_indptr[s+1] (int64); act_action
    (int64) maps row to action id and row_reward (float64) holds its
    reward. Row r's transition entries live at csr_indptr[r]:
    csr_indptr[r+1] (int64): successor state indices in csr_cols (int32,
    which every state index fits) and their probabilities in csr_probs
    (float64).
    """

    num_vms: int
    buffer_capacity: int
    num_classes: int
    p_c: float
    gamma: float
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
                     p_c: float = 0.5, gamma: float = 0.9) -> OracleMdp:
    """Enumerate the abstract scheduling MDP.

    Per decision epoch: one task, its length class uniform over the C
    classes, is assigned by the action, then every VM that was busy before
    the assignment completes its head with probability p_c, independently. A
    departure at VM k removes the state-average length share
    floor(l_k / b_k). Kernel rows are exact products of those independent
    events and sum to 1.

    A row's entries, their probabilities and their order follow from its
    state's kind (its busy set, or the defer row of an all-full state), so
    csr_indptr is known before any entry is made. One pass over the
    Bellman kernel's own blocks (_row_blocks) then makes them: a block
    gathers its rows' padded (2^K departure masks x C classes)
    probabilities from one small per-kind table, forms their padded int32
    columns by row-major strides, and writes the entries of probability
    above 0 contiguously at its span of csr_indptr. Beside the model the
    build holds int32 per-state and per-row tables and one block's padded
    entries. The state count (against MAX_ORACLE_STATES) and the per-kind
    table's padded slots (against MAX_ORACLE_PADDED) are checked before any
    table is built, the exact entry count csr_indptr[-1] against MAX_ORACLE_ENTRIES
    before any entry array, and a block's padded slots against
    MAX_ORACLE_PADDED before any block.
    """
    k, n, c = num_vms, buffer_capacity, num_classes
    for name, value in (("num_vms", k), ("buffer_capacity", n), ("num_classes", c)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if k < 1 or n < 1 or c < 1:
        raise ValueError("need num_vms, buffer_capacity, num_classes >= 1")
    if not (0.0 <= p_c <= 1.0):
        raise ValueError("p_c must be in [0, 1]")
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")

    num_states = (n + 1) ** k * c**k
    if num_states > MAX_ORACLE_STATES:
        raise CapacityError(f"{num_states} states exceed the enumeration "
                            f"limit {MAX_ORACLE_STATES}")
    padded = (2**k + 1) * 2**k * c
    if padded > MAX_ORACLE_PADDED:
        raise CapacityError(f"{padded} padded slots of the per-kind table exceed "
                            f"the limit {MAX_ORACLE_PADDED}")

    shape = (n + 1,) * k + (c,) * k
    stride = np.cumprod((1,) + shape[:0:-1], dtype=np.int32)[::-1]
    # State s's digits, its K buffer counts then its K length classes, are
    # the column digits[:, s], int32 like every state index.
    digits = (np.arange(num_states, dtype=np.int32)[None] // stride[:, None]
              % np.array(shape, dtype=np.int32)[:, None])
    b, l = digits[:k], digits[k:]              # (K, S) views

    # has[s, a]: state s has a row for action a; only all-full states defer.
    # Rows run in (state, action) order, so has's true cells are the rows.
    has = np.column_stack([(b < n).T, (b == n).all(axis=0)])     # (S, K+1)
    act_indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(has.sum(axis=1), out=act_indptr[1:])
    act_action = np.broadcast_to(np.arange(k + 1), has.shape)[has]
    reward = np.where(b == b.min(axis=0), 1.0,
                      np.where(l == l.max(axis=0), -1.0, 0.0))   # (K, S)
    row_reward = np.vstack([reward, np.zeros(num_states)]).T[has]
    kind = (1 << np.arange(k, dtype=np.int32)) @ (b > 0) + has[:, k]  # (S,)
    del reward, has

    # A state's kind is its busy set, or 2^K when its VMs are all full and
    # its one row defers (no arrival: classes (1, 0, ..., 0), w * 1.0 == w).
    # w[set, mask] (bit j: VM j busy, VM j departs) takes the float products
    # a per-state weight would take; probs[kind] holds a row's padded (mask,
    # class) entries, mask-major. Entries of probability 0 (a departure at
    # an idle VM, a defer row's classes past 0, an underflow) are not kept.
    factor = np.array([[1.0, 0.0], [1.0 - p_c, p_c]])   # [busy, departs]
    bit = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    w = np.ones((2**k, 2**k))
    for j in range(k):
        w = w * factor[bit[:, j, None], bit[:, j]]
    ci = np.arange(c)
    probs = np.vstack([np.multiply.outer(w, np.full(c, 1.0 / c)).reshape(2**k, -1),
                       np.multiply.outer(w[-1], ci == 0).ravel()])
    kept = (probs > 0).reshape(-1, 2**k, c)
    row_len = np.count_nonzero(kept, axis=(1, 2))
    assert row_len.min() > 0, "every row needs transition mass"
    row_state = np.repeat(np.arange(num_states, dtype=np.int32), np.diff(act_indptr))
    csr_indptr = np.zeros(row_reward.size + 1, dtype=np.int64)
    np.cumsum(row_len[kind[row_state]], out=csr_indptr[1:])
    if csr_indptr[-1] > MAX_ORACLE_ENTRIES:
        raise CapacityError(f"{csr_indptr[-1]} transition entries exceed "
                            f"the limit {MAX_ORACLE_ENTRIES}")

    # Successor columns by row-major strides: the state, plus the arrival
    # move (class ci at VM a: a buffer and l_a's capped rise, arrive_of[ci,
    # a, l_a], 0 for the defer row a = K), minus each departing VM j's move
    # (a buffer and the share l_j // b_j <= l_j, depart[j, s]), so no
    # column leaves range. Flat takes gather faster than fancy indexing.
    arrive_of = np.zeros((c, k + 1, c), dtype=np.int32)
    arrive_of[:, :k] = stride[:k, None] + (
        np.minimum(ci + ci[:, None, None], c - 1) - ci) * stride[k:, None]
    depart = stride[:k, None] + l // np.maximum(b, 1) * stride[k:, None]

    # One pass over the kernel's blocks. Each builds its padded entries [mask,
    # class, row], each step along the rows, and writes the kept ones in order.
    bounds = _row_blocks(csr_indptr)
    assert bounds[0] == 0 and bounds[-1] == row_reward.size, "blocks tile the rows"
    padded = int(np.diff(bounds).max()) * 2**k * c
    if padded > MAX_ORACLE_PADDED:
        raise CapacityError(f"{padded} padded slots of a kernel block exceed "
                            f"the limit {MAX_ORACLE_PADDED}")
    csr_cols = np.empty(int(csr_indptr[-1]), dtype=np.int32)
    csr_probs = np.empty(int(csr_indptr[-1]), dtype=np.float64)
    for r0, r1 in zip(bounds, bounds[1:]):
        e0, e1 = csr_indptr[r0], csr_indptr[r1]
        s, a = row_state[r0:r1], act_action[r0:r1]
        row_kind = kind.take(s)
        keep = kept.take(row_kind, axis=0)               # (rows, 2^K, C)
        assert np.count_nonzero(keep) == e1 - e0, "every entry is written once"
        csr_probs[e0:e1] = probs.take(row_kind, axis=0).ravel()[keep.ravel()]
        l_a = l.ravel().take(np.minimum(a, k - 1) * num_states + s)
        cols = np.empty((2**k, c, r1 - r0), dtype=np.int32)
        np.add(arrive_of.reshape(c, -1).take(a * c + l_a, axis=1), s, out=cols[0])
        for j in range(k):      # masks with top bit j: the masks below, minus j's move
            np.subtract(cols[:1 << j], depart[j, s], out=cols[1 << j:2 << j])
        csr_cols[e0:e1] = cols = cols.transpose(2, 0, 1)[keep]
        assert 0 <= cols.min() and cols.max() < num_states, "every column is a state"

    return OracleMdp(
        num_vms=k, buffer_capacity=n, num_classes=c, p_c=p_c, gamma=gamma,
        act_indptr=act_indptr, act_action=act_action, row_reward=row_reward,
        csr_indptr=csr_indptr, csr_cols=csr_cols, csr_probs=csr_probs)


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


def _kernel(mdp: OracleMdp):
    """values -> per-row q(s,a) = r + gamma * E[v(s')]: the one Bellman kernel.

    It runs over blocks of whole rows (_row_blocks), so its float64 gather
    buffer is block-sized and stays in cache. Each row's expectation is
    the same reduceat over the same products, in the same order, as over
    the whole kernel at once, so q does not depend on KERNEL_BLOCK to the
    last bit. The blocks are computed and the columns (the gather clips)
    checked here, once. The intp buffer takes a block's columns, then its
    row offsets (every row has an entry), so a call allocates only q.
    """
    indptr, cols, probs = mdp.csr_indptr, mdp.csr_cols, mdp.csr_probs
    if cols.size and (cols.min() < 0 or cols.max() >= mdp.num_states):
        raise IndexError(f"transition columns must lie in [0, {mdp.num_states})")
    bounds = _row_blocks(indptr)
    blocks = [(r0, r1, indptr[r0], indptr[r1]) for r0, r1 in zip(bounds, bounds[1:])]
    largest = max((e1 - e0 for _, _, e0, e1 in blocks), default=0)
    gathered = np.empty(largest, dtype=np.float64)
    index = np.empty(largest, dtype=np.intp)

    def q_of(values: np.ndarray) -> np.ndarray:
        if np.shape(values) != (mdp.num_states,):
            raise ValueError(f"values must have shape ({mdp.num_states},), "
                             f"got {np.shape(values)}")
        q = np.empty(indptr.size - 1, dtype=np.float64)
        for r0, r1, e0, e1 in blocks:
            at = index[:e1 - e0]
            at[...] = cols[e0:e1]
            buf = np.take(values, at, out=gathered[:e1 - e0], mode="clip")
            buf *= probs[e0:e1]
            starts = np.subtract(indptr[r0:r1], e0, out=index[:r1 - r0])
            np.add.reduceat(buf, starts, out=q[r0:r1])
        q *= mdp.gamma
        q += mdp.row_reward      # gamma*x + r is r + gamma*x: float addition commutes
        return q
    return q_of


def action_values(mdp: OracleMdp, values: np.ndarray) -> np.ndarray:
    """Per-row q(s,a) = r + gamma * E[v(s')] for a float64 value vector of
    shape (num_states,); raises ValueError for another shape and IndexError
    for a transition column outside [0, num_states)."""
    return _kernel(mdp)(values)


def _state_max(act_indptr: np.ndarray):
    """q -> each state's largest q, bit for bit np.maximum.reduceat(q,
    act_indptr[:-1]), from at most K row gathers indexed here, once: the
    i-th takes each state's i-th row, or its last if it has fewer rows."""
    starts, last = act_indptr[:-1], act_indptr[1:] - 1
    shifted = [np.minimum(starts + i, last) for i in range(1, 1 + np.max(last - starts))]

    def state_max(q: np.ndarray) -> np.ndarray:
        best = q[starts]
        for rows in shifted:
            np.maximum(best, q[rows], out=best)
        return best
    return state_max


def value_iteration(mdp: OracleMdp, tol: float = 1e-8) -> ValueIterationResult:
    """Solve the MDP to max-norm tolerance tol within MAX_SWEEPS sweeps;
    ties go to the lowest action.

    One _kernel and one _state_max serve every sweep; the kernel also
    serves the greedy extraction.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    q_of = _kernel(mdp)
    state_max = _state_max(mdp.act_indptr)
    v = np.zeros(mdp.num_states, dtype=np.float64)
    deltas = []
    for sweep in range(1, MAX_SWEEPS + 1):
        v_new = state_max(q_of(v))
        delta = float(np.max(np.abs(v_new - v)))
        deltas.append(delta)
        v = v_new
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach tol={tol} "
                           f"in {MAX_SWEEPS} sweeps")
    del state_max      # free its gathers: the extraction's arrays peak
    # lowest row among each state's maxima; rows run in action order
    q = q_of(v)
    starts = mdp.act_indptr[:-1]
    is_max = q >= np.repeat(np.maximum.reduceat(q, starts), np.diff(mdp.act_indptr))
    best_rows = np.minimum.reduceat(np.where(is_max, np.arange(q.size), q.size),
                                    starts)
    return ValueIterationResult(values=v, policy=mdp.act_action[best_rows],
                                deltas=deltas, sweeps=len(deltas))
