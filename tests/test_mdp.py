"""State encoding, the reward rule and the enumerable oracle MDP."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracle_helpers import (feasible_actions, index_state, reachable_from_empty,
                            reference_build, row_of, sample_next, shape,
                            state_index)
from qlsched import mdp
from qlsched.cluster import ClusterState, VmSpec
from qlsched.config import ExperimentPlan
from qlsched.envs import encode_state, reward
from qlsched.mdp import CapacityError, action_values, build_oracle_mdp, value_iteration
from qlsched.workload import TaskSpec

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def cluster3():
    return ClusterState([VmSpec(mips=1000.0, buffer_capacity=10)
                         for i in range(3)], max_attempts=10, fails=None)


def kernel_row(m, state, action):
    """Transition distribution of (state, action) as (columns, probs)."""
    r = row_of(m, state_index(m, state), action)
    sl = slice(m.csr_indptr[r], m.csr_indptr[r + 1])
    return m.csr_cols[sl], m.csr_probs[sl]


# -- length classes --------------------------------------------------------------

def length_class(total, range_mi, l_cap=ExperimentPlan.l_cap):
    """encode_state's length class of one VM with `total` MI assigned."""
    one_vm = SimpleNamespace(occupied=[1], assigned=[total])
    return encode_state(one_vm, range_mi, l_cap)[1]


@pytest.mark.parametrize("total,rng,expect", [
    (25000, 10000, 2),
    (0, 10000, 0),
    (0, 3, 0),
    (10000, 10000, 1),
    (9999, 10000, 0),
])
def test_discretize_boundaries(total, rng, expect):
    assert length_class(total, rng) == expect


def test_discretize_cap_and_errors():
    assert length_class(10**9, 10000, l_cap=40) == 40


def test_discretize_monotone_in_total():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a, b = sorted(int(x) for x in rng.integers(0, 10**6, size=2))
        r = int(rng.integers(1, 10**5))
        assert length_class(a, r) <= length_class(b, r)


# -- encode_state ---------------------------------------------------------------

def test_encode_empty_cluster():
    assert encode_state(cluster3(), 10_000, 40) == (0, 0, 0, 0, 0, 0)


def test_encode_single_task_below_range():
    c = cluster3()
    c.admit(TaskSpec(0, 0, 5000), 0)
    assert encode_state(c, 10000, 40) == (1, 0, 0, 0, 0, 0)


def test_encode_mixed_occupancy():
    c = cluster3()
    c.admit(TaskSpec(0, 0, 20000), 0)
    c.admit(TaskSpec(1, 0, 5000), 0)
    c.admit(TaskSpec(2, 0, 9000), 1)
    # B=(2,1,0), L=(25000,9000,0) -> classes (2,0,0)
    assert encode_state(c, 10000, 40) == (2, 1, 0, 2, 0, 0)


def test_encode_matches_discretize_over_random_runs():
    rng = np.random.default_rng(41)
    for range_mi, l_cap in [(1, 0), (3000, 2), (7919, 5), (10000, 40)]:
        c = ClusterState([VmSpec(mips=1000.0, buffer_capacity=4, pes=2)
                          for i in range(3)], max_attempts=10, fails=None)
        for tid in range(80):
            free = c.feasible_vms()
            if free and rng.random() < 0.6:
                c.admit(TaskSpec(tid, 0, int(rng.integers(1, 20000))),
                        int(rng.choice(free)))
            else:
                c.advance_to_next_event()
            state = encode_state(c, range_mi, l_cap)
            occupied, assigned = c.occupied, c.assigned
            assert state == tuple(occupied) + tuple(
                min(x // range_mi, l_cap) for x in assigned)
            assert all(type(x) is int for x in state)


# -- reward ------------------------------------------------------------------------

def test_reward_three_cases():
    state = (2, 5, 3, 4, 9, 1)
    assert reward(state, 0, (10, 10, 10)) == 1    # unique min buffer
    assert reward(state, 1, (10, 10, 10)) == -1   # not argmin b, unique max l
    assert reward(state, 2, (10, 10, 10)) == 0    # neither


def test_reward_single_vm_precedence():
    # K=1: the only VM is both argmin b and argmax l; +1 wins
    assert reward((3, 7), 0, (5,)) == 1


def test_reward_infeasible_action():
    with pytest.raises(ValueError, match="infeasible"):
        reward((2, 0, 1, 1), 0, (2, 2))
    with pytest.raises(ValueError, match="out of range"):
        reward((1, 1, 0, 0), 2, (5, 5))


def test_reward_total_on_small_instance():
    # exhaustive: every feasible (s, a) lands in {-1, 0, 1}, and the
    # enumerated MDP's reward rows agree with the scalar rule
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=3)
    for idx in range(m.num_states):
        state = index_state(m, idx)
        for a in range(m.num_vms):
            if state[a] >= m.buffer_capacity:
                continue
            r = reward(state, a, (m.buffer_capacity,) * m.num_vms)
            assert r in (-1, 0, 1)
            assert m.row_reward[row_of(m, idx, a)] == r
        if all(b >= m.buffer_capacity for b in state[:m.num_vms]):
            assert m.row_reward[row_of(m, idx, m.num_vms)] == 0.0  # defer


# -- oracle MDP kernel ---------------------------------------------------------------

def test_kernel_rows_normalized():
    # >= 10^3 rows across several instances, every row sums to 1
    rng = np.random.default_rng(5)
    rows_checked = 0
    instances = [
        build_oracle_mdp(num_vms=3, buffer_capacity=2, num_classes=2),
        build_oracle_mdp(num_vms=2, buffer_capacity=3, num_classes=3, p_c=0.3),
    ]
    for _ in range(8):
        instances.append(build_oracle_mdp(
            num_vms=2, buffer_capacity=2, num_classes=2, p_c=float(rng.random())))
    for m in instances:
        sums = np.add.reduceat(m.csr_probs, m.csr_indptr[:-1])
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        rows_checked += sums.size
    assert rows_checked >= 1000


def test_busy_vm_occupancy_returns_after_assign_depart():
    # p_c=1, K=1: assignment then certain departure cancels out
    m = build_oracle_mdp(num_vms=1, buffer_capacity=2, num_classes=2, p_c=1.0)
    for idx in range(m.num_states):
        b, l = index_state(m, idx)
        if not (1 <= b < 2):
            continue
        cols, probs = kernel_row(m, (b, l), 0)
        for col, p in zip(cols, probs):
            if p > 0:
                assert index_state(m, int(col))[0] == b


def test_degenerate_kernel_is_deterministic():
    for p_c in (0.0, 1.0):
        m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=1, p_c=p_c)
        for r in range(m.row_reward.size):
            sl = slice(m.csr_indptr[r], m.csr_indptr[r + 1])
            assert np.isclose(m.csr_probs[sl].sum(), 1.0)
            assert np.max(m.csr_probs[sl]) == pytest.approx(1.0)


def test_state_index_roundtrip():
    m = build_oracle_mdp(num_vms=2, buffer_capacity=3, num_classes=2)
    for idx in range(m.num_states):
        assert state_index(m, index_state(m, idx)) == idx


def test_capacity_limit():
    with pytest.raises(CapacityError):
        build_oracle_mdp(num_vms=3, buffer_capacity=9, num_classes=5)
    # csr_cols is int32: the limit may admit no state index past it
    assert mdp.MAX_ORACLE_STATES <= 2**31


@pytest.mark.parametrize("k", [6, 8])
def test_entry_count_of_one_slot_vms(k):
    # k VMs of one buffer slot and one class: a state with m busy VMs has
    # k - m rows of 2^m entries, and the all-busy state a defer row of 2^k
    want = k * 3 ** (k - 1) + 2**k
    assert build_oracle_mdp(k, 1, 1).csr_cols.size == want


def test_entry_limit(monkeypatch):
    # (10, 1, 1) has 1,024 states and 197,854 entries; the guard reads
    # csr_indptr's count before any entry array exists
    monkeypatch.setattr(mdp, "MAX_ORACLE_ENTRIES", 197_853)
    with pytest.raises(CapacityError, match="197854 transition entries"):
        build_oracle_mdp(10, 1, 1)
    monkeypatch.setattr(mdp, "MAX_ORACLE_ENTRIES", 197_854)
    assert build_oracle_mdp(10, 1, 1).csr_cols.size == 197_854
    # (16, 1, 1) is under the state limit but would take 3.7 GB of
    # entries; its per-kind table's 2^32 padded slots refuse it first
    assert 2**16 < mdp.MAX_ORACLE_STATES
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="padded slots of the per-kind table"):
        build_oracle_mdp(16, 1, 1)
    assert time.perf_counter() - start < 0.5


def test_entry_limit_refuses_before_any_entry_array(monkeypatch):
    # (3, 9, 4) has 4,713,728 entries: its csr_cols and csr_probs would
    # take 56.6 MB, and a refused build peaks at about 9.3 MB
    monkeypatch.setattr(mdp, "MAX_ORACLE_ENTRIES", 4_713_727)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="4713728 transition entries"):
            build_oracle_mdp(3, 9, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_713_728 * 12 / 4


def test_entry_limit_counts_the_exact_entries(monkeypatch):
    # at p_c = 1 every busy VM departs, so a row keeps one departure mask:
    # (3, 3, 2) has 2,312 entries, though its worst case (0 < p_c < 1) has 11,824
    monkeypatch.setattr(mdp, "MAX_ORACLE_ENTRIES", 2_312)
    assert build_oracle_mdp(3, 3, 2, p_c=1.0).csr_cols.size == 2_312
    with pytest.raises(CapacityError, match="11824 transition entries"):
        build_oracle_mdp(3, 3, 2, p_c=0.5)


def test_padded_layout_limit(monkeypatch):
    # the build pads every row to 2^K departure masks x C classes: (4, 2, 2)
    # has a per-kind table of (2^4 + 1) x 2^4 x 2 = 544 slots, and a kernel
    # block of R rows pads to R x 32
    m = build_oracle_mdp(4, 2, 2)
    monkeypatch.setattr(mdp, "MAX_ORACLE_PADDED", 543)
    with pytest.raises(CapacityError, match="544 padded slots of the per-kind table"):
        build_oracle_mdp(4, 2, 2)
    monkeypatch.setattr(mdp, "KERNEL_BLOCK", m.csr_cols.size)    # one block
    padded = m.row_reward.size * 32
    monkeypatch.setattr(mdp, "MAX_ORACLE_PADDED", padded - 1)
    with pytest.raises(CapacityError, match=f"{padded} padded slots of a kernel block"):
        build_oracle_mdp(4, 2, 2)
    monkeypatch.setattr(mdp, "MAX_ORACLE_PADDED", padded)
    assert build_oracle_mdp(4, 2, 2).csr_cols.tobytes() == m.csr_cols.tobytes()


# (13, 1, 1) passes the state and entry limits (8,192 states, 6.9 M entries),
# but its per-kind table and weight table would take 537 MB each. It runs in
# a child whose address space is capped 256 MiB above its size once numpy is
# loaded, so a build that makes either table fails there with MemoryError
# instead of taking the host's memory.
PADDED_SCRIPT = """
import resource, tracemalloc
from qlsched.mdp import CapacityError, build_oracle_mdp

with open("/proc/self/status") as fh:
    vm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, ((vm_kib << 10) + (256 << 20), hard))
tracemalloc.start()
try:
    build_oracle_mdp(13, 1, 1)
except CapacityError as exc:
    print(tracemalloc.get_traced_memory()[1], exc)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_padded_layout_is_refused_before_any_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PADDED_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    peak, message = out.stdout.split(" ", 1)
    assert "67117056 padded slots of the per-kind table" in message
    assert int(peak) < 1 << 20


def test_builder_validation():
    with pytest.raises(ValueError):
        build_oracle_mdp(num_vms=0, buffer_capacity=1, num_classes=1)
    with pytest.raises(ValueError):
        build_oracle_mdp(num_vms=1, buffer_capacity=1, num_classes=1, p_c=1.5)
    # a bool is an int to Python, and a float count fails deep in numpy
    sizes = {"num_vms": 2, "buffer_capacity": 2, "num_classes": 2}
    for name in sizes:
        for bad in (True, 2.0, "2", None):
            with pytest.raises(ValueError, match=name):
                build_oracle_mdp(**{**sizes, name: bad})
    assert build_oracle_mdp(np.int64(2), np.int32(2), 2).num_states == 36


def test_sample_next_matches_kernel():
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2, p_c=0.4)
    idx = state_index(m, (1, 0, 1, 0))
    cols, probs = kernel_row(m, (1, 0, 1, 0), 1)
    rng = np.random.default_rng(17)
    counts = {int(c): 0 for c in cols}
    n = 20000
    for _ in range(n):
        counts[sample_next(m, idx, 1, rng)] += 1
    for c, p in zip(cols, probs):
        assert abs(counts[int(c)] / n - p) < 0.02


# -- value iteration --------------------------------------------------------------

def test_vi_single_vm_geometric_value():
    # reward is always +1 while a slot is free; with p_c=1 the occupancy
    # never reaches capacity from below, so V* = 1/(1-gamma) = 10 there.
    # Full states are forced to defer one epoch: V* = 0 + 0.9 * 10 = 9.
    m = build_oracle_mdp(num_vms=1, buffer_capacity=3, num_classes=2, p_c=1.0)
    res = value_iteration(m)
    for idx in range(m.num_states):
        b, _ = index_state(m, idx)
        expect = 10.0 if b < 3 else 9.0
        assert res.values[idx] == pytest.approx(expect, abs=1e-5)


def test_vi_contraction():
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2, p_c=0.5)
    res = value_iteration(m)
    for before, after in zip(res.deltas, res.deltas[1:]):
        assert after <= m.gamma * before + 1e-12


def test_vi_gamma_zero_is_myopic():
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2, gamma=0.0)
    res = value_iteration(m)
    q = action_values(m, res.values)
    for idx in range(m.num_states):
        rows = range(m.act_indptr[idx], m.act_indptr[idx + 1])
        best = max(m.row_reward[r] for r in rows)
        assert res.values[idx] == pytest.approx(best)
        chosen = row_of(m, idx, res.policy[idx])
        assert m.row_reward[chosen] == pytest.approx(best)
    assert np.allclose(q, m.row_reward)


def test_vi_swap_equivariance():
    # two identical VMs: q*(s, a) is symmetric under relabeling
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2, p_c=0.5)
    q = action_values(m, value_iteration(m).values)

    def q_of(state, action):
        return q[row_of(m, state_index(m, state), action)]

    for idx in range(m.num_states):
        b0, b1, l0, l1 = index_state(m, idx)
        swapped = (b1, b0, l1, l0)
        for a in feasible_actions(m, (b0, b1, l0, l1)):
            sa = {0: 1, 1: 0, 2: 2}[a]   # action 2 is the defer
            assert q_of((b0, b1, l0, l1), a) == pytest.approx(
                q_of(swapped, sa), abs=1e-9)


def test_vi_reward_shift_invariance():
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2, p_c=0.5)
    res = value_iteration(m)
    shifted = replace(m, row_reward=m.row_reward + 0.5)
    res2 = value_iteration(shifted)
    assert np.allclose(res2.values, res.values + 0.5 / (1 - m.gamma), atol=1e-6)
    assert np.array_equal(res2.policy, res.policy)


def test_reachable_from_empty():
    m = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2)
    mask = reachable_from_empty(m)
    assert mask[state_index(m, (0, 0, 0, 0))]
    assert 0 < mask.sum() <= m.num_states


# -- the placement ceiling: why acceptance criteria 4, 5 and 7 are red -------------

# (K, n, C, p_c, reachable states with more than one action)
CEILING_CASES = [(3, 5, 3, 0.5, 3718), (3, 5, 3, 0.35, 3718),
                 (2, 10, 3, 0.5, 784), (2, 10, 3, 0.35, 784)]


def occupancy(m):
    """Each row's state and each state's K buffer counts, (K, S)."""
    row_state = np.repeat(np.arange(m.num_states), np.diff(m.act_indptr))
    b = np.array(np.unravel_index(np.arange(m.num_states), shape(m)))[:m.num_vms]
    return row_state, b


def optimal_and_least_occupied(m):
    """Per row: is it in its state's optimal set (q within 1e-9 of the
    state's best), and does it place on a least-occupied VM; and the
    reachable states with more than one action."""
    k = m.num_vms
    row_state, b = occupancy(m)
    a = m.act_action
    least = (a < k) & (b[np.minimum(a, k - 1), row_state] == b.min(axis=0)[row_state])
    q = action_values(m, value_iteration(m).values)
    optimal = q >= np.maximum.reduceat(q, m.act_indptr[:-1])[row_state] - 1e-9
    multi = (np.diff(m.act_indptr) > 1) & reachable_from_empty(m)
    return row_state, optimal, least, multi


@pytest.mark.parametrize("k,n,c,p_c,num_multi", CEILING_CASES)
def test_paper_reward_places_only_on_least_occupied_vms(k, n, c, p_c, num_multi):
    # Under the +1/-1/0 reward every optimal action of every reachable
    # multi-action state is a least-occupied VM, so an exact learner can at
    # best tie greedy-family placement.
    m = build_oracle_mdp(k, n, c, p_c=p_c)
    row_state, optimal, least, multi = optimal_and_least_occupied(m)
    assert multi.sum() == num_multi
    outside = multi[row_state] & optimal & ~least
    assert not outside.any(), np.unique(row_state[outside]).size


@pytest.mark.parametrize("k,n,c,p_c,num_multi", CEILING_CASES)
def test_holding_cost_keeps_a_least_occupied_vm_optimal(k, n, c, p_c, num_multi):
    # A response-time objective: the cost of each row is the number of tasks
    # in the system after its action. Every optimal set still holds a
    # least-occupied VM (join the shortest queue), though at (2, 10, 3) a
    # busier VM ties with it in some states, so no subset claim holds.
    m = build_oracle_mdp(k, n, c, p_c=p_c)
    row_state, b = occupancy(m)
    in_system = b.sum(axis=0)[row_state] + (m.act_action < m.num_vms)
    m = replace(m, row_reward=-in_system.astype(np.float64))
    row_state, optimal, least, multi = optimal_and_least_occupied(m)
    assert multi.sum() == num_multi
    held = np.bincount(row_state[optimal & least], minlength=m.num_states)
    assert (held[multi] > 0).all(), np.count_nonzero(held[multi] == 0)
    if (k, n, c) == (2, 10, 3):
        assert (multi[row_state] & optimal & ~least).any()


MODEL_ARRAYS = ("act_indptr", "act_action", "row_reward", "csr_indptr",
                "csr_cols", "csr_probs")


def case_ids(cases):
    """Each (k, n, c, p_c) case's id, k-n-c-None-p_c: the None marks the
    uniform arrival classes and keeps the ids stable, as recorded test
    results name the cases by them."""
    return [f"{k}-{n}-{c}-None-{p_c}" for k, n, c, p_c in cases]


REFERENCE_CASES = [
    (1, 3, 3, 0.5),
    (2, 2, 2, 0.0),
    (2, 2, 3, 0.3),
    (2, 2, 2, 1.0),
    (3, 2, 2, 0.3),
    (3, 2, 2, 1.0),
    (2, 1, 2, 0.5),                 # most states all-full: defer rows
    (3, 1, 2, 0.0),
    (2, 2, 2, 1e-200),              # multi-departure weights underflow to 0
    (3, 1, 2, 1e-200),
    (4, 2, 2, 0.3),                 # 16 departure masks per busy set
    (4, 1, 3, 0.3),
    (1, 200, 3, 0.5),               # digits past 127: no table overflows
    (2, 130, 2, 0.5),
    (1, 3, 6, 0.5),                 # more classes than departure masks
    (2, 1, 3, 1.0),                 # p_c = 1 with defer rows
]


@pytest.mark.parametrize("k,n,c,p_c", REFERENCE_CASES, ids=case_ids(REFERENCE_CASES))
def test_build_matches_concat_and_sort_reference(k, n, c, p_c):
    m = build_oracle_mdp(k, n, c, p_c=p_c)
    ref = reference_build(k, n, c, p_c=p_c)
    for name in MODEL_ARRAYS:
        got, want = getattr(m, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


CHUNK_CASES = [(3, 4, 3, 0.5), (4, 2, 2, 0.3)]


@pytest.mark.parametrize("k,n,c,p_c", CHUNK_CASES, ids=case_ids(CHUNK_CASES))
def test_build_bytes_do_not_depend_on_the_chunk_size(monkeypatch, k, n, c, p_c):
    ref = reference_build(k, n, c, p_c=p_c)
    # 1: one row per chunk, most rows longer than the chunk; 3 and 100:
    # chunks of one or several rows; the last: each (action, busy set) whole
    for block in (1, 3, 100, ref.csr_cols.size):
        monkeypatch.setattr(mdp, "KERNEL_BLOCK", block)
        m = build_oracle_mdp(k, n, c, p_c=p_c)
        for name in MODEL_ARRAYS:
            got, want = getattr(m, name), getattr(ref, name)
            assert got.dtype == want.dtype, (block, name)
            assert got.tobytes() == want.tobytes(), (block, name)


# sha256 of each array of the model the benchmark's oracle_vi workload
# solves: a change to the builder must leave every byte of it as it is.
BENCH_MODEL_SHA256 = {
    "act_indptr": "d18c4c639ff9e039fe3eed22f7d4b57adcb201f8923f1f5faf55e411631eb6e4",
    "act_action": "a242cf53d8e93717a3c865b27ba500d864799be3622ab992ad96c5ee7cbc5c68",
    "row_reward": "3da9a01fa6c993cce3d278e53de8d5d07b010f9d9d399447d3bfc310e1155425",
    "csr_indptr": "fa4e75adf79e1515e552047018a8588d6295b5cf7faf2b9dfe8e682bd02af69a",
    "csr_cols": "4a0e7d3298317632205d025bf915f67ef635dab5139c7ca010c424270b8d1a9c",
    "csr_probs": "6dd5135d09afda860a20d0e6bac73c4fce73382480bcc56ad5e07c604715c959",
}


def test_benchmark_model_digests_are_pinned():
    m = build_oracle_mdp(3, 9, 4)
    assert m.num_states == 64_000 and m.csr_cols.size == 4_713_728
    for name in MODEL_ARRAYS:
        arr = getattr(m, name)
        assert arr.dtype == (np.float64 if name.endswith(("reward", "probs"))
                             else np.int32 if name == "csr_cols" else np.int64), name
        # the digest was recorded from int64 columns: every value is kept
        arr = arr.astype(np.int64) if name == "csr_cols" else arr
        assert hashlib.sha256(arr.tobytes()).hexdigest() == BENCH_MODEL_SHA256[name], name


# sha256 of value_iteration's values, policy and deltas on (3, 5, 4),
# 836,864 entries over 26 kernel blocks, recorded from the solver that
# reduced the whole kernel at once: blocking the kernel must leave every
# bit of the solution as it is.
SOLVE_354_SHA256 = {
    "values": "c45725ef7554eedf2ea172204cd7913a72fcadcaea2e2e1ee00bf897536edac7",
    "policy": "cc56c7315b6f50f445b56ed955f1b57473e6fbff4ad175020d2343690856b588",
    "deltas": "a55ea8e0c9d1a31b55d1a154092f2445a3a804f4ad0f76f6fb5d0ac3f8e215bf",
}


def test_solve_digests_are_pinned():
    res = value_iteration(build_oracle_mdp(3, 5, 4))
    assert res.sweeps == 176
    got = {"values": res.values, "policy": res.policy, "deltas": np.array(res.deltas)}
    for name, arr in got.items():
        assert hashlib.sha256(arr.tobytes()).hexdigest() == SOLVE_354_SHA256[name], name


def test_build_peak_memory_stays_near_the_model():
    # (3, 9, 4) is the model the benchmark's oracle_vi workload builds
    for shape, bound in (((3, 5, 4), 1.20), ((3, 9, 4), 1.10)):
        tracemalloc.start()
        try:
            m = build_oracle_mdp(*shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(m, name).nbytes for name in MODEL_ARRAYS)
        assert peak <= bound * kept, shape


# A fresh interpreter builds and solves the benchmark's model. Its peak
# RSS also counts what tracemalloc does not see: freed transients that the
# allocator keeps resident. It is read as VmHWM, the peak of the process's
# own memory: ru_maxrss carries the parent's (pytest's) RSS across exec.
RSS_SCRIPT = """
from qlsched.mdp import build_oracle_mdp, value_iteration

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kib()
m = build_oracle_mdp(3, 9, 4)
value_iteration(m)
print((peak_kib() - before) * 1024 / sum(getattr(m, name).nbytes for name in {names}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_build_and_solve_rss_stays_near_the_model():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", RSS_SCRIPT.format(names=MODEL_ARRAYS)],
                         env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 1.15


def test_solve_peak_memory_is_a_fraction_of_the_kernel():
    m = build_oracle_mdp(3, 5, 4)
    tracemalloc.start()
    try:
        value_iteration(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.csr_probs.nbytes / 2


# -- Bellman kernel against a loop reference ----------------------------------------

def loop_action_values(m, v):
    """q per row by explicit loops over the row's transition entries."""
    q = np.empty(m.row_reward.size)
    for r in range(q.size):
        ev = 0.0
        for e in range(m.csr_indptr[r], m.csr_indptr[r + 1]):
            ev += m.csr_probs[e] * v[m.csr_cols[e]]
        q[r] = m.row_reward[r] + m.gamma * ev
    return q


def loop_backup(m, v):
    """One Bellman backup: per state, the best q and the lowest row with it."""
    q = loop_action_values(m, v)
    rows = np.array([max(range(lo, hi), key=q.__getitem__)
                     for lo, hi in zip(m.act_indptr[:-1], m.act_indptr[1:])])
    return q[rows], rows


def assert_vi_matches_loop(m, tol):
    v, sweeps = np.zeros(m.num_states), 0
    while True:
        v_new, _ = loop_backup(m, v)
        sweeps += 1
        delta = np.max(np.abs(v_new - v))
        v = v_new
        if delta <= tol:
            break
    res = value_iteration(m, tol=tol)
    assert res.sweeps == sweeps
    np.testing.assert_allclose(res.values, v, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(res.policy, m.act_action[loop_backup(m, v)[1]])


def csr_mdp(act_indptr, row_reward, csr_indptr, csr_cols, csr_probs, gamma):
    """An MDP in the oracle's row/CSR layout; row j of a state is action j."""
    act_indptr = np.asarray(act_indptr, dtype=np.int64)
    return SimpleNamespace(
        num_states=act_indptr.size - 1, gamma=gamma, act_indptr=act_indptr,
        act_action=np.arange(int(act_indptr[-1])) - np.repeat(
            act_indptr[:-1], np.diff(act_indptr)),
        row_reward=np.asarray(row_reward, dtype=np.float64),
        csr_indptr=np.asarray(csr_indptr, dtype=np.int64),
        csr_cols=np.asarray(csr_cols, dtype=np.int64),
        csr_probs=np.asarray(csr_probs, dtype=np.float64))


def random_instance(rng, gamma):
    """Random MDP: 2-29 states, 1-4 rows each, 1-5 entries per row."""
    s = int(rng.integers(2, 30))
    act_indptr = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(rng.integers(1, 5, size=s), out=act_indptr[1:])
    rows = int(act_indptr[-1])
    csr_indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(rng.integers(1, 6, size=rows), out=csr_indptr[1:])
    nnz = int(csr_indptr[-1])
    probs = rng.uniform(0.05, 1.0, size=nnz)
    probs /= np.repeat(np.add.reduceat(probs, csr_indptr[:-1]),
                       np.diff(csr_indptr))
    return csr_mdp(act_indptr, rng.uniform(-1.0, 1.0, size=rows), csr_indptr,
                   rng.integers(0, s, size=nnz), probs, gamma)


def test_numpy_matches_loop_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = random_instance(rng, float(rng.uniform(0.0, 0.9)))
        v = rng.normal(size=m.num_states)
        np.testing.assert_allclose(action_values(m, v), loop_action_values(m, v),
                                   rtol=1e-12, atol=1e-12)
        assert_vi_matches_loop(m, tol=1e-6)


def test_numpy_matches_loop_on_real_mdp():
    rng = np.random.default_rng(1)
    m = build_oracle_mdp(num_vms=2, buffer_capacity=3, num_classes=2)
    for _ in range(5):
        v = rng.normal(size=m.num_states)
        np.testing.assert_allclose(action_values(m, v), loop_action_values(m, v),
                                   rtol=1e-12, atol=1e-12)
    assert_vi_matches_loop(m, tol=1e-8)


def test_duplicate_transition_columns_sum():
    # two entries landing on the same column must both contribute
    m = csr_mdp([0, 1], [1.0], [0, 2], [0, 0], [0.6, 0.4], 0.9)
    v = np.array([2.0])
    expected = 1.0 + 0.9 * 2.0
    assert action_values(m, v)[0] == pytest.approx(expected)
    assert loop_backup(m, v)[0][0] == pytest.approx(expected)
    assert value_iteration(m).values[0] == pytest.approx(1.0 / (1.0 - 0.9))


def test_greedy_ties_pick_lowest_row():
    # two identical rows for one state
    m = csr_mdp([0, 2], [0.5, 0.5], [0, 1, 2], [0, 0], [1.0, 1.0], 0.9)
    assert loop_backup(m, np.array([1.0]))[1][0] == 0
    assert value_iteration(m).policy[0] == 0


def test_kernel_call_allocates_only_q():
    m = build_oracle_mdp(3, 3, 3)
    assert len(mdp._row_blocks(m.csr_indptr)) > 2          # more than one block
    v = np.random.default_rng(2).normal(size=m.num_states)
    tracemalloc.start()
    try:
        q_of = mdp._kernel(m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a float64 and an intp buffer the size of one block, not of the kernel
    assert held < 16 * mdp.KERNEL_BLOCK + 4096 < 16 * m.csr_cols.size
    assert q_of(v).tobytes() == action_values(m, v).tobytes()
    tracemalloc.start()
    try:
        q = q_of(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no per-block gather, index or offset array: a block's rows alone
    # would take several KiB
    assert peak - q.nbytes < 4096


def test_bad_transition_column_raises():
    m = build_oracle_mdp(2, 2, 2)
    m.csr_cols[5] = m.num_states
    with pytest.raises(IndexError):
        value_iteration(m)
    with pytest.raises(IndexError):
        action_values(m, np.zeros(m.num_states))


def test_bad_column_in_a_later_block_raises(monkeypatch):
    monkeypatch.setattr(mdp, "KERNEL_BLOCK", 1)
    m = build_oracle_mdp(2, 2, 2)
    m.csr_cols[-1] = m.num_states
    with pytest.raises(IndexError):
        value_iteration(m)
    with pytest.raises(IndexError):
        action_values(m, np.zeros(m.num_states))


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
def test_value_iteration_rejects_a_tolerance_not_above_zero(tol):
    with pytest.raises(ValueError, match="tol"):
        value_iteration(build_oracle_mdp(2, 2, 2), tol=tol)


def test_value_iteration_raises_when_the_sweeps_run_out(monkeypatch):
    # one sweep from v = 0 moves v by a whole reward, far above tol
    monkeypatch.setattr(mdp, "MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match=r"tol=1e-12 in 1 sweeps"):
        value_iteration(build_oracle_mdp(2, 2, 2), tol=1e-12)


@pytest.mark.parametrize("size", [35, 37])
def test_a_value_vector_of_the_wrong_shape_raises(size):
    # the gather clips its indices, so a short vector would give wrong q
    m = build_oracle_mdp(2, 2, 2)
    assert m.num_states == 36
    with pytest.raises(ValueError, match=r"shape \(36,\)"):
        action_values(m, np.zeros(size))


def solve_bytes(m):
    res = value_iteration(m)
    return res.values.tobytes(), res.policy.tobytes(), np.array(res.deltas).tobytes()


def test_kernel_bits_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(3)
    large = build_oracle_mdp(3, 4, 3)
    models = [large, build_oracle_mdp(2, 2, 3)] + [
        random_instance(rng, 0.5) for _ in range(6)]
    values = [rng.normal(size=m.num_states) for m in models]
    want_q = [action_values(m, v).tobytes() for m, v in zip(models, values)]
    # a full solve at block size 1 on the large model would take seconds
    solved = models[1:]
    want_solve = [solve_bytes(m) for m in solved]
    # 1: every row its own block, and most rows longer than one;
    # 3 and 100: blocks of several rows; the last: one block for the whole kernel
    for block in (1, 3, 100, large.csr_cols.size):
        monkeypatch.setattr(mdp, "KERNEL_BLOCK", block)
        for m, v, q in zip(models, values, want_q):
            assert action_values(m, v).tobytes() == q, block
        for m, want in zip(solved, want_solve):
            assert solve_bytes(m) == want, block


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    m = build_oracle_mdp(3, 4, 3)
    for block in (1, 30, 1000, mdp.KERNEL_BLOCK):
        monkeypatch.setattr(mdp, "KERNEL_BLOCK", block)
        bounds = mdp._row_blocks(m.csr_indptr)
        assert bounds[0] == 0 and bounds[-1] == m.row_reward.size
        sizes = np.diff(m.csr_indptr[bounds])
        rows = np.diff(bounds)
        assert np.all(rows >= 1)
        # a block over KERNEL_BLOCK entries holds one row, and no block
        # could take its next row without passing KERNEL_BLOCK
        assert np.all((sizes <= block) | (rows == 1))
        next_row = np.diff(m.csr_indptr)[bounds[1:-1]]
        assert np.all(sizes[:-1] + next_row > block)


def test_build_writes_the_blocks_value_iteration_reads(monkeypatch):
    # the build and the kernel share one block definition: the build asks
    # _row_blocks once, for the model's own csr_indptr, and a solve reads
    # the very bounds the build wrote
    calls, indptrs = [], []

    def spy(csr_indptr):
        indptrs.append(csr_indptr.copy())
        calls.append(row_blocks(csr_indptr))
        return calls[-1]

    row_blocks = mdp._row_blocks
    monkeypatch.setattr(mdp, "_row_blocks", spy)
    m = build_oracle_mdp(3, 4, 3)
    assert len(calls) == 1 and len(calls[0]) > 3          # several blocks
    np.testing.assert_array_equal(indptrs[0], m.csr_indptr)
    value_iteration(m)
    assert len(calls) == 2 and calls[1] == calls[0]
    spans = np.diff(m.csr_indptr[calls[0]])
    assert spans.sum() == m.csr_cols.size and np.all(spans > 0)


def test_state_max_matches_reduceat_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(50):
        act_indptr = np.zeros(int(rng.integers(1, 200)) + 1, dtype=np.int64)
        np.cumsum(rng.integers(1, 5, size=act_indptr.size - 1), out=act_indptr[1:])
        state_max = mdp._state_max(act_indptr)
        for q in (rng.normal(size=act_indptr[-1]),
                  rng.integers(-2, 3, size=act_indptr[-1]).astype(float),  # ties
                  np.where(rng.random(act_indptr[-1]) < 0.5, 0.0, -0.0)):   # signed zeros
            want = np.maximum.reduceat(q, act_indptr[:-1])
            assert state_max(q).tobytes() == want.tobytes()


def test_value_iteration_builds_one_kernel(monkeypatch):
    # the blocks, the column check and the buffers are set up once per
    # solve; every sweep and the greedy extraction call that one kernel
    def spy(mdp_):
        q_of = kernel(mdp_)
        kernels.append(q_of)

        def counted(values):
            calls.append(len(kernels))
            return q_of(values)
        return counted

    kernel = mdp._kernel
    monkeypatch.setattr(mdp, "_kernel", spy)
    for shape_ in ((2, 2, 2), (3, 4, 3)):          # one block, several blocks
        kernels, calls = [], []
        res = value_iteration(build_oracle_mdp(*shape_))
        assert len(kernels) == 1 and calls == [1] * (res.sweeps + 1), shape_
