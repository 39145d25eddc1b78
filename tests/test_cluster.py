"""VM buffers, service events and failure draws."""

import numpy as np
import pytest

from qlsched.cluster import (DEFAULT_MAX_ATTEMPTS, ClusterState,
                             FailureOutcome, VmSpec, maybe_fail)
from qlsched.errors import BufferFullError
from qlsched.workload import TaskSpec


def make_cluster(num_vms=3, capacity=5, mips=1000.0, pes=1):
    specs = [VmSpec(index=i, mips=mips, buffer_capacity=capacity, pes=pes)
             for i in range(num_vms)]
    return ClusterState(specs)


def task(tid, length, slot=0):
    return TaskSpec(tid, slot, length)


# -- admission ----------------------------------------------------------------

def test_first_admission_counts():
    c = make_cluster()
    c.admit(task(0, 5000), 1)
    assert c.occupied_counts() == [0, 1, 0]
    assert c.assigned_lengths() == [0, 5000, 0]


def test_admit_full_buffer_raises():
    c = make_cluster(num_vms=1, capacity=2)
    c.admit(task(0, 10), 0)
    c.admit(task(1, 10), 0)
    with pytest.raises(BufferFullError):
        c.admit(task(2, 10), 0)


def test_occupancy_bound_random_admissions():
    # Sum of occupied buffers never exceeds K*N, per-VM never exceeds N.
    rng = np.random.default_rng(20)
    for case in range(1000):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        c = make_cluster(num_vms=k, capacity=n)
        for tid in range(int(rng.integers(0, 3 * k * n))):
            free = c.feasible_vms()
            if not free:
                break
            c.admit(task(tid, int(rng.integers(1, 9999))), int(rng.choice(free)))
            occ = c.occupied_counts()
            assert all(0 <= b <= n for b in occ)
            assert 0 <= sum(occ) <= k * n


# -- service events -------------------------------------------------------------

def test_single_task_completion_time():
    c = make_cluster()
    c.admit(task(0, 5000), 0)
    records, requeued = c.advance_to_next_event()
    assert not requeued
    (r,) = records
    assert r.finish_time == pytest.approx(5.0)
    assert r.exec_time == pytest.approx(5.0)
    assert c.clock == pytest.approx(5.0)


def test_two_task_fifo_trace():
    # 1000 then 2000 MI on one 1000 MIPS VM: finishes at 1 s and 3 s.
    c = make_cluster(num_vms=1)
    c.admit(task(0, 1000), 0)
    c.admit(task(1, 2000), 0)
    first, _ = c.advance_to_next_event()
    second, _ = c.advance_to_next_event()
    assert first[0].task_id == 0 and first[0].finish_time == pytest.approx(1.0)
    assert second[0].task_id == 1 and second[0].finish_time == pytest.approx(3.0)
    assert second[0].submit_time == pytest.approx(0.0)


def test_idle_cluster_event_is_noop():
    c = make_cluster()
    assert c.next_event_time() is None
    records, requeued = c.advance_to_next_event()
    assert records == [] and requeued == []
    assert c.clock == 0.0


def test_multi_pe_concurrent_service():
    c = make_cluster(num_vms=1, pes=2)
    c.admit(task(0, 3000), 0)
    c.admit(task(1, 1000), 0)
    records, _ = c.advance_to_next_event()
    assert records[0].task_id == 1
    assert records[0].finish_time == pytest.approx(1.0)
    # both were in service from t=0
    records, _ = c.advance_to_next_event()
    assert records[0].task_id == 0
    assert records[0].finish_time == pytest.approx(3.0)


def test_available_at():
    c = make_cluster(num_vms=2)
    assert c.vms[0].available_at(c.clock) == 0.0
    c.admit(task(0, 9000), 0)
    assert c.vms[0].available_at(c.clock) == pytest.approx(9.0)
    assert c.vms[1].available_at(c.clock) == 0.0


def test_assigned_length_matches_queue_and_clock_monotone():
    # Random admits and advances on multi-PE VMs. Lengths are whole
    # seconds of service, so finish instants often tie across VMs and PEs.
    # After every step the kept counters, the observation helpers and the
    # event heap must agree with a brute-force recomputation from vm.queue
    # and pe_busy. Buffer capacities differ between VMs.
    rng = np.random.default_rng(8)
    for _ in range(200):
        pes = int(rng.integers(1, 4))
        c = ClusterState([VmSpec(index=i, mips=1000.0, pes=pes,
                                 buffer_capacity=int(rng.integers(1, 5)))
                          for i in range(int(rng.integers(1, 4)))])
        tid = 0
        last_clock = 0.0
        for _ in range(30):
            in_service = [(q.finish, vi, pe, q.task.id)
                          for vi, vm in enumerate(c.vms)
                          for pe, q in enumerate(vm.pe_busy) if q is not None]
            assert c.next_event_time() == (min(in_service)[0] if in_service else None)
            if rng.random() < 0.6 and c.has_free_buffer():
                c.admit(task(tid, 1000 * int(rng.integers(1, 5))),
                        int(rng.choice(c.feasible_vms())))
                tid += 1
            else:
                records, _ = c.advance_to_next_event()
                if in_service:
                    finish, vi, _, task_id = min(in_service)
                    (r,) = records
                    assert (r.finish_time, r.vm_index, r.task_id) == (finish, vi, task_id)
                else:
                    assert records == []
            assert c.clock >= last_clock
            last_clock = c.clock
            assert c.has_free_buffer() == any(
                len(vm.queue) < vm.spec.buffer_capacity for vm in c.vms)
            assert c.is_idle() == all(not vm.queue for vm in c.vms)
            occupied = [len(vm.queue) for vm in c.vms]
            assert c.occupied_counts() == occupied
            assert c.assigned_lengths() == [sum(q.task.length for q in vm.queue)
                                            for vm in c.vms]
            assert c.free_counts() == [vm.spec.buffer_capacity - n
                                       for vm, n in zip(c.vms, occupied)]
            assert c.feasible_vms() == [i for i, (vm, n) in enumerate(zip(c.vms, occupied))
                                        if n < vm.spec.buffer_capacity]
            for vm in c.vms:
                # FIFO service: the in-service entries are the oldest
                # admitted ones, and a PE idles only when none is waiting
                busy = [q for q in vm.pe_busy if q is not None]
                n = min(len(vm.queue), vm.spec.pes)
                assert len(busy) == n and all(q in vm.queue[:n] for q in busy)

    # Six completions tie at t = 1 s; admission order differs from
    # (vm, pe) order, and the events must pop in (vm, pe) order.
    c = make_cluster(num_vms=3, capacity=4, pes=2)
    for tid, vm_index in enumerate([2, 0, 1, 2, 0, 1]):
        c.admit(task(tid, 1000), vm_index)
    popped = [c.advance_to_next_event()[0][0] for _ in range(6)]
    assert [(r.vm_index, r.task_id) for r in popped] == [
        (0, 1), (0, 4), (1, 2), (1, 5), (2, 0), (2, 3)]
    assert all(r.finish_time == 1.0 for r in popped)
    assert c.is_idle() and c.next_event_time() is None


# -- failure draws ---------------------------------------------------------------

def test_failure_ratio_zero_always_completes():
    rng = np.random.default_rng(0)
    out = {maybe_fail(task(0, 10), 0.0, 1, rng) for _ in range(500)}
    assert out == {FailureOutcome.COMPLETE}


def test_failure_ratio_one_requeues_then_aborts():
    rng = np.random.default_rng(0)
    fates = [maybe_fail(task(0, 10), 1.0, attempts, rng, max_attempts=3)
             for attempts in (1, 2, 3)]
    assert fates == [FailureOutcome.REQUEUE, FailureOutcome.REQUEUE,
                     FailureOutcome.ABORT]


def test_failure_frequency_matches_ratio():
    rng = np.random.default_rng(123)
    n = 100_000
    fails = sum(maybe_fail(task(0, 10), 0.2, 1, rng) is not FailureOutcome.COMPLETE
                for _ in range(n))
    assert abs(fails / n - 0.2) <= 0.01


def test_maybe_fail_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        maybe_fail(task(0, 1), 1.5, 1, rng)
    with pytest.raises(ValueError):
        maybe_fail(task(0, 1), 0.5, 0, rng)


def test_default_max_attempts():
    assert DEFAULT_MAX_ATTEMPTS == 10


# -- the inline occupancy checks ---------------------------------------------

def _busy_cluster():
    # one VM, two PEs, buffer 4: tasks 0 and 1 in service, task 2 waiting
    c = make_cluster(num_vms=1, capacity=4, pes=2)
    for tid, length in enumerate([1000, 3000, 2000]):
        c.admit(task(tid, length), 0)
    assert len(c.vms[0].waiting) == 1 and None not in c.vms[0].pe_busy
    return c


@pytest.mark.parametrize("corrupt", [
    lambda c: c._occupied.__setitem__(0, c._occupied[0] - 1),
    lambda c: c._assigned.__setitem__(0, -10**9),
    lambda c: setattr(c, "_free", -5),
    lambda c: setattr(c, "_free", c._capacity + 5),
    lambda c: c.vms[0].pe_busy.__setitem__(1, None),   # a PE idles while task 2 waits
], ids=["occupied", "assigned", "free_low", "free_high", "idle_pe"])
@pytest.mark.parametrize("op", ["admit", "advance"])
def test_inline_checks_fire(corrupt, op):
    c = _busy_cluster()
    corrupt(c)
    with pytest.raises(AssertionError):
        if op == "admit":
            c.admit(task(9, 500), 0)
        else:
            c.advance_to_next_event()


def test_freed_pe_takes_the_waiting_head():
    c = _busy_cluster()
    records, _ = c.advance_to_next_event()
    assert [r.task_id for r in records] == [0]
    vm = c.vms[0]
    assert not vm.waiting
    assert [q.task.id for q in vm.pe_busy] == [2, 1]
    assert vm.pe_busy[0].finish == 1.0 + 2.0
    assert c.next_event_time() == 3.0
