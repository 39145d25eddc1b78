"""VM buffers, service events and failure draws."""

import numpy as np
import pytest

from qlsched import cluster
from qlsched.cluster import (FAILURE_DRAW_BLOCK, BufferFullError, ClusterState,
                             CompletionRecord, VmSpec, failure_hook)
from qlsched.workload import TaskSpec


def make_cluster(num_vms=3, capacity=5, mips=1000.0, pes=1, max_attempts=10,
                 fails=None):
    specs = [VmSpec(mips=mips, buffer_capacity=capacity, pes=pes)
             for i in range(num_vms)]
    return ClusterState(specs, max_attempts, fails)


def task(tid, length, slot=0):
    return TaskSpec(tid, slot, length)


# -- admission ----------------------------------------------------------------

def test_first_admission_counts():
    c = make_cluster()
    c.admit(task(0, 5000), 1)
    occupied, assigned = c.counters()
    assert occupied == [0, 1, 0]
    assert assigned == [0, 5000, 0]


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
            occ = c.counters()[0]
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
    assert c.events == []
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
        c = ClusterState([VmSpec(mips=1000.0, pes=pes,
                                 buffer_capacity=int(rng.integers(1, 5)))
                          for i in range(int(rng.integers(1, 4)))],
                         max_attempts=10, fails=None)
        tid = 0
        last_clock = 0.0
        for _ in range(30):
            in_service = [(q.finish, vi, pe, q.task.id)
                          for vi, vm in enumerate(c.vms)
                          for pe, q in enumerate(vm.pe_busy) if q is not None]
            next_finish = c.events[0][0] if c.events else None
            assert next_finish == (min(in_service)[0] if in_service else None)
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
            occupied = [len(vm.queue) for vm in c.vms]
            assert c.counters() == (occupied, [sum(q.task.length for q in vm.queue)
                                               for vm in c.vms])
            assert c.free_counts() == [vm.spec.buffer_capacity - n
                                       for vm, n in zip(c.vms, occupied)]
            assert c.feasible_vms() == [i for i, (vm, n) in enumerate(zip(c.vms, occupied))
                                        if n < vm.spec.buffer_capacity]
            for vm in c.vms:
                # FIFO service: the in-service entries are the oldest
                # admitted ones, and a PE idles only when none is waiting,
                # so queue[:pes] are the entries with a finish instant
                busy = [q for q in vm.pe_busy if q is not None]
                n = min(len(vm.queue), vm.spec.pes)
                assert len(busy) == n and all(q in vm.queue[:n] for q in busy)
                assert [q.finish is not None for q in vm.queue] == [
                    i < vm.spec.pes for i in range(len(vm.queue))]

    # Six completions tie at t = 1 s; admission order differs from
    # (vm, pe) order, and the events must pop in (vm, pe) order.
    c = make_cluster(num_vms=3, capacity=4, pes=2)
    for tid, vm_index in enumerate([2, 0, 1, 2, 0, 1]):
        c.admit(task(tid, 1000), vm_index)
    popped = [c.advance_to_next_event()[0][0] for _ in range(6)]
    assert [(r.vm_index, r.task_id) for r in popped] == [
        (0, 1), (0, 4), (1, 2), (1, 5), (2, 0), (2, 3)]
    assert all(r.finish_time == 1.0 for r in popped)
    assert c.events == [] and not any(vm.queue for vm in c.vms)
    assert c.free_counts() == [4, 4, 4]


@pytest.mark.parametrize("failure_ratio", [0.0, 0.2])
def test_records_are_completion_records(failure_ratio):
    # every record equals the keyword-built CompletionRecord of the entry
    # that finished, and keeps its type; at 0.2 with two attempts, tasks
    # are requeued and aborted too, and the cluster numbers each task's
    # attempts as this test counts them
    rng = np.random.default_rng(31)
    hook = failure_hook(failure_ratio, 32)
    draws = []

    def fails():
        draws.append(hook())
        return draws[-1]

    c = make_cluster(num_vms=3, capacity=3, pes=2, max_attempts=2,
                     fails=fails if hook is not None else None)
    admitted = {}      # task id -> (admit instant, attempt)
    retry = []         # (task, attempt) to admit again
    seen = {"complete": 0, "requeue": 0, "abort": 0}
    tid = 0
    for _ in range(3000):
        if c.has_free_buffer() and (retry or not c.events or rng.random() < 0.55):
            if retry:
                t, attempt = retry.pop(0)
            else:
                t, attempt = task(tid, int(rng.integers(1, 9000))), 1
                tid += 1
            c.admit(t, int(rng.choice(c.feasible_vms())))
            admitted[t.id] = (c.clock, attempt)
            continue
        finish, vi, _, entry = c.events[0]
        draws.clear()
        records, requeued = c.advance_to_next_event()
        # one draw per finishing attempt, none without a stream
        assert len(draws) == (hook is not None)
        failed = bool(draws) and draws[0]
        submit, attempt = admitted[entry.task.id]
        if failed and attempt < 2:
            seen["requeue"] += 1
            assert records == [] and requeued == [entry.task]
            retry.append((entry.task, attempt + 1))
            continue
        seen["abort" if failed else "complete"] += 1
        (r,) = records
        assert requeued == []
        assert type(r) is CompletionRecord
        assert r == CompletionRecord(
            task_id=entry.task.id, submit_time=submit, finish_time=finish,
            exec_time=entry.task.length / c.vms[vi].spec.mips, vm_index=vi,
            attempts=attempt, aborted=failed)
        assert r.aborted is failed
    if failure_ratio:
        assert seen["requeue"] and seen["abort"]
    else:
        assert seen["complete"] > 1000


def _reference_backlog(c, vm_index):
    # the per-VM loop backlogs() replaced
    vm = c.vms[vm_index]
    secs = 0.0
    for q in vm.queue:
        if q.finish is not None:
            secs += max(0.0, q.finish - c.clock)
        else:
            secs += q.task.length / vm.spec.mips
    return secs / vm.spec.pes


def test_backlogs_match_per_vm_loop():
    rng = np.random.default_rng(17)
    for pes in (1, 3):
        c = ClusterState([VmSpec(mips=mips, buffer_capacity=4, pes=pes)
                          for i, mips in enumerate((1000.0, 733.0, 2500.0))],
                         max_attempts=10, fails=None)
        for tid in range(400):
            free = c.feasible_vms()
            if free and rng.random() < 0.6:
                c.admit(task(tid, int(rng.integers(1, 20000))),
                        int(rng.choice(free)))
            elif c.events and rng.random() < 0.3:
                # move the clock toward the next completion, as an arrival
                # slot does, sometimes exactly onto it
                c.clock += (c.events[0][0] - c.clock) * float(rng.choice([0.5, 1.0]))
            else:
                c.advance_to_next_event()
            expected = [_reference_backlog(c, i) for i in range(len(c.vms))]
            assert [x.hex() for x in c.backlogs()] == [x.hex() for x in expected]
            # a clock past a pending finish clamps that entry's share at 0
            if c.events:
                clock = c.clock
                c.clock = c.events[0][0] + 0.5
                expected = [_reference_backlog(c, i) for i in range(len(c.vms))]
                assert [x.hex() for x in c.backlogs()] == [x.hex() for x in expected]
                c.clock = clock


# -- failure draws ---------------------------------------------------------------

def test_failure_ratio_zero_always_completes():
    # no stream at ratio 0, so every event completes and no seed is needed
    assert failure_hook(0.0, None) is None
    assert failure_hook(0.0, 0) is None


def test_failure_ratio_one_requeues_then_aborts():
    c = make_cluster(num_vms=1, max_attempts=3, fails=failure_hook(1.0, 0))
    t = task(0, 1000)
    for attempt in (1, 2):
        c.admit(t, 0)
        assert c.advance_to_next_event() == ([], [t])
    c.admit(t, 0)
    (r,), requeued = c.advance_to_next_event()
    assert requeued == [] and r.aborted and r.attempts == 3


def test_failure_boundary(monkeypatch):
    # u < ratio fails, u == ratio completes: a stub generator feeds the
    # stream the ratio itself, then the double just below it
    blocks = []

    class Stub:
        def __init__(self, seed):
            pass

        def random(self, n):
            blocks.append(n)
            return np.array([0.25, np.nextafter(0.25, 0.0)] * (n // 2))

    monkeypatch.setattr(cluster.np.random, "default_rng", Stub)
    c = make_cluster(num_vms=1, pes=2, max_attempts=1,
                     fails=failure_hook(0.25, 0))
    c.admit(task(0, 1000), 0)
    c.admit(task(1, 2000), 0)
    first, _ = c.advance_to_next_event()
    second, _ = c.advance_to_next_event()
    assert [(r.task_id, r.attempts, r.aborted) for r in first + second] == [
        (0, 1, False), (1, 1, True)]
    assert blocks == [FAILURE_DRAW_BLOCK]


def test_failure_frequency_matches_ratio():
    fails = failure_hook(0.2, 123)
    n = 100_000
    assert abs(sum(fails() for _ in range(n)) / n - 0.2) <= 0.01


@pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan")])
def test_failure_hook_validation(ratio):
    with pytest.raises(ValueError, match="failure_ratio"):
        failure_hook(ratio, 0)


# -- the inline occupancy checks ---------------------------------------------

def _busy_cluster():
    # one VM, two PEs, buffer 4: tasks 0 and 1 in service, task 2 waiting
    c = make_cluster(num_vms=1, capacity=4, pes=2)
    for tid, length in enumerate([1000, 3000, 2000]):
        c.admit(task(tid, length), 0)
    assert c.vms[0].queue[2].finish is None and None not in c.vms[0].pe_busy
    return c


@pytest.mark.parametrize("corrupt, message", [
    (lambda c: c._occupied.__setitem__(0, c._occupied[0] - 1), "out of step"),
    (lambda c: c._assigned.__setitem__(0, -10**9), "out of step"),
    (lambda c: setattr(c, "_free", -5), "out of step"),
    (lambda c: setattr(c, "_free", c._capacity + 5), "out of step"),
    # a PE idles while task 2 waits
    (lambda c: c.vms[0].pe_busy.__setitem__(1, None), "a PE is idle"),
], ids=["occupied", "assigned", "free_low", "free_high", "idle_pe"])
@pytest.mark.parametrize("op", ["admit", "advance"])
def test_inline_checks_fire(corrupt, message, op):
    c = _busy_cluster()
    corrupt(c)
    with pytest.raises(AssertionError, match=message):
        if op == "admit":
            c.admit(task(9, 500), 0)
        else:
            c.advance_to_next_event()


def test_freed_pe_takes_the_waiting_head():
    c = _busy_cluster()
    records, _ = c.advance_to_next_event()
    assert [r.task_id for r in records] == [0]
    vm = c.vms[0]
    assert [q.task.id for q in vm.queue] == [1, 2]
    assert [q.task.id for q in vm.pe_busy] == [2, 1]
    assert vm.pe_busy[0].finish == 1.0 + 2.0
    assert c.events[0][0] == 3.0
