"""Cloud model: VMs with finite buffers, PE servers and completion events.

Each VM owns one FIFO buffer of capacity N shared by `pes` independent
single-server processing elements. A task's service time is
length / mips seconds, deterministic. Time inside a run is continuous
(seconds); scheduling happens at discrete instants chosen by the driver.
ClusterState also owns a run's attempt rule; failure_hook is its stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from operator import lt, sub
from typing import NamedTuple

import numpy as np

from .workload import TaskSpec

# Uniforms a failure hook takes from its generator per rng.random(n) call.
FAILURE_DRAW_BLOCK = 64


class BufferFullError(RuntimeError):
    """Admission attempted on a VM whose buffer is at capacity."""


@dataclass(frozen=True)
class VmSpec:
    """One VM's speed, buffer capacity and PE count; its index is its
    position in the run's vm_specs list."""
    mips: float
    buffer_capacity: int
    pes: int = 1


class CompletionRecord(NamedTuple):
    """Outcome of one task's final service attempt on a VM.

    submit_time is the admission instant of that attempt, finish_time the
    completion (or abort) instant and exec_time = length / mips.
    """

    task_id: int
    submit_time: float
    finish_time: float
    exec_time: float
    vm_index: int
    attempts: int
    aborted: bool = False


# Records are built with tuple.__new__, which the NamedTuple's own
# __new__ calls, less its Python-level frame: every field is passed.
_new = tuple.__new__


def failure_hook(failure_ratio: float, seed):
    """The run's failure stream for ClusterState, or None at ratio 0.

    At ratio 0 no generator is built and every attempt completes. Above
    0 the hook builds its own, np.random.default_rng(seed), and its k-th
    call returns u_k < failure_ratio for the k-th uniform u_k of that
    stream: one Bernoulli(failure_ratio) draw per finishing attempt. It
    takes the uniforms in blocks of FAILURE_DRAW_BLOCK via rng.random(n),
    which yields the same doubles as n scalar calls. Above 0 a seed of
    None raises ValueError.
    """
    if failure_ratio == 0.0:
        return None
    if seed is None:
        raise ValueError("a failure_ratio above 0 needs a failure_seed")
    rng = np.random.default_rng(seed)

    def fails():
        while True:
            for u in rng.random(FAILURE_DRAW_BLOCK).tolist():
                yield u < failure_ratio

    return fails().__next__


class _Queued:
    """One buffered task instance plus its service bookkeeping.

    admit builds each entry with object.__new__ and sets every slot, as
    an __init__ would but without its Python-level frame; finish is the
    completion instant once in service, else None.
    """

    __slots__ = ("task", "admit_time", "attempt", "finish")


_alloc = object.__new__


class ClusterState:
    """All VMs, the simulation clock and the run's attempt rule.

    Each per-VM field is a flat list (or tuple) indexed by VM:
    - specs: the VmSpec tuple;
    - queues: each VM's buffered entries in admission order. Service
      starts in this order and no PE idles while an entry waits, so
      queues[vi][:pes] are in service and the rest wait;
    - pe_busy: per PE, the entry it serves, or None when idle;
    - occupied and assigned: the occupied buffer count and the total
      queued length;
    - capacities: the buffer capacity.
    free_slots counts the free buffer slots of all VMs. events holds the
    in-service completions keyed (finish, vm index, pe), so the heap pops
    them in the order a scan over every busy PE would pick and
    events[0][0] is the next completion instant.

    Callers read these fields and never change them: admit and
    advance_to_next_event are their only writers. Only clock is the
    driver's to move, forward to each arrival slot.

    fails, failure_hook's stream, is called once per finishing attempt
    (None: every attempt completes). A failed attempt is requeued while
    its number is below max_attempts, and recorded as aborted after that.
    """

    def __init__(self, vm_specs: list[VmSpec], max_attempts: int, fails):
        n = len(vm_specs)
        self.specs = tuple(vm_specs)
        self.queues: list[list[_Queued]] = [[] for _ in range(n)]
        self.pe_busy: list[list[_Queued | None]] = [[None] * s.pes for s in vm_specs]
        self.occupied = [0] * n
        self.assigned = [0] * n
        self.capacities = tuple(s.buffer_capacity for s in vm_specs)
        self._capacity = sum(self.capacities)
        self.free_slots = self._capacity
        self.events: list[tuple] = []
        self.clock = 0.0
        self._indices = range(n)
        # task id -> attempt number of its next admission, once requeued
        self._retries: dict[int, int] = {}
        self._max_attempts = max_attempts
        self._fails = fails

    # -- observation helpers used by schedulers ---------------------------

    def free_counts(self) -> list[int]:
        return list(map(sub, self.capacities, self.occupied))

    def feasible_vms(self) -> list[int]:
        """Indices of the VMs with a free buffer slot, ascending."""
        return list(compress(self._indices, map(lt, self.occupied,
                                                self.capacities)))

    def available_at(self, vm_index: int) -> float:
        """Instant vm_index's next PE frees up (the clock, if one is idle)."""
        busy = self.pe_busy[vm_index]
        if None in busy:
            return self.clock
        return min(q.finish for q in busy)

    def backlogs(self) -> list[float]:
        """Work queued at each VM, in seconds of single-PE service remaining.

        In-service tasks count their remaining time, waiting tasks their
        full time, summed in admission order; each total is divided by
        the VM's PE count as an estimate of the delay a new arrival
        would see.
        """
        clock = self.clock
        out = []
        for spec, queue in zip(self.specs, self.queues):
            mips = spec.mips
            secs = 0.0
            for q in queue:
                finish = q.finish
                if finish is not None:
                    r = finish - clock
                    secs += r if r > 0.0 else 0.0
                else:
                    secs += q.task.length / mips
            out.append(secs / spec.pes)
        return out

    # -- mutation ----------------------------------------------------------

    def admit(self, task: TaskSpec, vm_index: int):
        """Append task to vm_index's buffer at the current clock.

        The attempt is the task's first, or the one its last requeue
        recorded. Starts service on the lowest idle PE when there is one,
        else the task waits. Raises BufferFullError when the buffer is at
        capacity.
        """
        occupied = self.occupied
        caps = self.capacities
        if occupied[vm_index] >= caps[vm_index]:
            raise BufferFullError(
                f"VM {vm_index} buffer at capacity {caps[vm_index]}")
        queue = self.queues[vm_index]
        spec = self.specs[vm_index]
        clock = self.clock
        retries = self._retries
        entry = _alloc(_Queued)
        entry.task = task
        entry.admit_time = clock
        entry.attempt = retries.pop(task.id, 1) if retries else 1
        queue.append(entry)
        occupied[vm_index] += 1
        self.assigned[vm_index] += task.length
        self.free_slots -= 1
        busy = self.pe_busy[vm_index]
        if None in busy:
            assert len(queue) <= spec.pes, "a PE is idle while an entry waits"
            pe = busy.index(None)
            entry.finish = finish = clock + task.length / spec.mips
            busy[pe] = entry
            heappush(self.events, (finish, vm_index, pe, entry))
        else:
            entry.finish = None
        assert (0 <= occupied[vm_index] == len(queue) <= caps[vm_index]
                and self.assigned[vm_index] >= 0
                and 0 <= self.free_slots <= self._capacity), \
            f"occupancy counters of VM {vm_index} out of step with its buffer"

    def advance_to_next_event(self):
        """Process the single earliest completion event.

        Ties on the finish instant go to the lowest VM index, then the
        lowest PE. The freed PE takes the VM's oldest waiting entry. The
        finishing attempt yields its CompletionRecord, aborted if it
        failed, unless it failed below max_attempts: then the task goes
        back to the caller, whose next admit of it numbers the next
        attempt. Returns (records, requeued_tasks). No-op when every PE
        is idle.
        """
        events = self.events
        if not events:
            return [], []
        finish, vi, pe, entry = heappop(events)
        queue = self.queues[vi]
        spec = self.specs[vi]
        assert finish >= self.clock - 1e-9
        self.clock = finish
        queue.remove(entry)
        self.occupied[vi] -= 1
        task = entry.task
        self.assigned[vi] -= task.length
        self.free_slots += 1
        mips = spec.mips
        busy = self.pe_busy[vi]
        if len(queue) >= spec.pes:
            head = queue[spec.pes - 1]
            head.finish = head_finish = finish + head.task.length / mips
            busy[pe] = head
            heappush(events, (head_finish, vi, pe, head))
            assert None not in busy, "a PE is idle while an entry waits"
        else:
            busy[pe] = None
        assert (0 <= self.occupied[vi] == len(queue) <= self.capacities[vi]
                and self.assigned[vi] >= 0
                and 0 <= self.free_slots <= self._capacity), \
            f"occupancy counters of VM {vi} out of step with its buffer"

        failed = self._fails is not None and self._fails()
        if failed and entry.attempt < self._max_attempts:
            self._retries[task.id] = entry.attempt + 1
            return [], [task]
        return [_new(CompletionRecord, (task.id, entry.admit_time, finish,
                                        task.length / mips, vi, entry.attempt,
                                        failed))], []
