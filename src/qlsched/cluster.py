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


class VmState:
    def __init__(self, spec: VmSpec):
        self.spec = spec
        # Admission order. Service starts in this order and no PE idles
        # while an entry waits: queue[:pes] are in service, the rest wait.
        self.queue: list[_Queued] = []
        self.pe_busy: list[_Queued | None] = [None] * spec.pes

    def available_at(self, clock: float) -> float:
        """Instant the next PE frees up (now, if any PE is idle)."""
        if None in self.pe_busy:
            return clock
        return min(q.finish for q in self.pe_busy)


class ClusterState:
    """All VMs, the simulation clock and the run's attempt rule.

    fails, failure_hook's stream, is called once per finishing attempt
    (None: every attempt completes). A failed attempt is requeued while
    its number is below max_attempts, and recorded as aborted after that.
    """

    def __init__(self, vm_specs: list[VmSpec], max_attempts: int, fails):
        self.vms = [VmState(s) for s in vm_specs]
        self.clock = 0.0
        # In-service completions keyed (finish, vm index, pe): the heap
        # pops them in the order a scan over every busy PE would pick.
        # Callers may read it (events[0][0] is the next completion
        # instant); admit and advance_to_next_event are its only writers.
        self.events: list[tuple] = []
        self._capacities = tuple(s.buffer_capacity for s in vm_specs)
        self._indices = range(len(vm_specs))
        # The only record of each VM's occupied buffer count and queued
        # length; admit and advance_to_next_event keep both up to date.
        self._occupied = [0] * len(vm_specs)
        self._assigned = [0] * len(vm_specs)
        self._capacity = sum(self._capacities)
        self._free = self._capacity         # free buffer slots, all VMs
        # task id -> attempt number of its next admission, once requeued
        self._retries: dict[int, int] = {}
        self._max_attempts = max_attempts
        self._fails = fails

    # -- observation helpers used by schedulers ---------------------------

    def counters(self) -> tuple[list[int], list[int]]:
        """The live per-VM (occupied counts, assigned lengths) lists.

        No copy: the caller must not change them, and they change with
        the next admission or completion.
        """
        return self._occupied, self._assigned

    def free_counts(self) -> list[int]:
        return list(map(sub, self._capacities, self._occupied))

    def capacities(self) -> tuple[int, ...]:
        return self._capacities

    def feasible_vms(self) -> list[int]:
        """Indices of the VMs with a free buffer slot, ascending."""
        return list(compress(self._indices, map(lt, self._occupied,
                                                self._capacities)))

    def has_free_buffer(self) -> bool:
        return self._free > 0

    def backlogs(self) -> list[float]:
        """Work queued at each VM, in seconds of single-PE service remaining.

        In-service tasks count their remaining time, waiting tasks their
        full time, summed in admission order; each total is divided by
        the VM's PE count as an estimate of the delay a new arrival
        would see.
        """
        clock = self.clock
        out = []
        for vm in self.vms:
            mips = vm.spec.mips
            secs = 0.0
            for q in vm.queue:
                finish = q.finish
                if finish is not None:
                    r = finish - clock
                    secs += r if r > 0.0 else 0.0
                else:
                    secs += q.task.length / mips
            out.append(secs / vm.spec.pes)
        return out

    # -- mutation ----------------------------------------------------------

    def admit(self, task: TaskSpec, vm_index: int):
        """Append task to vm_index's buffer at the current clock.

        The attempt is the task's first, or the one its last requeue
        recorded. Starts service on the lowest idle PE when there is one,
        else the task waits. Raises BufferFullError when the buffer is at
        capacity.
        """
        occupied = self._occupied
        caps = self._capacities
        if occupied[vm_index] >= caps[vm_index]:
            raise BufferFullError(
                f"VM {vm_index} buffer at capacity {caps[vm_index]}")
        vm = self.vms[vm_index]
        clock = self.clock
        retries = self._retries
        entry = _alloc(_Queued)
        entry.task = task
        entry.admit_time = clock
        entry.attempt = retries.pop(task.id, 1) if retries else 1
        vm.queue.append(entry)
        occupied[vm_index] += 1
        self._assigned[vm_index] += task.length
        self._free -= 1
        busy = vm.pe_busy
        if None in busy:
            assert len(vm.queue) <= vm.spec.pes, "a PE is idle while an entry waits"
            pe = busy.index(None)
            entry.finish = finish = clock + task.length / vm.spec.mips
            busy[pe] = entry
            heappush(self.events, (finish, vm_index, pe, entry))
        else:
            entry.finish = None
        assert (0 <= occupied[vm_index] == len(vm.queue) <= caps[vm_index]
                and self._assigned[vm_index] >= 0
                and 0 <= self._free <= self._capacity), \
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
        vm = self.vms[vi]
        assert finish >= self.clock - 1e-9
        self.clock = finish
        vm.queue.remove(entry)
        self._occupied[vi] -= 1
        task = entry.task
        self._assigned[vi] -= task.length
        self._free += 1
        mips = vm.spec.mips
        busy = vm.pe_busy
        if len(vm.queue) >= vm.spec.pes:
            head = vm.queue[vm.spec.pes - 1]
            head.finish = head_finish = finish + head.task.length / mips
            busy[pe] = head
            heappush(events, (head_finish, vi, pe, head))
            assert None not in busy, "a PE is idle while an entry waits"
        else:
            busy[pe] = None
        assert (0 <= self._occupied[vi] == len(vm.queue) <= self._capacities[vi]
                and self._assigned[vi] >= 0
                and 0 <= self._free <= self._capacity), \
            f"occupancy counters of VM {vi} out of step with its buffer"

        failed = self._fails is not None and self._fails()
        if failed and entry.attempt < self._max_attempts:
            self._retries[task.id] = entry.attempt + 1
            return [], [task]
        return [_new(CompletionRecord, (task.id, entry.admit_time, finish,
                                        task.length / mips, vi, entry.attempt,
                                        failed))], []
