"""Cloud model: VMs with finite buffers, PE servers and completion events.

Each VM owns one FIFO buffer of capacity N shared by `pes` independent
single-server processing elements. A task's service time is
length / mips seconds, deterministic. Time inside a run is continuous
(seconds); scheduling happens at discrete instants chosen by the driver.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from operator import lt, sub
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_MAX_ATTEMPTS
from .errors import BufferFullError
from .workload import TaskSpec

# Uniforms a failure hook takes from its generator per rng.random(n) call.
FAILURE_DRAW_BLOCK = 64


@dataclass(frozen=True)
class VmSpec:
    index: int
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


class FailureOutcome(enum.Enum):
    COMPLETE = "complete"
    REQUEUE = "requeue"
    ABORT = "abort"


def _fate(u: float, failure_ratio: float, attempts: int,
          max_attempts: int) -> FailureOutcome:
    """The one fate rule: u < failure_ratio fails the attempt, which is
    requeued while attempts < max_attempts and aborted after that."""
    if u >= failure_ratio:
        return FailureOutcome.COMPLETE
    return FailureOutcome.REQUEUE if attempts < max_attempts else FailureOutcome.ABORT


def _check_ratio(failure_ratio: float):
    if not (0.0 <= failure_ratio <= 1.0):
        raise ValueError("failure_ratio must be in [0, 1]")


def failure_hook(failure_ratio: float, seed,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
    """Outcome hook for advance_to_next_event, or None at ratio 0.

    At ratio 0 every attempt completes and no generator is built. Above
    0 the hook builds its own, np.random.default_rng(seed), and gives the
    k-th event it sees the fate _fate gives the k-th uniform of that
    stream: one Bernoulli(failure_ratio) draw per finishing attempt. It
    takes the uniforms in blocks of FAILURE_DRAW_BLOCK via rng.random(n),
    which yields the same doubles as n scalar calls. Above 0 a seed of
    None raises ValueError.
    """
    _check_ratio(failure_ratio)
    if failure_ratio == 0.0:
        return None
    if seed is None:
        raise ValueError("a failure_ratio above 0 needs a failure_seed")
    rng = np.random.default_rng(seed)

    def uniforms():
        while True:
            yield from rng.random(FAILURE_DRAW_BLOCK).tolist()

    draws = uniforms()

    def outcome(attempt):
        return _fate(next(draws), failure_ratio, attempt, max_attempts)

    return outcome


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
        self.queue: list[_Queued] = []      # admission order; in-service entries carry finish
        # Admitted, not yet in service, FIFO. While anything waits, no PE
        # is idle, so a freed PE takes the head and an admission starts
        # at once or waits, never both.
        self.waiting: deque[_Queued] = deque()
        self.pe_busy: list[_Queued | None] = [None] * spec.pes

    def available_at(self, clock: float) -> float:
        """Instant the next PE frees up (now, if any PE is idle)."""
        if None in self.pe_busy:
            return clock
        return min(q.finish for q in self.pe_busy)


class ClusterState:
    """All VMs plus the simulation clock."""

    def __init__(self, vm_specs: list[VmSpec]):
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
            assert not vm.waiting, "a PE is idle while an entry waits"
            pe = busy.index(None)
            entry.finish = finish = clock + task.length / vm.spec.mips
            busy[pe] = entry
            heappush(self.events, (finish, vm_index, pe, entry))
        else:
            entry.finish = None
            vm.waiting.append(entry)
        assert (0 <= occupied[vm_index] == len(vm.queue) <= caps[vm_index]
                and self._assigned[vm_index] >= 0
                and 0 <= self._free <= self._capacity), \
            f"occupancy counters of VM {vm_index} out of step with its buffer"

    def advance_to_next_event(self, outcome=None):
        """Process the single earliest completion event.

        outcome(attempt) returns the FailureOutcome of the finishing
        attempt: completions yield a CompletionRecord, aborts yield a
        record flagged aborted, and requeues hand the task back to the
        caller, whose next admit of it numbers the next attempt. With no
        outcome hook every event completes. Ties on the finish instant
        go to the lowest VM index, then the lowest PE. The freed PE takes
        the head of the VM's waiting entries. Returns
        (records, requeued_tasks). No-op when every PE is idle.
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
        if vm.waiting:
            head = vm.waiting.popleft()
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

        if outcome is None:
            return [_new(CompletionRecord, (task.id, entry.admit_time, finish,
                                            task.length / mips, vi,
                                            entry.attempt, False))], []
        fate = outcome(entry.attempt)
        if fate is FailureOutcome.REQUEUE:
            self._retries[task.id] = entry.attempt + 1
            return [], [task]
        return [_new(CompletionRecord, (task.id, entry.admit_time, finish,
                                        task.length / mips, vi, entry.attempt,
                                        fate is FailureOutcome.ABORT))], []
