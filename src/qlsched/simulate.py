"""Hybrid-time simulation driver.

Arrivals land at discrete slot boundaries (slot n at n * slot_seconds);
service runs in continuous seconds. Tasks wait in a global FCFS queue
until some VM buffer has space; the scheduling policy is consulted once
per admission, at slot boundaries and immediately after completion
events that free buffer space. Failed attempts requeue to the tail of
the global queue and are rescheduled like fresh submissions.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

import numpy as np

from .cluster import ClusterState, VmSpec, failure_hook
from .workload import TaskSpec


class Simulation:
    """Single run of one workload against one cluster under one policy.

    The caller drives it: next_decision() advances time until a task can
    be admitted somewhere and takes that task off the global queue
    (returning it), or returns None once the run is fully drained; the
    caller then admits the task with cluster.admit(task, vm_index).

    failure_hook(failure_ratio, failure_seed) and max_attempts go to the
    ClusterState, which applies them. At ratio 0 no failure generator is
    built. Above 0 the run builds its own from failure_seed (anything
    np.random.default_rng takes), so no caller can share it; a ratio
    above 0 with no failure_seed raises ValueError.
    """

    def __init__(self, vm_specs: list[VmSpec], workload: list[TaskSpec],
                 slot_seconds: float, failure_ratio: float, max_attempts: int,
                 failure_seed):
        self.cluster = ClusterState(vm_specs, max_attempts,
                                    failure_hook(failure_ratio, failure_seed))
        self.slot_seconds = slot_seconds
        self._pending = deque(sorted(workload, key=attrgetter("arrival_slot", "id")))
        self._queue: deque[TaskSpec] = deque()
        self.records = []

    def next_decision(self):
        """Advance until a task is admittable, then pop it off the global
        queue and return it; return None when drained. The caller must
        admit the returned task before the next call.

        A completion due no later than the next arrival slot comes first.
        """
        queue = self._queue
        pending = self._pending
        cluster = self.cluster
        events = cluster.events
        slot_seconds = self.slot_seconds
        while True:
            if queue and cluster.free_slots:
                return queue.popleft()
            if events and (not pending
                           or events[0][0] <= pending[0].arrival_slot * slot_seconds):
                records, requeued = cluster.advance_to_next_event()
                self.records.extend(records)
                queue.extend(requeued)
            elif pending:
                slot = pending[0].arrival_slot
                t_slot = slot * slot_seconds
                assert t_slot >= cluster.clock - 1e-9
                cluster.clock = max(cluster.clock, t_slot)
                while pending and pending[0].arrival_slot == slot:
                    queue.append(pending.popleft())
            else:
                # no arrivals left, no events pending; queue must be empty
                assert not queue
                return None

    def drain(self, policy, rng: np.random.Generator | None):
        """Run to completion, consulting policy(cluster, rng) per admission:
        evaluation runs, and training episodes with SimulationEnv.step.

        Each decision is next_decision(), the policy, then cluster.admit,
        with the methods bound once per run from the instance, so a patch
        of ClusterState made before the run is the one called.
        """
        cluster = self.cluster
        admit = cluster.admit
        next_decision = self.next_decision
        while (task := next_decision()) is not None:
            admit(task, policy(cluster, rng))
        return self.records


def run_policy_simulation(vm_specs, workload, policy, slot_seconds: float,
                          failure_ratio: float, max_attempts: int,
                          policy_rng: np.random.Generator | None, failure_seed):
    """Convenience wrapper: simulate one workload end to end.

    policy(cluster, rng) -> vm index, asked only while some buffer has
    space. Returns the completion records, aborted attempts included.
    """
    sim = Simulation(vm_specs, workload, slot_seconds, failure_ratio,
                     max_attempts, failure_seed)
    return sim.drain(policy, policy_rng)
