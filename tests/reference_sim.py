"""An independent reference for the simulation rules in README's
"How the simulation works".

A next-event simulation in its plainest form (Law, Simulation Modeling
and Analysis, 2015, ch. 5): plain lists, a linear scan over every busy
PE for the next completion, and one scalar failure draw per finishing
attempt. It shares no code with qlsched, so a test that compares the
two pins the driver's rules rather than restating its code.

A VM is (mips, buffer capacity, pes), a task (id, arrival slot, length
in MI), and a record (task id, admission instant, finish instant,
execution time, VM index, attempts, aborted), the fields of
qlsched.cluster.CompletionRecord in order.
"""

import numpy as np


def _free(vms, servers, waiting):
    return [cap - len(waiting[v]) - sum(e is not None for e in servers[v])
            for v, (_, cap, _) in enumerate(vms)]


def greedy(vms, servers, waiting, clock, rng):
    """The VM with the most free buffer slots, lowest index on ties."""
    free = _free(vms, servers, waiting)
    return free.index(max(free))


def mixed(vms, servers, waiting, clock, rng):
    """A uniform draw over all VMs, kept when it has the most free slots."""
    free = _free(vms, servers, waiting)
    pick = int(rng.integers(len(vms)))
    return pick if free[pick] == max(free) else free.index(max(free))


def random(vms, servers, waiting, clock, rng):
    """A uniform draw over all VMs; a full pick redraws over the open ones."""
    open_vms = [v for v, n in enumerate(_free(vms, servers, waiting)) if n > 0]
    pick = int(rng.integers(len(vms)))
    return pick if pick in open_vms else open_vms[int(rng.integers(len(open_vms)))]


def fifo(vms, servers, waiting, clock, rng):
    """The open VM whose first PE frees earliest (now, if one is idle)."""
    def frees_at(v):
        busy = servers[v]
        return clock if None in busy else min(e[3] for e in busy)
    open_vms = [v for v, n in enumerate(_free(vms, servers, waiting)) if n > 0]
    return min(open_vms, key=lambda v: (frees_at(v), v))


POLICIES = {"greedy": greedy, "fifo": fifo, "random": random, "mixed": mixed}


def simulate(vms, tasks, policy, slot_seconds, failure_ratio, max_attempts,
             policy_rng, failure_seed):
    """The run's records, in the order its attempts end."""
    failures = np.random.default_rng(failure_seed)
    arrivals = sorted(tasks, key=lambda t: (t[1], t[0]))
    servers = [[None] * pes for _, _, pes in vms]  # [task, admitted, attempt, finish]
    waiting = [[] for _ in vms]                    # admitted, not yet served
    queue, records, attempts = [], [], {}
    clock = 0.0
    while True:
        if queue and max(_free(vms, servers, waiting)) > 0:
            task = queue.pop(0)
            v = policy(vms, servers, waiting, clock, policy_rng)
            assert _free(vms, servers, waiting)[v] > 0
            attempts[task[0]] = attempts.get(task[0], 0) + 1
            entry = [task, clock, attempts[task[0]], None]
            if None in servers[v]:
                entry[3] = clock + task[2] / vms[v][0]
                servers[v][servers[v].index(None)] = entry
            else:
                waiting[v].append(entry)
            continue
        nxt = None
        for v, busy in enumerate(servers):
            for p, e in enumerate(busy):
                if e is not None and (nxt is None or e[3] < nxt[2][3]):
                    nxt = (v, p, e)
        if nxt and (not arrivals or nxt[2][3] <= arrivals[0][1] * slot_seconds):
            v, p, (task, admitted, attempt, clock) = nxt
            servers[v][p] = None
            if waiting[v]:
                head = waiting[v].pop(0)
                head[3] = clock + head[0][2] / vms[v][0]
                servers[v][p] = head
            failed = failures.random() < failure_ratio
            if failed and attempt < max_attempts:
                queue.append(task)
            else:
                records.append((task[0], admitted, clock, task[2] / vms[v][0],
                                v, attempt, failed))
        elif arrivals:
            slot = arrivals[0][1]
            clock = max(clock, slot * slot_seconds)
            while arrivals and arrivals[0][1] == slot:
                queue.append(arrivals.pop(0))
        else:
            return records
