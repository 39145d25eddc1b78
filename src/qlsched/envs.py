"""State encoding, the reward rule and the environments of the Q-learning loop.

encode_state gives the scheduler's state (B_1..B_K, L-class_1..L-class_K),
per-VM occupied buffers then per-VM classes of total assigned length;
reward is the +1/-1/0 placement rule.

A learner env runs episodes: each decision point hands an agent the
previous action's reward, the state and the feasible actions. SimulationEnv
drains the simulator (fresh workload per episode) through Simulation.drain,
the loop evaluation runs; its state and reward come from a pluggable view
shared by the length-aware scheduler and the buffer-only baseline.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .metrics import _mean_wait, completed
from .simulate import Simulation
from .workload import generate_workload


def encode_state(cluster, range_mi: int, l_cap: int) -> tuple:
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

    At failure ratio 0 with equal capacities the optimal actions are
    exactly the least-occupied VMs (test_simulate.py checks the premises):
    - a decision comes only while some VM has space, so a least-occupied
      VM has space too and gets +1, the largest reward;
    - every task is decided exactly once, so the decisions left do not
      depend on the policy;
    - so the best return from a state is the sum of gamma^t over them,
      reached exactly by least-occupied placements; any other placement
      loses at least gamma^t. Above ratio 0 a requeue adds a decision.
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


class LengthAwareView:
    """State (B_1..B_K, Lclass_1..Lclass_K); reward from reward().

    The reward is a function of (state, action, capacities) alone, so
    each view remembers the rewards it has computed.
    """

    def __init__(self, range_mi: int, l_cap: int):
        if range_mi <= 0:
            raise ValueError("range_mi must be > 0")
        if l_cap < 0:
            raise ValueError("l_cap must be >= 0")
        self.range_mi = range_mi
        self.l_cap = l_cap
        self._rewards: dict = {}

    def state(self, cluster):
        return encode_state(cluster, self.range_mi, self.l_cap)

    def reward(self, cluster, action, state):
        """Reward of `action`; `state` is this view's state of `cluster`.

        An infeasible action raises on every call: only rewards that
        reward() returned are remembered.
        """
        key = (state, action, cluster.capacities())
        value = self._rewards.get(key)
        if value is None:
            value = self._rewards[key] = float(reward(*key))
        return value


class FreeBufferView:
    """State = free-buffer vector; reward mixes free space and queueing delay.

    reward = w_buffer * (free fraction of the chosen VM)
           - w_wait * (its backlog normalized by the largest backlog).
    """

    def __init__(self, w_buffer: float, w_wait: float):
        for name, weight in (("w_buffer", w_buffer), ("w_wait", w_wait)):
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {weight}")
        self.w_buffer = w_buffer
        self.w_wait = w_wait

    def state(self, cluster):
        return tuple(cluster.free_counts())

    def reward(self, cluster, action, state):
        """Reward of `action`; `state` is this view's state of `cluster`."""
        free_frac = state[action] / cluster.capacities()[action]
        backlogs = cluster.backlogs()
        top = max(backlogs)
        delay = backlogs[action] / top if top > 0 else 0.0
        return self.w_buffer * free_frac - self.w_wait * delay


class SimulationEnv:
    """Q-learning episodes over freshly generated workloads.

    Each reset builds a Simulation of a new workload from the scenario's
    generator (seeded off the training stream, so evaluation workloads
    stay held out); episode drains it with step as the policy, so
    episode_metrics() sees every completion of the horizon.
    """

    def __init__(self, scenario: ScenarioConfig, vm_specs, view,
                 slot_seconds: float, failure_ratio: float, max_attempts: int,
                 d_max: int):
        self.scenario = scenario
        self.vm_specs = list(vm_specs)
        self.view = view
        self.slot_seconds = slot_seconds
        self.failure_ratio = failure_ratio
        self.max_attempts = max_attempts
        self.d_max = d_max
        self.num_actions = len(self.vm_specs)   # one action per VM
        self.sim: Simulation | None = None
        self._agent = self._reward = None   # episode's agent, last reward

    def reset(self, rng: np.random.Generator):
        workload = generate_workload(self.scenario, int(rng.integers(2**63)),
                                     self.d_max)
        # the failure seed is drawn at every ratio, so the training
        # stream is the same; at ratio 0 the simulator builds nothing from it
        self.sim = Simulation(self.vm_specs, workload, self.slot_seconds,
                              self.failure_ratio, self.max_attempts,
                              int(rng.integers(2**63)))

    def episode(self, agent, rng: np.random.Generator):
        """Drain reset's run, asking agent(reward, state, actions) for each
        action (reward None at the first); return the last action's reward
        and the drained cluster's state."""
        self._agent, self._reward = agent, None
        self.sim.drain(self.step, rng)   # looked up now: a patched step runs
        return self._reward, self.view.state(self.sim.cluster)

    def step(self, cluster, rng: np.random.Generator):
        """drain's policy: the agent's action, whose reward is taken
        before drain admits it (drain asks only while a buffer has space)."""
        view = self.view
        state = view.state(cluster)
        action = self._agent(self._reward, state, cluster.feasible_vms())
        self._reward = view.reward(cluster, action, state)
        return action

    def episode_metrics(self):
        done = completed(self.sim.records)
        return {"avg_wait_s": _mean_wait(done)} if done else None
