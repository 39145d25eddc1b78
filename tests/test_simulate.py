"""Driver semantics: slot boundaries, the global queue, failures, conservation.

The driver is hybrid-time: arrivals only at slot boundaries (slot n at
n * slot_seconds), completions in continuous seconds, policy consulted
per admission.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sim
from qlsched import simulate
from qlsched.cluster import FAILURE_DRAW_BLOCK, VmSpec
from qlsched.config import ScenarioConfig
from qlsched.envs import (FreeBufferView, LengthAwareView, SimulationEnv,
                          encode_state, reward)
from qlsched.policies import (fifo_select, greedy_select, mixed_select,
                               random_select)
from qlsched.simulate import Simulation, run_policy_simulation
from qlsched.workload import TaskSpec


def specs(num_vms=2, capacity=3, mips=1000.0, pes=1):
    return [VmSpec(mips=mips, buffer_capacity=capacity, pes=pes)
            for i in range(num_vms)]


def test_arrivals_wait_for_their_slot():
    wl = [TaskSpec(0, 0, 1000), TaskSpec(1, 1, 1000)]
    sim = Simulation(specs(), wl, slot_seconds=10.0, failure_ratio=0.0,
                     max_attempts=10, failure_seed=None)
    t = sim.next_decision()
    assert t.id == 0 and sim.cluster.clock == 0.0
    sim.cluster.admit(t, 0)
    t = sim.next_decision()
    # task 0 completes at 1 s, but task 1 only arrives at the slot boundary
    assert t.id == 1 and sim.cluster.clock == pytest.approx(10.0)


def test_all_same_slot_admitted_at_zero():
    wl = [TaskSpec(i, 0, 500) for i in range(4)]
    sim = Simulation(specs(), wl, slot_seconds=5.0, failure_ratio=0.0,
                     max_attempts=10, failure_seed=None)
    for _ in range(4):
        t = sim.next_decision()
        assert t is not None
        assert sim.cluster.clock == 0.0
        sim.cluster.admit(t, 0 if sim.cluster.free_counts()[0] else 1)
    assert sorted(q.task.id for vm in sim.cluster.vms for q in vm.queue) == [0, 1, 2, 3]


def test_full_buffers_defer_until_completion_frees_space():
    wl = [TaskSpec(i, 0, 1000) for i in range(3)]
    sim = Simulation(specs(num_vms=1, capacity=2), wl, slot_seconds=100.0,
                     failure_ratio=0.0, max_attempts=10, failure_seed=None)
    sim.cluster.admit(sim.next_decision(), 0)
    sim.cluster.admit(sim.next_decision(), 0)
    # buffer now full; the third task has arrived but waits unassigned
    assert sim.cluster.free_counts()[0] == 0
    assert [q.task.id for q in sim.cluster.vms[0].queue] == [0, 1]
    t = sim.next_decision()
    assert t.id == 2
    # it became admittable exactly when the first completion freed a slot
    assert sim.cluster.clock == pytest.approx(1.0)


def test_records_complete_when_drained():
    wl = [TaskSpec(i, i, 2000) for i in range(5)]
    records = run_policy_simulation(specs(), wl, greedy_select, slot_seconds=1.0,
                                    failure_ratio=0.0, max_attempts=10,
                                    policy_rng=None, failure_seed=None)
    assert sorted(r.task_id for r in records) == list(range(5))
    assert all(not r.aborted for r in records)


def test_failure_ratio_one_aborts_after_max_attempts():
    wl = [TaskSpec(0, 0, 100), TaskSpec(1, 0, 100)]
    records = run_policy_simulation(
        specs(), wl, greedy_select, slot_seconds=1.0, failure_ratio=1.0,
        max_attempts=2, policy_rng=None, failure_seed=5)
    assert len(records) == 2
    assert all(r.aborted and r.attempts == 2 for r in records)


def test_requeued_task_goes_to_tail():
    # VM capacity 1, two tasks in slot 0: task 0 fails once, so it must
    # requeue behind task 1. Seed 29's first uniform fails at ratio 0.5,
    # and the next two (task 1, then task 0's retry) complete.
    u = np.random.default_rng(29).random(3)
    assert u[0] < 0.5 <= min(u[1:])
    wl = [TaskSpec(0, 0, 1000), TaskSpec(1, 0, 1000)]
    sim = Simulation(specs(num_vms=1, capacity=1), wl, slot_seconds=1000.0,
                     failure_ratio=0.5, max_attempts=10, failure_seed=29)
    records = sim.drain(greedy_select, None)
    by_finish = sorted(records, key=lambda r: r.finish_time)
    assert [r.task_id for r in by_finish] == [1, 0]
    assert by_finish[1].attempts == 2
    # response is measured from the final admission
    assert by_finish[1].submit_time == pytest.approx(2.0)


def _failure_run(ratio, seed, max_attempts=2):
    rng = np.random.default_rng(seed)
    wl = [TaskSpec(i, i // 3, int(rng.integers(500, 4000))) for i in range(200)]
    return run_policy_simulation(
        specs(num_vms=3, capacity=2, pes=2), wl, random_select,
        slot_seconds=1.0, failure_ratio=ratio, max_attempts=max_attempts,
        policy_rng=np.random.default_rng(seed + 2), failure_seed=seed + 1)


def maybe_fail(failure_ratio, rng):
    """The scalar reference for the block-drawing failure hook: one
    rng.random() draw per finishing attempt, at every ratio."""
    return rng.random() < failure_ratio


@pytest.mark.parametrize("ratio", [0.0, 0.2, 1.0])
def test_block_failure_draws_match_one_maybe_fail_per_event(monkeypatch, ratio):
    # Reference: a generator built from the failure seed and one
    # maybe_fail call (one scalar draw) per event, at every ratio, 0
    # included. The run itself builds its failure generator above 0 only.
    default_rng = np.random.default_rng
    for seed in (3, 40, 77):
        built = []

        def spy(seed_arg):
            built.append(seed_arg)
            return default_rng(seed_arg)

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", spy)
            records = _failure_run(ratio, seed)
        # the workload and policy generators, then the failure generator
        assert built == [seed, seed + 2] + ([seed + 1] if ratio else [])
        draws = []

        def scalar_hook(failure_ratio, failure_seed):
            rng = default_rng(failure_seed)

            def fails():
                draws.append(maybe_fail(failure_ratio, rng))
                return draws[-1]
            return fails

        with monkeypatch.context() as m:
            m.setattr(simulate, "failure_hook", scalar_hook)
            expect = _failure_run(ratio, seed)
        assert records == expect
        assert len(draws) > 2 * FAILURE_DRAW_BLOCK
        if ratio > 0.0:
            assert any(r.aborted for r in records)
            if ratio < 1.0:
                assert any(r.attempts > 1 and not r.aborted for r in records)


def test_conservation_property():
    # every submitted task appears in exactly one record once drained
    rng = np.random.default_rng(31)
    for case in range(1000):
        n = int(rng.integers(1, 12))
        wl = [TaskSpec(i, int(rng.integers(0, 6)), int(rng.integers(100, 20000)))
              for i in range(n)]
        wl.sort(key=lambda t: t.arrival_slot)
        wl = [TaskSpec(i, t.arrival_slot - wl[0].arrival_slot, t.length)
              for i, t in enumerate(wl)]
        ratio = float(rng.choice([0.0, 0.3]))
        records = run_policy_simulation(
            specs(num_vms=int(rng.integers(1, 4)), capacity=int(rng.integers(1, 4))),
            wl, random_select, slot_seconds=float(rng.choice([0.5, 2.0])),
            failure_ratio=ratio, max_attempts=10,
            policy_rng=np.random.default_rng(case),
            failure_seed=case + 1)
        assert sorted(r.task_id for r in records) == list(range(n))


def test_same_seed_same_records():
    wl = [TaskSpec(i, i // 2, 3000 + 17 * i) for i in range(12)]
    def run():
        return run_policy_simulation(
            specs(num_vms=3, capacity=2), wl, random_select,
            slot_seconds=2.0, failure_ratio=0.2, max_attempts=10,
            policy_rng=np.random.default_rng(9),
            failure_seed=10)
    assert run() == run()


def test_fifo_order_preserved_for_global_queue():
    # with one VM and capacity 1, service order equals arrival order
    wl = [TaskSpec(i, 0, 1000) for i in range(5)]
    records = run_policy_simulation(specs(num_vms=1, capacity=1), wl,
                                    fifo_select, slot_seconds=1000.0,
                                    failure_ratio=0.0, max_attempts=10,
                                    policy_rng=None, failure_seed=None)
    order = [r.task_id for r in sorted(records, key=lambda r: r.finish_time)]
    assert order == list(range(5))


def test_slot_seconds_validation():
    with pytest.raises(ValueError):
        Simulation(specs(), [TaskSpec(0, 0, 1)], slot_seconds=0.0,
                   failure_ratio=0.0, max_attempts=10, failure_seed=None)


@pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan")])
def test_failure_ratio_checked_at_construction(ratio):
    with pytest.raises(ValueError, match="failure_ratio"):
        Simulation(specs(), [TaskSpec(0, 0, 1)], slot_seconds=1.0,
                   failure_ratio=ratio, max_attempts=10, failure_seed=None)


def test_failure_ratio_above_zero_needs_a_seed():
    # no hidden default stream: a failing run names its own seed
    with pytest.raises(ValueError, match="failure_seed"):
        Simulation(specs(), [TaskSpec(0, 0, 1)], slot_seconds=1.0,
                   failure_ratio=0.1, max_attempts=10, failure_seed=None)
    assert Simulation(specs(), [TaskSpec(0, 0, 1)], slot_seconds=1.0,
                      failure_ratio=0.0, max_attempts=10,
                      failure_seed=None).cluster._fails is None


@pytest.mark.parametrize("make_view", [lambda: LengthAwareView(2000, 3),
                                       lambda: FreeBufferView(0.5, 0.5)],
                         ids=["length_aware", "free_buffer"])
def test_env_reuses_a_fresh_state(make_view):
    # The env encodes each decision's state once and hands it to the
    # agent and to the reward; each must equal a fresh encoding of the
    # unchanged cluster, requeues included. The reward of an action
    # reaches the agent at the next decision, or in the episode's result.
    scenario = ScenarioConfig(num_tasks=40, length_min=500, length_max=6000,
                              num_vms=3, vm_mips=1000, buffer_min=3, buffer_max=3,
                              num_pes=2)
    view, fresh = make_view(), make_view()   # fresh has no remembered rewards
    env = SimulationEnv(scenario, specs(num_vms=3, pes=2), view,
                        slot_seconds=1.0, failure_ratio=0.2, max_attempts=10,
                        d_max=5)
    rng = np.random.default_rng(12)
    env.reset(rng)
    cluster = env.sim.cluster
    expect = [None]     # the reward the agent's next call must get

    def agent(reward, state, actions):
        assert reward == expect[0]
        assert state == fresh.state(cluster)
        assert actions == cluster.feasible_vms()
        action = actions[int(rng.integers(len(actions)))]
        expect[0] = fresh.reward(cluster, action, fresh.state(cluster))
        return action

    final = env.episode(agent, rng)
    assert final == (expect[0], fresh.state(cluster))
    assert expect[0] is not None
    assert any(r.attempts > 1 for r in env.sim.records)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 3),
       vms=st.lists(st.tuples(st.sampled_from([500.0, 1000.0, 2500.0]),
                              st.integers(1, 2)), min_size=1, max_size=4),
       tasks=st.lists(st.tuples(st.integers(0, 5), st.integers(100, 20_000)),
                      min_size=1, max_size=30),
       slot_seconds=st.sampled_from([0.5, 1.0, 4.0]),
       seed=st.integers(0, 2**32 - 1))
def test_a_least_occupied_vm_is_always_feasible_and_rewarded(
        capacity, vms, tasks, slot_seconds, seed):
    # The premises of the placement reward's ceiling (envs.reward): at
    # failure ratio 0 with equal buffer capacities, whatever the feasible
    # policy, every decision has a least-occupied VM with space, reward
    # gives it +1, and there is exactly one decision per task.
    specs_ = [VmSpec(mips=mips, buffer_capacity=capacity, pes=pes)
              for v, (mips, pes) in enumerate(vms)]
    sim = Simulation(specs_, [TaskSpec(i, slot, length)
                              for i, (slot, length) in enumerate(tasks)],
                     slot_seconds=slot_seconds, failure_ratio=0.0,
                     max_attempts=10, failure_seed=None)
    decisions = 0

    def random_feasible(cluster, rng):
        nonlocal decisions
        decisions += 1
        state = encode_state(cluster, 10_000, 40)
        occupied = state[:len(specs_)]
        feasible = cluster.feasible_vms()
        least = [v for v in feasible if occupied[v] == min(occupied)]
        assert least, (occupied, feasible)
        assert all(reward(state, v, cluster.capacities()) == 1 for v in least)
        return feasible[int(rng.integers(len(feasible)))]

    records = sim.drain(random_feasible, np.random.default_rng(seed))
    assert decisions == len(tasks) == len(records)


@pytest.mark.parametrize("weights, message", [
    ((2, 0.5), r"w_buffer must lie in \[0, 1\], got 2"),
    ((0.5, -0.1), r"w_wait must lie in \[0, 1\], got -0.1")])
def test_free_buffer_view_names_the_bad_weight(weights, message):
    with pytest.raises(ValueError, match=message):
        FreeBufferView(*weights)


@pytest.mark.parametrize("ratio", [0.0, 0.3])
def test_env_reset_draws_two_seeds_at_every_ratio(ratio):
    # the workload seed and the failure seed, even at ratio 0 where no
    # failure generator is built, so the training stream does not depend
    # on the ratio
    scenario = ScenarioConfig(num_tasks=10, length_min=500, length_max=3000,
                              num_vms=2, vm_mips=1000)
    env = SimulationEnv(scenario, specs(), LengthAwareView(2000, 3),
                        slot_seconds=1.0, failure_ratio=ratio, max_attempts=10,
                        d_max=5)
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    env.reset(rng)
    twin.integers(2**63, size=2)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert (env.sim.cluster._fails is None) == (ratio == 0.0)


@pytest.mark.parametrize("policy", sorted(reference_sim.POLICIES))
def test_drain_matches_the_reference_simulator(policy):
    # Simulation.drain against tests/reference_sim.py, record by record.
    # Half the cases use lengths and speeds whose service times are exact
    # binary fractions, so completions tie with each other and with slot
    # boundaries.
    select = {"greedy": greedy_select, "fifo": fifo_select,
              "random": random_select, "mixed": mixed_select}[policy]
    rng = np.random.default_rng(sorted(reference_sim.POLICIES).index(policy))
    seen = {"aborted": 0, "retried": 0, "waited": 0}
    for case in range(125):
        exact = case % 2 == 0
        vms = [(float(rng.choice([500, 1000, 2000])) if exact
                else float(rng.integers(400, 3000)),
                int(rng.integers(1, 5)), int(rng.integers(1, 6)))
               for _ in range(int(rng.integers(1, 5)))]
        n = int(rng.integers(1, 31))
        tasks = [(i, int(rng.integers(0, 8)),
                  250 * int(rng.integers(1, 40)) if exact
                  else int(rng.integers(100, 20_000)))
                 for i in rng.permutation(n).tolist()]
        slot_seconds = float(rng.choice([0.5, 1.0, 2.5]))
        ratio = float(rng.choice([0.0, 0.3, 1.0]))
        max_attempts = int(rng.integers(1, 4))
        seed = int(rng.integers(2**31))
        specs_ = [VmSpec(mips=mips, buffer_capacity=cap, pes=pes)
                  for v, (mips, cap, pes) in enumerate(vms)]
        sim = Simulation(specs_, [TaskSpec(*t) for t in tasks],
                         slot_seconds=slot_seconds, failure_ratio=ratio,
                         max_attempts=max_attempts,
                         failure_seed=seed + 1)
        got = [tuple(r) for r in sim.drain(select, np.random.default_rng(seed))]
        want = reference_sim.simulate(
            vms, tasks, reference_sim.POLICIES[policy], slot_seconds, ratio,
            max_attempts, np.random.default_rng(seed), seed + 1)
        assert got == want, f"case {case}"
        seen["aborted"] += sum(r[6] for r in want)
        seen["retried"] += sum(r[5] > 1 and not r[6] for r in want)
        arrival = {tid: slot * slot_seconds for tid, slot, _ in tasks}
        seen["waited"] += sum(r[1] > arrival[r[0]] for r in want)
    assert min(seen.values()) > 0, seen
