"""Q-learning primitives: step sizes, action selection, backups, stopping."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_helpers import OracleEnv, state_index
from qlsched.config import ConfigError, LearnerConfig
from qlsched.mdp import action_values, build_oracle_mdp, value_iteration
from qlsched.qlearn import (
    QTable,
    check_convergence,
    decay_epsilon,
    export_qtable,
    learning_rate,
    select_action,
    train,
    update_q,
)

S = ("s",)
NEXT = ("n",)


def set_q(table, state, action, value, gamma=0.9):
    """Write q(state, action) = value through a first-visit update.

    The first update of a pair has step size 1, so with an unseen next
    state the new q equals the reward exactly.
    """
    assert table.visits(state, action) == 0
    fresh = ("__void__", action, len(table._q))
    update_q(table, state, action, value, fresh, gamma, 0.65)


class TestLearningRate:
    def test_first_update_has_full_step(self):
        assert learning_rate(0, 0.65) == 1.0

    def test_second_update(self):
        assert learning_rate(1, 0.65) == 0.5

    def test_fifth_update(self):
        assert abs(learning_rate(4, 0.65) - 0.28886) < 1e-4
        assert learning_rate(4, 0.65) == pytest.approx(1.0 / (1.0 + 4**0.65))

    def test_decreasing_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            ex = float(rng.uniform(0.05, 1.0))
            v = int(rng.integers(0, 10_000))
            a, b = learning_rate(v, ex), learning_rate(v + 1, ex)
            assert 0.0 < b < a <= 1.0


class TestDecayEpsilon:
    def test_starts_at_epsilon0(self):
        assert decay_epsilon(0.8, 0, 200) == 0.8

    def test_halfway(self):
        assert decay_epsilon(0.5, 50, 100) == 0.25

    def test_reaches_zero_at_budget(self):
        assert decay_epsilon(1.0, 100, 100) == 0.0

    def test_clamped_past_budget(self):
        assert decay_epsilon(1.0, 250, 100) == 0.0

    def test_never_increases(self):
        eps = [decay_epsilon(0.7, c, 300) for c in range(301)]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        assert all(0.0 <= e <= 0.7 for e in eps)


class TestSelectAction:
    def test_single_action_skips_rng(self):
        # rng=None proves the fast path never draws
        table = QTable(4)
        assert select_action(S, table, 1.0, None, [3]) == 3

    def test_greedy_picks_argmax(self):
        table = QTable(3)
        table.ensure(S, (0, 1, 2))
        for action, value in enumerate((0.4, 0.9, 0.1)):
            set_q(table, S, action, value)
        rng = np.random.default_rng(1)
        picks = {select_action(S, table, 0.0, rng, [0, 1, 2]) for _ in range(200)}
        assert picks == {1}

    def test_full_exploration_is_uniform(self):
        table = QTable(3)
        table.ensure(S, (0, 1, 2))
        set_q(table, S, 1, 0.9)
        rng = np.random.default_rng(2)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[select_action(S, table, 1.0, rng, [0, 1, 2])] += 1
        assert np.all(np.abs(counts / n - 1 / 3) < 0.01)

    def test_exact_ties_break_uniformly(self):
        table = QTable(3)
        table.ensure(S, (0, 1, 2))  # all-zero row: a three-way tie
        rng = np.random.default_rng(3)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[select_action(S, table, 0.0, rng, [0, 1, 2])] += 1
        assert np.all(np.abs(counts / n - 1 / 3) < 0.01)

    def test_unseen_state_falls_back_to_uniform(self):
        table = QTable(4)
        rng = np.random.default_rng(4)
        n = 40_000
        counts = {0: 0, 2: 0}
        for _ in range(n):
            pick = select_action(("nowhere",), table, 0.0, rng, [0, 2])
            counts[pick] += 1
        assert abs(counts[0] / n - 0.5) < 0.015
        assert abs(counts[2] / n - 0.5) < 0.015

    def test_partial_feasible_set_respected(self):
        table = QTable(4)
        table.ensure(S, (1, 2, 3))
        assert table._q[S][0] == -np.inf   # masked: the state cannot take it
        set_q(table, S, 2, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert select_action(S, table, 0.0, rng, [1, 2, 3]) == 2
        # every feasible q negative: the masked slot still never wins
        negative = QTable(4)
        negative.ensure(S, (1, 2, 3))
        for action, value in ((1, -0.5), (2, -0.25), (3, -0.25)):
            set_q(negative, S, action, value)
        assert negative._q[S][0] == -np.inf
        picks = {select_action(S, negative, 0.0, rng, [1, 2, 3]) for _ in range(200)}
        assert picks == {2, 3}
        assert negative.greedy(S, [1, 2, 3]) == 2


class TestUpdateQ:
    def test_first_visit_takes_reward(self):
        table = QTable(2)
        table.ensure(S, (0, 1))
        new = update_q(table, S, 0, 1.0, NEXT, 0.9, 0.65)
        assert new == 1.0
        assert table._q[S][0] == 1.0
        assert table.visits(S, 0) == 1

    def test_second_visit_blends(self):
        table = QTable(2)
        table.ensure(S, (0, 1))
        update_q(table, S, 0, 1.0, NEXT, 0.9, 0.65)
        # beta = 1/(1+1) = 0.5, zero target: q' = (1-beta) * 1.0
        new = update_q(table, S, 0, 0.0, NEXT, 0.9, 0.65)
        assert new == 0.5
        assert table.visits(S, 0) == 2

    def test_bootstrap_uses_max_over_next_actions(self):
        table = QTable(3)
        table.ensure(S, (0, 1, 2))
        table.ensure(NEXT, (0, 1, 2))
        set_q(table, NEXT, 0, 0.2)
        set_q(table, NEXT, 1, 0.7)
        new = update_q(table, S, 2, 0.1, NEXT, 0.8, 0.65)
        assert new == pytest.approx(0.1 + 0.8 * 0.7)
        # every feasible entry of NEXT negative: the bootstrap is their
        # max, not the 0 of an untouched or masked slot
        table2 = QTable(3)
        table2.ensure(S, (0, 1, 2))
        table2.ensure(NEXT, (0, 2))
        set_q(table2, NEXT, 0, -0.5)
        set_q(table2, NEXT, 2, -0.25)
        negative = update_q(table2, S, 2, 0.1, NEXT, 0.8, 0.65)
        assert negative == pytest.approx(0.1 + 0.8 * -0.25)

    def test_fixed_point_is_preserved(self):
        table = QTable(2)
        table.ensure(S, (0, 1))
        table.ensure(NEXT, (0, 1))
        set_q(table, NEXT, 0, 0.5)
        set_q(table, S, 0, 0.5)
        # q(S,0) already equals r + gamma * max_a q(NEXT, a) = 0.1 + 0.8 * 0.5
        for _ in range(5):
            assert update_q(table, S, 0, 0.1, NEXT, 0.8, 0.65) == 0.5

    def test_unseen_next_state_reads_zero(self):
        table = QTable(2)
        table.ensure(S, (0, 1))
        new = update_q(table, S, 1, -1.0, ("never",), 0.9, 0.65)
        assert new == -1.0

    def test_q_stays_within_reward_bound(self):
        # rewards in [-1, 1] keep |q| <= 1/(1-gamma) no matter the path
        gamma = 0.9
        bound = 1.0 / (1.0 - gamma) + 1e-9
        rng = np.random.default_rng(7)
        table = QTable(3)
        states = [(i,) for i in range(6)]
        for s in states:
            table.ensure(s, (0, 1, 2))
        for _ in range(3000):
            s = states[rng.integers(len(states))]
            n = states[rng.integers(len(states))]
            a = int(rng.integers(3))
            r = float(rng.integers(-1, 2))
            update_q(table, s, a, r, n, gamma, 0.65)
        for s in states:
            for a in range(3):
                assert abs(table._q[s][a]) <= bound

    def test_greedy_map_tracks_updates(self):
        rng = np.random.default_rng(8)
        table = QTable(3)
        states = [(i,) for i in range(5)]
        feas = {s: (0, 1, 2) if i % 2 else (0, 2) for i, s in enumerate(states)}
        for s in states:
            table.ensure(s, feas[s])
        for _ in range(500):
            s = states[rng.integers(len(states))]
            a = feas[s][rng.integers(len(feas[s]))]
            n = states[rng.integers(len(states))]
            update_q(table, s, a, float(rng.integers(-1, 2)), n, 0.9, 0.65)
        for s in states:
            row = table._q[s]
            assert table.greedy_map[s] == row.index(max(row))
            assert table.greedy_map[s] in feas[s]


class TestQTable:
    def test_defaults_for_unseen_pairs(self):
        table = QTable(3)
        assert S not in table._q
        assert table.visits(S, 1) == 0
        assert table.greedy(S, (0, 1, 2)) == 0
        assert len(table) == 0

    def test_ensure_registers_state_once(self):
        table = QTable(3)
        table.ensure(S, [1, 2])
        table.ensure(S, [0])  # second call must not clobber
        assert table._q[S] == [-np.inf, 0.0, 0.0]
        assert len(table) == 1
        assert list(table.states()) == [S]

    def test_greedy_prefers_lowest_index_on_ties(self):
        table = QTable(3)
        table.ensure(S, (0, 1, 2))
        set_q(table, S, 1, 0.4)
        set_q(table, S, 2, 0.4)
        assert table.greedy(S, (0, 1, 2)) == 1


class TestCheckConvergence:
    GREEDY = {S: 0}

    def test_stable_map_stops(self):
        # before the first check there is no previous map: never stable
        assert check_convergence(None, {}, 0, threshold=10) is None
        assert check_convergence(None, self.GREEDY, 0, threshold=10) is None
        # nothing changed between cycles: the previous map matches
        assert check_convergence(dict(self.GREEDY), self.GREEDY, 1,
                                 threshold=10) == "stable"

    def test_cycle_past_the_cap_stops_as_budget(self):
        assert check_convergence({("other",): 1}, self.GREEDY, 11,
                                 threshold=10) == "budget"

    def test_stable_map_past_the_cap_stops_as_stable(self):
        assert check_convergence(dict(self.GREEDY), self.GREEDY, 11,
                                 threshold=10) == "stable"

    def test_changing_map_continues_until_budget(self):
        # a fresh state every cycle, so the map never repeats: training
        # goes on through cycle == threshold and stops at threshold + 1,
        # after threshold + 2 cycles
        threshold, previous, current = 3, None, dict(self.GREEDY)
        outcomes = []
        for cycle in range(threshold + 2):
            current[("extra", cycle)] = 1
            outcomes.append(check_convergence(previous, current, cycle, threshold))
            previous = dict(current)
        assert outcomes == [None] * (threshold + 1) + ["budget"]

    def test_changed_map_at_the_cap_continues(self):
        assert check_convergence({("other",): 1}, self.GREEDY, 3,
                                 threshold=3) is None


class TestLearnerConfig:
    def test_defaults_are_valid(self):
        cfg = LearnerConfig()
        assert cfg.gamma == 0.9
        assert cfg.total_cycles == 10_000

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"gamma": 0.0}, "gamma"),
            ({"gamma": 1.0}, "gamma"),
            ({"gamma": 1.5}, "gamma"),
            ({"epsilon0": -0.1}, "epsilon0"),
            ({"epsilon0": 1.5}, "epsilon0"),
            ({"total_cycles": 0}, "total_cycles"),
            ({"repeater_threshold": 0}, "repeater_threshold"),
            ({"lr_exponent": 0.0}, "lr_exponent"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            LearnerConfig(**kwargs)


def tiny_mdp():
    return build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2)


class TestTrain:
    def test_same_seed_reproduces_table(self):
        # the digests pin OracleEnv's draw order: the pick, then the
        # successor draw, decision by decision
        for dims, horizon, cfg, seed, cycles, digest in (
                ((2, 2, 2), 30, LearnerConfig(total_cycles=300, repeater_threshold=20),
                 123, 8, "421463a819a6dff1d588153dc10a5c51"
                         "7e623578c463f8577c5464b26375efbf"),
                ((3, 3, 2), 40, LearnerConfig(epsilon0=0.5, total_cycles=400,
                                              repeater_threshold=40),
                 2024, 16, "0cb6eedf48645f0bfd0e2e788fcc0f3d"
                           "42eb0da5de3221644ab5153fddb903cd")):
            oracle = build_oracle_mdp(*dims)
            runs = [train(OracleEnv(oracle, horizon=horizon), cfg, seed=seed)
                    for _ in range(2)]
            text = export_qtable(runs[0].table)
            assert text == export_qtable(runs[1].table)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, dims
            for run in runs:
                assert (run.cycles_run, run.stop_reason) == (cycles, "stable")

    def test_learned_greedy_matches_value_iteration(self):
        oracle = tiny_mdp()
        cfg = LearnerConfig(total_cycles=2000, repeater_threshold=100)
        result = train(OracleEnv(oracle, horizon=40), cfg, seed=7)
        qrows = action_values(oracle, value_iteration(oracle).values)
        agree = 0
        seen = list(result.table.greedy_map.items())
        assert seen
        for state, learned in seen:
            idx = state_index(oracle, state)
            lo, hi = oracle.act_indptr[idx], oracle.act_indptr[idx + 1]
            best = qrows[lo:hi].max()
            optimal = {int(oracle.act_action[r])
                       for r in range(lo, hi) if qrows[r] >= best - 1e-9}
            agree += learned in optimal
        assert agree / len(seen) >= 0.95

    def test_q_bound_and_trace_shape(self):
        oracle = tiny_mdp()
        cfg = LearnerConfig(total_cycles=200, repeater_threshold=50)
        result = train(OracleEnv(oracle, horizon=25), cfg, seed=11)
        bound = 1.0 / (1.0 - cfg.gamma) + 1e-9
        for state in result.table.states():
            for action in range(result.table.num_actions):
                if result.table.visits(state, action):
                    assert abs(result.table._q[state][action]) <= bound
        assert result.stop_reason in ("stable", "budget", "schedule")
        assert 1 <= result.cycles_run <= cfg.total_cycles
        assert len(result.trace) == result.cycles_run
        first = result.trace[0]
        assert first["cycle"] == 0
        assert first["epsilon"] == cfg.epsilon0
        assert first["states_seen"] >= 1

    def test_stable_stop_on_the_cycle_after_the_cap_is_stable(self):
        # At seed 48 the greedy map of cycle 3 equals cycle 2's, on the
        # first cycle whose 0-based index exceeds the threshold: the map
        # test comes first, so the stop is "stable", not "budget".
        from qlsched.cluster import VmSpec
        from qlsched.envs import LengthAwareView, SimulationEnv
        from qlsched.config import ScenarioConfig

        scenario = ScenarioConfig(num_tasks=4, length_min=1000, length_max=5000,
                                  num_vms=2, vm_mips=1000, buffer_min=2, buffer_max=2)
        vm_specs = [VmSpec(mips=1000.0, buffer_capacity=2) for i in range(2)]
        env = SimulationEnv(scenario, vm_specs, LengthAwareView(2000, 2),
                            slot_seconds=1.0, failure_ratio=0.0,
                            max_attempts=10, d_max=5)
        cfg = LearnerConfig(total_cycles=50, repeater_threshold=1)
        result = train(env, cfg, 48)
        assert (result.cycles_run, result.stop_reason) == (3, "stable")


class TestExportQtable:
    def test_single_entry_layout(self):
        table = QTable(2)
        table.ensure((1, 0), (0,))
        update_q(table, (1, 0), 0, 1.0, (0, 0), 0.9, 0.65)
        assert export_qtable(table) == "state,action,q,visits\n1-0,0,1,1\n"

    def test_sorting_and_unvisited_rows_omitted(self):
        table = QTable(3)
        for state in [(2, 1), (0, 3)]:
            table.ensure(state, (0, 1, 2))
        update_q(table, (2, 1), 2, 0.5, (0, 0), 0.9, 0.65)
        update_q(table, (2, 1), 0, -0.25, (0, 0), 0.9, 0.65)
        update_q(table, (0, 3), 1, 0.125, (0, 0), 0.9, 0.65)
        text = export_qtable(table)
        assert text.splitlines() == [
            "state,action,q,visits",
            "0-3,1,0.125,1",
            "2-1,0,-0.25,1",
            "2-1,2,0.5,1",
        ]

    def test_nine_significant_digits(self):
        table = QTable(1)
        table.ensure((4,), (0,))
        update_q(table, (4,), 0, 0.123456789012, ("x",), 0.9, 0.65)
        assert "4,0,0.123456789,1" in export_qtable(table)

    @staticmethod
    def _reference_export(table):
        # the per-action export export_qtable replaced
        lines = ["state,action,q,visits"]
        for state in sorted(table.states()):
            for action in range(table.num_actions):
                v = table._visits[state][action]
                if v == 0:
                    continue
                key = "-".join(str(x) for x in state)
                lines.append(f"{key},{action},{table._q[state][action]:.9g},{v}")
        return "\n".join(lines) + "\n"

    def test_matches_per_action_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            table = QTable(k + 1)
            for _ in range(int(rng.integers(0, 40))):
                state = tuple(int(x) for x in rng.integers(0, 12, size=2 * k))
                actions = tuple(range(k + 1))
                table.ensure(state, actions)
                # some actions of some states are never updated
                for action in actions:
                    updates = int(rng.integers(1, 3)) if rng.random() < 0.6 else 0
                    for _ in range(updates):
                        update_q(table, state, action, float(rng.uniform(-1.0, 1.0)),
                                 state, 0.9, 0.65)
            assert export_qtable(table) == self._reference_export(table)


# -- the learner against a reference copy --------------------------------------

class _ReferenceLearner:
    """The learner written plainly on its own dicts, as the reference:
    q-values listed and zipped for the ties, the step size written out,
    the bootstrap a max over the next row's feasible actions (0 when the
    row is unseen), the greedy action the first maximum."""

    def __init__(self, num_actions):
        self.num_actions = num_actions
        self.q, self.visits, self.feasible, self.greedy_map = {}, {}, {}, {}

    def ensure(self, state, feasible):
        if state not in self.q:
            self.q[state] = [0.0] * self.num_actions
            self.visits[state] = [0] * self.num_actions
            self.feasible[state] = tuple(feasible)

    def select(self, state, epsilon, rng, actions):
        if len(actions) == 1:
            return actions[0]
        if epsilon > 0.0 and rng.random() < epsilon:
            return actions[int(rng.integers(len(actions)))]
        row = self.q.get(state)
        if row is None:
            return actions[int(rng.integers(len(actions)))]
        values = [row[a] for a in actions]
        best = max(values)
        ties = [a for a, v in zip(actions, values) if v == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]

    def update(self, state, action, reward_value, next_state, next_actions,
               gamma, lr_exponent):
        visits = self.visits[state]
        beta = 1.0 / (1.0 + visits[action] ** lr_exponent)
        next_row = self.q.get(next_state)
        bootstrap = 0.0 if next_row is None else max([next_row[a] for a in next_actions])
        row = self.q[state]
        row[action] = (1.0 - beta) * row[action] + beta * (reward_value + gamma * bootstrap)
        visits[action] += 1
        self.greedy_map[state] = max(self.feasible[state], key=row.__getitem__)

    def train(self, env, cfg, seed):
        """Train on a SimulationEnv, driving its Simulation and view by
        hand: next_decision, the pick, the reward, then cluster.admit."""
        rng = np.random.default_rng(seed)
        trace, stop_reason, cycles, snapshot = [], "schedule", 0, None
        for cycle in range(cfg.total_cycles):
            epsilon = decay_epsilon(cfg.epsilon0, cycle, cfg.total_cycles)
            env.reset(rng)
            sim, view = env.sim, env.view
            cluster = sim.cluster
            task = sim.next_decision()
            assert task is not None
            state, actions = view.state(cluster), cluster.feasible_vms()
            while True:
                self.ensure(state, actions)
                action = self.select(state, epsilon, rng, actions)
                reward_value = view.reward(cluster, action, state)
                cluster.admit(task, action)
                task = sim.next_decision()
                terminal = task is None
                next_state, next_actions = view.state(cluster), cluster.feasible_vms()
                self.update(state, action, reward_value, next_state, next_actions,
                            cfg.gamma, cfg.lr_exponent)
                state, actions = next_state, next_actions
                if terminal:
                    break
            cycles = cycle + 1
            row = {"cycle": cycle, "epsilon": epsilon, "states_seen": len(self.q)}
            row.update(env.episode_metrics() or {})
            trace.append(row)
            if snapshot == self.greedy_map:
                stop_reason = "stable"
                break
            if cycle > cfg.repeater_threshold:
                stop_reason = "budget"
                break
            snapshot = dict(self.greedy_map)
        return cycles, stop_reason, trace


_VALUES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0])   # exact ties
_MASKS = st.one_of(st.just([True] * 4),
                   st.lists(st.booleans(), min_size=4, max_size=4).filter(any))


def _assert_rows_match(table, ref):
    """The table's rows equal the reference's bit for bit at each state's
    feasible actions, and hold -inf at every other action."""
    assert table._q.keys() == ref.q.keys()
    for state, ref_row in ref.q.items():
        feasible = ref.feasible[state]
        row = table._q[state]
        assert [row[a].hex() for a in feasible] == [ref_row[a].hex() for a in feasible]
        assert all(row[a] == -np.inf
                   for a in range(ref.num_actions) if a not in feasible)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_VALUES, min_size=4, max_size=4),
       mask=_MASKS,
       visits=st.lists(st.integers(0, 3), min_size=4, max_size=4),
       next_values=st.lists(_VALUES, min_size=4, max_size=4),
       next_mask=_MASKS,
       next_kind=st.sampled_from(["other", "self", "unseen"]),
       epsilon=st.sampled_from([0.0, 0.5]),
       reward_value=st.sampled_from([-1.0, 0.0, 1.0]),
       seed=st.integers(0, 2**32 - 1))
# every feasible entry negative while the reference's infeasible slot
# keeps its untouched 0.0: a table row without -inf at that slot would
# pick the wrong action and bootstrap 0
@example(values=[-0.5, 0.0, -1.0, -0.5], mask=[True, False, True, True],
         visits=[1, 0, 1, 1], next_values=[-0.5, 0.0, -1.0, -0.25],
         next_mask=[True, False, True, True], next_kind="other", epsilon=0.0,
         reward_value=0.0, seed=1)
def test_row_shortcuts_match_reference_learner(values, mask, visits, next_values,
                                               next_mask, next_kind, epsilon,
                                               reward_value, seed):
    table, ref = QTable(4), _ReferenceLearner(4)
    rows = {}
    for state, vals, feasible_mask, counts in (
            (S, values, mask, visits), (NEXT, next_values, next_mask, visits)):
        actions = [a for a in range(4) if feasible_mask[a]]
        rows[state] = actions
        for learner in (table, ref):
            learner.ensure(state, actions)
        for a in actions:       # only feasible actions are ever updated
            table._q[state][a] = ref.q[state][a] = vals[a]
            table._visits[state][a] = ref.visits[state][a] = counts[a]
    actions = rows[S]

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    action = select_action(S, table, epsilon, rng, actions)
    assert action == ref.select(S, epsilon, ref_rng, actions)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    next_state = {"other": NEXT, "self": S, "unseen": ("unseen",)}[next_kind]
    next_actions = rows.get(next_state, actions)
    new_q = update_q(table, S, action, reward_value, next_state, 0.9,
                     LearnerConfig().lr_exponent)
    ref.update(S, action, reward_value, next_state, next_actions, 0.9,
               LearnerConfig().lr_exponent)
    assert new_q.hex() == ref.q[S][action].hex()
    _assert_rows_match(table, ref)
    assert table._visits == ref.visits
    assert table.greedy_map == ref.greedy_map
    assert table.greedy(S, actions) == ref.greedy_map[S]


@pytest.mark.parametrize("failure_ratio", [0.0, 0.2])
@pytest.mark.parametrize("view_name", ["length_aware", "free_buffer"])
def test_train_matches_reference_learner(view_name, failure_ratio):
    from qlsched.cluster import VmSpec
    from qlsched.envs import FreeBufferView, LengthAwareView, SimulationEnv
    from qlsched.config import ScenarioConfig

    scenario = ScenarioConfig(num_tasks=30, length_min=500, length_max=8000,
                              num_vms=3, vm_mips=1000, buffer_min=3, buffer_max=3,
                              num_pes=2)
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=2 + i, pes=2)
                for i in range(3)]

    def env():
        view = (LengthAwareView(3000, 2) if view_name == "length_aware"
                else FreeBufferView(0.5, 0.5))
        return SimulationEnv(scenario, vm_specs, view, slot_seconds=2.0,
                             failure_ratio=failure_ratio, max_attempts=10,
                             d_max=5)

    cfg = LearnerConfig(epsilon0=0.5, total_cycles=60, repeater_threshold=15)
    seed = [5, view_name == "length_aware", int(failure_ratio * 10)]
    result = train(env(), cfg, seed)
    ref = _ReferenceLearner(len(vm_specs))
    cycles, stop_reason, trace = ref.train(env(), cfg, seed)

    table = result.table
    _assert_rows_match(table, ref)
    assert table._visits == ref.visits
    assert table.greedy_map == ref.greedy_map
    assert (result.cycles_run, result.stop_reason) == (cycles, stop_reason)
    assert result.trace == trace
    assert sum(map(sum, ref.visits.values())) >= 200


@pytest.mark.parametrize("view_name", ["length_aware", "free_buffer"])
def test_trained_rows_hold_one_slot_per_vm(view_name):
    # every action comes from cluster.feasible_vms(): no defer slot
    from qlsched.cluster import VmSpec
    from qlsched.envs import FreeBufferView, LengthAwareView, SimulationEnv
    from qlsched.config import ScenarioConfig

    scenario = ScenarioConfig(num_tasks=20, length_min=500, length_max=8000,
                              num_vms=3, vm_mips=1000, buffer_min=2, buffer_max=2)
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=2, pes=1)
                for i in range(3)]
    view = (LengthAwareView(3000, 2) if view_name == "length_aware"
            else FreeBufferView(0.5, 0.5))
    cfg = LearnerConfig(epsilon0=0.5, total_cycles=20, repeater_threshold=5)
    table = train(SimulationEnv(scenario, vm_specs, view, slot_seconds=1.0,
                                failure_ratio=0.0, max_attempts=10, d_max=5),
                  cfg, 4).table
    assert table.num_actions == len(vm_specs) and len(table) > 0
    for state in table.states():
        assert len(table._q[state]) == len(table._visits[state]) == len(vm_specs)


class TestUpdateQEdges:
    def test_unseen_next_state_bootstraps_zero(self):
        table = QTable(2)
        table.ensure(S, (0, 1))
        assert update_q(table, S, 0, 1.0, ("unseen",), 0.9, 0.65) == 1.0
        # second visit: step 1/2, target 0.5 + 0.9 * 0
        assert update_q(table, S, 0, 0.5, ("unseen",), 0.9, 0.65) == 0.75
        assert table.visits(S, 0) == 2
        assert ("unseen",) not in table.states()

    def test_single_action_state(self):
        table = QTable(3)
        table.ensure(NEXT, (0, 1))
        set_q(table, NEXT, 1, 0.5)
        table.ensure(S, (2,))
        new = update_q(table, S, 2, -1.0, NEXT, 0.8, 0.65)
        assert new == -1.0 + 0.8 * 0.5
        assert table.greedy_map[S] == 2
        assert table._q[S][:2] == [-np.inf, -np.inf]
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert select_action(S, table, 1.0, rng, [2]) == 2
        assert rng.bit_generator.state == before


# -- the mask: a state determines its feasible actions --------------------------

def _check_masks(monkeypatch):
    """Wrap select_action and QTable.greedy so that every call on a state
    already in the table asserts that the actions passed are exactly the
    row's non -inf indices. Returns the counts of checked calls."""
    from qlsched import policies, qlearn

    checked = {"select": 0, "greedy": 0, "partial": 0}
    real_select, real_greedy = qlearn.select_action, QTable.greedy

    def check(kind, table, state, actions):
        row = table._q.get(state)
        if row is None:
            return
        mask = [a for a, q in enumerate(row) if q != -np.inf]
        assert list(actions) == mask, \
            f"{kind} at {state}: actions {list(actions)} are not the row's mask {mask}"
        checked[kind] += 1
        checked["partial"] += len(mask) < len(row)

    def select_action(state, table, epsilon, rng, actions):
        check("select", table, state, actions)
        return real_select(state, table, epsilon, rng, actions)

    def greedy(self, state, actions):
        check("greedy", self, state, actions)
        return real_greedy(self, state, actions)

    monkeypatch.setattr(qlearn, "select_action", select_action)
    monkeypatch.setattr(policies, "select_action", select_action)
    monkeypatch.setattr(QTable, "greedy", greedy)
    return checked


def _mask_plan():
    from qlsched.config import ExperimentPlan, ScenarioConfig

    scenario = ScenarioConfig(num_tasks=12, length_min=500, length_max=6000,
                              num_vms=3, vm_mips=1000, buffer_min=2, buffer_max=2,
                              num_pes=1)
    return ExperimentPlan(scenario=scenario, policies=["qsch", "qlearn"],
                          failure_ratios=[0.0, 0.2], replications=3, seed=17,
                          learner=LearnerConfig(total_cycles=40, repeater_threshold=10),
                          range_mi=3000, l_cap=2)


def test_the_state_determines_the_feasible_actions(monkeypatch):
    # The one record of a state's feasible actions is the -inf mask of its
    # row, set at the state's first ensure. That is exact only if every
    # later visit of the state has the same feasible set: checked here for
    # both learning views, in training and evaluation, with and without
    # requeues, and on the oracle, whose full states take only the defer
    # action.
    from qlsched.runner import run_point, sweep_points

    checked = _check_masks(monkeypatch)
    plan = _mask_plan()
    for point in sweep_points(plan):
        run_point(plan, point)
    cfg = LearnerConfig(total_cycles=60, repeater_threshold=20)
    train(OracleEnv(build_oracle_mdp(2, 2, 2), horizon=30), cfg, seed=5)
    assert checked["select"] > 500 and checked["greedy"] > 50, checked
    assert checked["partial"] > 100, checked


def test_the_mask_check_catches_a_state_blind_to_feasibility(monkeypatch):
    # The check above has teeth: a view that drops the occupancies from
    # its state meets one state with different feasible sets.
    from qlsched.cluster import VmSpec
    from qlsched.envs import LengthAwareView, SimulationEnv

    class LengthOnlyView(LengthAwareView):
        def state(self, cluster):
            return super().state(cluster)[len(cluster.specs):]

        def reward(self, cluster, action, state):
            return super().reward(cluster, action, super().state(cluster))

    _check_masks(monkeypatch)
    plan = _mask_plan()
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=1) for i in range(3)]
    env = SimulationEnv(plan.scenario, vm_specs, LengthOnlyView(3000, 2),
                        slot_seconds=1.0, failure_ratio=0.0, max_attempts=10,
                        d_max=5)
    with pytest.raises(AssertionError, match="not the row's mask"):
        train(env, plan.learner, 3)


MASKED_UPDATE = """
from qlsched.qlearn import QTable, update_q
table = QTable(3)
table.ensure(("s",), (0, 1))
update_q(table, ("s",), 1, 1.0, ("n",), 0.9, 0.65)
try:
    update_q(table, ("s",), 2, 1.0, ("n",), 0.9, 0.65)
except ValueError:
    print((table._q[("s",)], table._visits[("s",)], table.greedy_map))
"""


@pytest.mark.parametrize("prior_visits", [0, 2])
def test_update_on_a_masked_action_raises(prior_visits):
    # A masked slot holds -inf: a first visit's step of 1 makes 0 * -inf,
    # NaN, and a later one keeps -inf. The reward-bound check refuses both
    # before it writes, so the row, the visits and greedy_map stay as they
    # were, also under python -O, which strips asserts.
    table = QTable(3)
    table.ensure(S, (0, 1))
    update_q(table, S, 1, 1.0, NEXT, 0.9, 0.65)
    table._visits[S][2] = prior_visits
    before = (list(table._q[S]), list(table._visits[S]), dict(table.greedy_map))
    with pytest.raises(ValueError, match="reward bound"):
        update_q(table, S, 2, 1.0, NEXT, 0.9, 0.65)
    assert (table._q[S], table._visits[S], table.greedy_map) == before
    if prior_visits == 0:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-O", "-c", MASKED_UPDATE], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == repr(before) + "\n"
