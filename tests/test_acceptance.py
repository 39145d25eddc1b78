"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Criteria 4, 5 and 7 compare the learned scheduler against the heuristic
baselines on fixed seeds. Several of their margin clauses are structurally
out of reach (see STRUCTURAL_NOTE); those tests stay red on purpose
rather than loosening the thresholds they state.
"""

import os
import time
from dataclasses import replace

import numpy as np

from oracle_helpers import (
    OracleEnv,
    feasible_actions,
    index_state,
    reachable_from_empty,
)
from outputs_helpers import run_values, summary_row
from qlsched.cluster import ClusterState, CompletionRecord, VmSpec
from qlsched.config import LearnerConfig, ScenarioConfig, parse_config
from qlsched.envs import encode_state, reward
from qlsched.mdp import action_values, build_oracle_mdp, value_iteration
from qlsched.metrics import build_report
from qlsched.policies import fifo_select
from qlsched.qlearn import (
    QTable,
    decay_epsilon,
    learning_rate,
    train,
    update_q,
)
from qlsched.runner import run_plan
from qlsched.simulate import run_policy_simulation
from qlsched.workload import TaskSpec, generate_workload

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

STRUCTURAL_NOTE = (
    "out of reach under the +1/-1/0 placement reward: see "
    "tests/test_mdp.py::test_paper_reward_places_only_on_least_occupied_vms "
    "and tests/test_mdp.py::test_holding_cost_keeps_a_least_occupied_vm_optimal. "
    "The threshold is asserted as stated rather than weakened."
)


def finish(number: int, clauses):
    """Print the criterion's verdict line, then assert every clause."""
    ok = all(flag for flag, _ in clauses)
    detail = "; ".join(text for _, text in clauses)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    failed = [text for flag, text in clauses if not flag]
    assert not failed, (
        f"criterion {number} unmet clauses: {failed} ({STRUCTURAL_NOTE})"
        if number in (4, 5, 7)
        else f"criterion {number} unmet clauses: {failed}")


def pct_below(baseline: float, candidate: float) -> float:
    """How far candidate sits below baseline, as a fraction of baseline."""
    return (baseline - candidate) / baseline


def load_plan(name: str, **overrides):
    plan = parse_config(os.path.join(CONFIG_DIR, name))
    return replace(plan, **overrides) if overrides else plan


# -- 1: learned policy vs exact solution -------------------------------------------

def test_criterion_1_oracle_optimality():
    started = time.monotonic()
    oracle = build_oracle_mdp(num_vms=2, buffer_capacity=2, num_classes=2,
                              p_c=0.5, gamma=0.9)
    vi = value_iteration(oracle)
    qrows = action_values(oracle, vi.values)
    cfg = LearnerConfig(gamma=0.9, epsilon0=1.0, total_cycles=4000,
                        repeater_threshold=400)
    result = train(OracleEnv(oracle, horizon=40), cfg, seed=2024)
    reachable = np.flatnonzero(reachable_from_empty(oracle))
    agree = 0
    for idx in reachable:
        state = index_state(oracle, int(idx))
        feasible = feasible_actions(oracle, state)
        learned = result.table.greedy(state, feasible)
        lo, hi = oracle.act_indptr[idx], oracle.act_indptr[idx + 1]
        best = qrows[lo:hi].max()
        optimal = {int(oracle.act_action[r])
                   for r in range(lo, hi) if qrows[r] >= best - 1e-9}
        agree += learned in optimal
    share = agree / reachable.size
    elapsed = time.monotonic() - started
    finish(1, [
        (share >= 0.95,
         f"greedy matches an optimal action on {share:.1%} of "
         f"{reachable.size} reachable states (needs >=95%)"),
        (elapsed < 60.0, f"runtime {elapsed:.1f}s (needs <60s)"),
    ])


# -- 2: formula pins ----------------------------------------------------------------

def length_class(total_mi: int, range_mi: int) -> int:
    """encode_state's length class of one VM holding total_mi of work."""
    cluster = ClusterState([VmSpec(mips=1000.0, buffer_capacity=1)],
                           max_attempts=10, fails=None)
    if total_mi:
        cluster.admit(TaskSpec(0, 0, total_mi), 0)
    return encode_state(cluster, range_mi, 40)[1]


def test_criterion_2_formula_checks():
    state = (2, 5, 3, 4, 9, 1)  # occupancies (2,5,3), loads (4,9,1)
    caps = [6, 6, 6]
    finish(2, [
        (learning_rate(0, 0.65) == 1.0, "learning_rate(0)=1"),
        (learning_rate(1, 0.65) == 0.5, "learning_rate(1)=0.5"),
        (abs(learning_rate(4, 0.65) - 1 / (1 + 4**0.65)) < 1e-4,
         "learning_rate(4)=1/(1+4^0.65) within 1e-4"),
        (decay_epsilon(0.7, 0, 300) == 0.7, "epsilon starts at epsilon0"),
        (decay_epsilon(0.7, 300, 300) == 0.0, "epsilon ends at 0"),
        (reward(state, 0, caps) == 1, "min-occupancy placement rewards +1"),
        (reward(state, 1, caps) == -1, "max-load placement rewards -1"),
        (reward(state, 2, caps) == 0, "neutral placement rewards 0"),
        (length_class(0, 10_000) == 0, "class(0)=0"),
        (length_class(9999, 10_000) == 0, "class(9999)=0"),
        (length_class(10_000, 10_000) == 1, "class(10000)=1"),
        (length_class(25_000, 10_000) == 2, "class(25000)=2"),
    ])


# -- 3: metric oracle ----------------------------------------------------------------

def test_criterion_3_metric_oracle():
    vm = [VmSpec(mips=1000.0, buffer_capacity=5)]
    workload = [TaskSpec(0, 0, 1000), TaskSpec(1, 0, 2000)]
    report = build_report(run_policy_simulation(
        vm, workload, fifo_select, slot_seconds=1.0, failure_ratio=0.0,
        max_attempts=10, policy_rng=None, failure_seed=None), vm)
    finish(3, [
        (report.avg_response_s == 2.0, "avg response 2.0 s"),
        (report.avg_wait_s == 0.5, "avg wait 0.5 s"),
        (report.makespan_s == 3.0, "makespan 3.0 s"),
    ])


# -- 4: small-scenario margins --------------------------------------------------------

def test_criterion_4_small_scenario_margins():
    started = time.monotonic()
    plan = load_plan("scenario1.yaml", task_counts=[20],
                     policies=["qlearn", "random", "fifo", "mixed", "greedy"])
    outputs = run_plan(plan)
    ql = summary_row(outputs, "qlearn", tasks=20)
    clauses = []
    for name in ("random", "fifo", "mixed", "greedy"):
        base = summary_row(outputs, name, tasks=20)
        for metric, label in (("mean_response_s", "response"),
                              ("mean_makespan_s", "makespan")):
            gap = pct_below(base[metric], ql[metric])
            clauses.append((gap >= 0.10,
                            f"{label} vs {name} {gap:+.1%} (needs >=10%)"))
    elapsed = time.monotonic() - started
    clauses.append((elapsed < 600.0, f"runtime {elapsed:.0f}s (needs <600s)"))
    finish(4, clauses)


# -- 5: large-scenario margins --------------------------------------------------------

def test_criterion_5_large_scenario_margins():
    plan = load_plan("scenario2.yaml", task_counts=[100],
                     policies=["qlearn", "qsch", "random", "fifo", "mixed",
                               "greedy"])
    outputs = run_plan(plan)
    ql = summary_row(outputs, "qlearn", tasks=100)
    clauses = []
    for metric, label in (("mean_response_s", "response"),
                          ("mean_makespan_s", "makespan")):
        gap = pct_below(summary_row(outputs, "random", tasks=100)[metric],
                        ql[metric])
        clauses.append((gap >= 0.10,
                        f"{label} vs random {gap:+.1%} (needs >=10%)"))
    for name in ("fifo", "mixed", "greedy"):
        base = summary_row(outputs, name, tasks=100)
        for metric, label in (("mean_response_s", "response"),
                              ("mean_makespan_s", "makespan")):
            gap = pct_below(base[metric], ql[metric])
            clauses.append((gap > 0.0,
                            f"{label} below {name} {gap:+.1%} (needs >0%)"))
    # paired per-replication margin over the buffer-state-only learner
    ql_runs = np.array(run_values(outputs, "qlearn", "avg_response_s",
                                  tasks=100))
    qsch_runs = np.array(run_values(outputs, "qsch", "avg_response_s",
                                    tasks=100))
    diff = qsch_runs - ql_runs
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    z = diff.mean() / se
    clauses.append((diff.mean() > 0 and z >= 2.0,
                    f"response margin over qsch z={z:+.2f} (needs >=2 SE)"))
    finish(5, clauses)


# -- 6: failure robustness -------------------------------------------------------------

def test_criterion_6_failure_robustness():
    plan = load_plan("failure_sweep.yaml")
    outputs = run_plan(plan)
    spans = [summary_row(outputs, "qlearn", failure=f)["mean_makespan_s"]
             for f in (0.0, 0.1, 0.2)]
    rise = (spans[2] - spans[0]) / spans[0]
    finish(6, [
        (spans[0] <= spans[1] + 1e-9 and spans[1] <= spans[2] + 1e-9,
         f"makespan non-decreasing in the failure ratio "
         f"({spans[0]:.0f} <= {spans[1]:.0f} <= {spans[2]:.0f} s)"),
        (rise <= 0.25, f"rise at ratio 0.2 is {rise:+.1%} (needs <=25%)"),
    ])


# -- 7: buffer-size insensitivity --------------------------------------------------------

def test_criterion_7_buffer_insensitivity():
    plan = load_plan("buffer_sweep.yaml",
                     policies=["qlearn", "random", "mixed"])
    outputs = run_plan(plan)
    sizes = plan.buffer_sizes
    ql = {b: summary_row(outputs, "qlearn", buffer=b)["mean_response_s"]
          for b in sizes}
    variation = (max(ql.values()) - min(ql.values())) / min(ql.values())
    clauses = [(variation <= 0.15,
                f"response varies {variation:.1%} across buffer sizes "
                f"{sizes} (needs <=15%)")]
    for name in ("random", "mixed"):
        base = {b: summary_row(outputs, name, buffer=b)["mean_response_s"]
                for b in sizes}
        worst = min(pct_below(base[b], ql[b]) for b in sizes)
        clauses.append((worst > 0.0,
                        f"below {name} at every size "
                        f"(worst margin {worst:+.1%}, needs >0%)"))
    finish(7, clauses)


# -- 8: invariant property suites ----------------------------------------------------------

def occupancy_suite(rng, cases=1000):
    for _ in range(cases):
        k = int(rng.integers(1, 5))
        cap = int(rng.integers(1, 6))
        specs = [VmSpec(mips=1000.0, buffer_capacity=cap)
                 for i in range(k)]
        cluster = ClusterState(specs, max_attempts=10, fails=None)
        for tid in range(int(rng.integers(0, 3 * k * cap))):
            free = cluster.feasible_vms()
            if not free:
                break
            cluster.admit(TaskSpec(tid, 0, int(rng.integers(100, 9000))),
                          free[int(rng.integers(len(free)))])
            occupied = cluster.counters()[0]
            if not (all(0 <= b <= cap for b in occupied)
                    and sum(occupied) <= k * cap):
                return False
    return True


def q_bound_suite(rng, cases=2000):
    gamma = 0.9
    bound = 1.0 / (1.0 - gamma) + 1e-9
    table = QTable(3)
    states = [(i,) for i in range(8)]
    for s in states:
        table.ensure(s, (0, 1, 2))
    for _ in range(cases):
        s = states[rng.integers(len(states))]
        n = states[rng.integers(len(states))]
        new = update_q(table, s, int(rng.integers(3)),
                       float(rng.integers(-1, 2)), n, gamma, 0.65)
        if abs(new) > bound:
            return False
    return True


def kernel_rows_suite(rng, min_rows=1000):
    rows_checked = 0
    while rows_checked < min_rows:
        oracle = build_oracle_mdp(
            num_vms=int(rng.integers(1, 4)),
            buffer_capacity=int(rng.integers(1, 4)),
            num_classes=int(rng.integers(1, 4)),
            p_c=float(rng.uniform(0.05, 1.0)))
        sums = np.add.reduceat(oracle.csr_probs, oracle.csr_indptr[:-1])
        if not np.allclose(sums, 1.0, atol=1e-9):
            return False
        rows_checked += oracle.row_reward.size
    return True


def load_share_suite(rng, cases=1000):
    for _ in range(cases):
        k = int(rng.integers(1, 5))
        specs = [VmSpec(mips=float(rng.integers(500, 3000)),
                        buffer_capacity=5) for i in range(k)]
        records = []
        for tid in range(int(rng.integers(1, 10))):
            e = float(rng.uniform(0.05, 30.0))
            records.append(CompletionRecord(
                task_id=tid, submit_time=0.0, finish_time=e, exec_time=e,
                vm_index=int(rng.integers(k)), attempts=1, aborted=False))
        share = build_report(records, specs).load_share
        if abs(sum(share) - 1.0) > 1e-9 or any(s < 0 for s in share):
            return False
    return True


def determinism_suite(rng, cases=1000):
    for case in range(cases):
        scenario = ScenarioConfig(
            num_tasks=int(rng.integers(2, 10)),
            length_min=100, length_max=int(rng.integers(2000, 20_000)),
            num_vms=int(rng.integers(1, 4)), vm_mips=1000,
            buffer_min=1, buffer_max=int(rng.integers(1, 4)))
        specs = [VmSpec(mips=1000.0,
                        buffer_capacity=scenario.buffer_max)
                 for i in range(scenario.num_vms)]
        seed = int(rng.integers(2**31))
        ratio = float(rng.choice([0.0, 0.2]))
        runs = []
        for _ in range(2):
            workload = generate_workload(scenario, seed, d_max=5)
            records = run_policy_simulation(
                specs, workload, fifo_select, slot_seconds=1.0,
                failure_ratio=ratio, max_attempts=3, policy_rng=None,
                failure_seed=seed + 1)
            runs.append(tuple(records))
        if runs[0] != runs[1]:
            return False
    return True


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(88)
    finish(8, [
        (occupancy_suite(rng), "occupancy bound (10^3 random admissions)"),
        (q_bound_suite(rng), "|q| <= 1/(1-gamma) (2x10^3 random updates)"),
        (kernel_rows_suite(rng), "kernel rows sum to 1 (10^3 rows)"),
        (load_share_suite(rng), "load shares sum to 1 (10^3 record sets)"),
        (determinism_suite(rng), "same-seed runs identical (10^3 runs)"),
    ])
