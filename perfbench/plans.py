"""The pinned workloads of the benchmark.

Every field that changes what qlsched computes is written out here, so
that a later edit to a shipped preset, a new default or an appended
policy cannot change what the benchmark measures. The reporting-only
scenario fields (vm_ram_mb, vm_bandwidth_mbps, num_datacenters,
num_hosts) are left out on purpose: nothing reads them and they may be
dropped from the schema.
"""

from __future__ import annotations

import copy

# The six policies as of the first baseline, named explicitly rather than
# taken from qlsched.POLICY_NAMES, which is append-only and may grow.
SIX_POLICIES = ["random", "fifo", "mixed", "greedy", "qsch", "qlearn"]

_CLUSTER_100 = {
    "num_tasks": 100,
    "length_min": 100,
    "length_max": 400000,
    "num_vms": 3,
    "vm_mips": 1000,
    "buffer_min": 5,
    "buffer_max": 50,
    "num_pes": 5,
    "arrival_mode": "iid",
    "arrival_mean": 1.0,
}

# configs/scenario2.yaml: 5 task counts x 6 policies x 40 replications,
# so 1,200 evaluation runs and two trainings per point. Evaluation and
# the per-policy regeneration of the same 40 workloads dominate.
SWEEP_EVAL = {
    "scenario": dict(_CLUSTER_100),
    "learner": {"gamma": 0.9, "epsilon0": 0.2, "total_cycles": 1500,
                "repeater_threshold": 1500, "lr_exponent": 0.65},
    "policies": list(SIX_POLICIES),
    "task_counts": [20, 40, 60, 80, 100],
    "buffer_sizes": [25],
    "failure_ratios": [0.0],
    "replications": 40,
    "slot_seconds": 16.0,
    "range_mi": 400000,
    "l_cap": 2,
    "arrival_dmax": 5,
    "qsch_w_buffer": 0.5,
    "qsch_w_wait": 0.5,
    "max_attempts": 10,
}

# configs/failure_sweep.yaml: one learning policy at three failure
# ratios, 60 evaluation runs. Training dominates and the requeue path
# runs; with a single policy there is no workload to share between
# policies.
TRAIN_FAILURES = {
    "scenario": dict(_CLUSTER_100),
    "learner": {"gamma": 0.9, "epsilon0": 0.3, "total_cycles": 600,
                "repeater_threshold": 600, "lr_exponent": 0.65},
    "policies": ["qlearn"],
    "task_counts": [100],
    "buffer_sizes": [25],
    "failure_ratios": [0.0, 0.1, 0.2],
    "replications": 20,
    "slot_seconds": 20.0,
    "range_mi": 400000,
    "l_cap": 2,
    "arrival_dmax": 5,
    "qsch_w_buffer": 0.5,
    "qsch_w_wait": 0.5,
    "max_attempts": 10,
}

SWEEPS = {"sweep_eval": SWEEP_EVAL, "train_failures": TRAIN_FAILURES}

# build_oracle_mdp(3, 9, 4) with its defaults (uniform arrivals,
# p_c = 0.5, gamma = 0.9): 64,000 states, the largest model the 100k
# enumeration cap admits at 3 VMs. The model has no random input.
ORACLE = {"num_vms": 3, "buffer_capacity": 9, "num_classes": 4,
          "p_c": 0.5, "gamma": 0.9}
ORACLE_TOL = 1e-8

WORKLOADS = ("sweep_eval", "train_failures", "oracle_vi")

# Seeds at which golden.json stores output digests and exact counts:
# the preset's own seed and one held out. The oracle has no random input,
# so its one stored solution holds for every seed.
GOLDEN_SEEDS = {"sweep_eval": (11, 101), "train_failures": (13, 101)}


# An untraced sweep run times rounds of this many plans, whose seeds are
# spaced PLAN_SEED_STRIDE apart, and reports the mean over the plans, so
# that wall_s is not the training length of a single seed: the stop rule
# makes the number of training cycles, and so the time of one plan, vary
# by up to a fifth from seed to seed. A round takes about 25 s.
PLANS_PER_RUN = {"sweep_eval": 6, "train_failures": 12}
PLAN_SEED_STRIDE = 1000


def plan_seeds(workload: str, seed: int) -> list:
    """The plan seeds of a run; the first is the benchmark seed itself."""
    return [seed + j * PLAN_SEED_STRIDE for j in range(PLANS_PER_RUN[workload])]


def sweep_plan(workload: str, seed: int) -> dict:
    """The plan mapping for a sweep workload; the seed is the plan seed."""
    plan = copy.deepcopy(SWEEPS[workload])
    plan["seed"] = seed
    return plan
