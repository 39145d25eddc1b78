"""Experiment plans: sweep execution and CSV reports.

A plan crosses task counts, buffer sizes and failure ratios over a set
of policies. Learning policies are trained once per sweep point on
fresh workloads from the same generator, then evaluated greedily on the
replication workloads (seed = base seed + replication index, shared by
every policy so comparisons are paired). run_point does one sweep point;
run_plan runs every point in order and writes once. Outputs: runs.csv
(one row per policy and replication), summary.csv (per-point
aggregates), convergence.csv (per-training-cycle trace) and one q-table
dump per trained policy and point.
"""

from __future__ import annotations

import csv
import logging
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .cluster import VmSpec
from .config import POLICY_NAMES, ConfigError, ExperimentPlan, csv_cell
from .envs import SimulationEnv
from .metrics import aggregate, build_report
from .policies import POLICIES
from .qlearn import export_qtable, train
from .simulate import run_policy_simulation
from .workload import generate_workload

log = logging.getLogger(__name__)


SUMMARY_COLS = ("policy", "tasks", "buffer", "failure_ratio", "replications",
                "mean_response_s", "sd_response_s", "mean_wait_s", "sd_wait_s",
                "mean_makespan_s", "sd_makespan_s", "mean_aborts")
CONVERGENCE_COLS = ("policy", "tasks", "buffer", "failure_ratio", "cycle",
                    "epsilon", "avg_wait_s")


def run_cols(num_vms: int) -> tuple:
    """Columns of runs.csv: one utilization and one load share per VM."""
    return (("policy", "seed", "tasks", "buffer", "failure_ratio",
             "avg_response_s", "avg_wait_s", "makespan_s")
            + tuple(f"util_vm{i}" for i in range(num_vms))
            + tuple(f"load_vm{i}" for i in range(num_vms)) + ("aborts",))


@dataclass
class RunOutputs:
    """Rows keyed by their CSV columns, and each q-table's CSV text keyed by
    its file name: a point's tables are freed when the point returns."""
    runs: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    convergence: list = field(default_factory=list)
    qtables: dict = field(default_factory=dict)

    def extend(self, other: RunOutputs):
        self.runs += other.runs
        self.summary += other.summary
        self.convergence += other.convergence
        self.qtables.update(other.qtables)


def _train_policy(plan: ExperimentPlan, name: str, view, scenario_pt, vm_specs,
                  failure_ratio: float, point_idx: int):
    env = SimulationEnv(scenario_pt, vm_specs, view,
                        slot_seconds=plan.slot_seconds,
                        failure_ratio=failure_ratio,
                        max_attempts=plan.max_attempts,
                        d_max=plan.arrival_dmax)
    seed = [plan.seed, 1009, point_idx, POLICY_NAMES.index(name)]
    result = train(env, plan.learner, seed)
    log.info("trained %s at point %d: %d cycles, stop=%s, states=%d",
             name, point_idx, result.cycles_run, result.stop_reason,
             len(result.table))
    return result


def sweep_points(plan: ExperimentPlan) -> list:
    """(point index, task index, buffer index, tasks, buffer, failure ratio)
    for every sweep point, numbered in row-major order."""
    grid = product(enumerate(plan.task_counts), enumerate(plan.buffer_sizes),
                   plan.failure_ratios)
    return [(idx, ti, bi, tasks, buf, fr)
            for idx, ((ti, tasks), (bi, buf), fr) in enumerate(grid)]


def run_point(plan: ExperimentPlan, point) -> RunOutputs:
    """Train and evaluate every policy at one sweep point.

    A pure function of (plan, point): every generator is seeded from the
    plan seed and the point's indices, so points may run in any order.
    """
    point_idx, ti, bi, tasks, buf, fr = point
    scenario_pt = replace(plan.scenario, num_tasks=tasks)
    vm_specs = [VmSpec(mips=scenario_pt.vm_mips, buffer_capacity=buf,
                       pes=scenario_pt.num_pes)] * scenario_pt.num_vms
    cols = run_cols(len(vm_specs))
    out = RunOutputs()
    at = (tasks, buf, float(fr))    # every row's (tasks, buffer, failure_ratio)
    for name in plan.policies:
        policy = POLICIES[name]
        view = table = trained = None   # free the last learner's table now
        if policy.learns:
            view = policy.view(plan)
            trained = _train_policy(plan, name, view, scenario_pt, vm_specs,
                                    fr, point_idx)
            out.convergence += [
                dict(zip(CONVERGENCE_COLS, (name, *at, row["cycle"], row["epsilon"],
                                            row.get("avg_wait_s")), strict=True))
                for row in trained.trace]
            table = trained.table
            fname = f"qtable_{name}_t{tasks}_b{buf}_f{fr:g}.csv"
            out.qtables[fname] = export_qtable(table)
        policy_fn = policy.selector(view, table)
        reports = []
        for rep in range(plan.replications):
            workload = generate_workload(scenario_pt, plan.seed + rep,
                                         plan.arrival_dmax)
            policy_rng = np.random.default_rng(
                [plan.seed, 2003, point_idx, POLICY_NAMES.index(name), rep])
            records = run_policy_simulation(
                vm_specs, workload, policy_fn,
                slot_seconds=plan.slot_seconds, failure_ratio=fr,
                max_attempts=plan.max_attempts, policy_rng=policy_rng,
                failure_seed=[plan.seed, 3001, ti, bi, rep])
            report = build_report(records, vm_specs)
            reports.append(report)
            out.runs.append(dict(zip(cols, (
                name, plan.seed + rep, *at, report.avg_response_s,
                report.avg_wait_s, report.makespan_s, *report.utilization,
                *report.load_share, report.abort_count), strict=True)))
        mean, sd = aggregate(reports)
        out.summary.append(dict(zip(SUMMARY_COLS, (
            name, *at, plan.replications, mean["avg_response_s"],
            sd["avg_response_s"], mean["avg_wait_s"], sd["avg_wait_s"],
            mean["makespan_s"], sd["makespan_s"], mean["abort_count"]),
            strict=True)))
        log.info("point t=%d b=%d f=%.2f %-6s mean response %.2f s, "
                 "makespan %.2f s", tasks, buf, fr, name,
                 mean["avg_response_s"], mean["makespan_s"])
    return out


def run_plan(plan: ExperimentPlan, out_dir: str | None = None) -> RunOutputs:
    """Execute the full sweep; write CSVs when an output directory is set.

    An empty out_dir, or one whose nearest existing ancestor (itself, if
    it exists) is not a directory this process can write in, raises
    ConfigError before the first point runs. The files are staged in that
    ancestor (see _write_outputs).
    """
    if out_dir is not None:
        if not out_dir:
            raise ConfigError("out_dir must not be empty")
        ancestor = os.path.abspath(out_dir)
        while not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"out_dir {out_dir!r}: {ancestor!r} exists and "
                              "is not a directory")
        if not os.access(ancestor, os.W_OK | os.X_OK):
            raise ConfigError(f"out_dir {out_dir!r}: directory {ancestor!r} "
                              "is not writable")
    outputs = RunOutputs()
    for point in sweep_points(plan):
        outputs.extend(run_point(plan, point))
    if out_dir is not None:
        _write_outputs(outputs, plan.scenario.num_vms, out_dir, ancestor)
    return outputs


def _write_outputs(outputs: RunOutputs, num_vms: int, out_dir: str,
                   ancestor: str):
    """Write every file into a fresh staging directory in `ancestor`, the
    nearest existing ancestor of out_dir (or out_dir itself), then create
    out_dir and rename each file onto its name there. Once all are
    renamed, each qtable_*.csv in out_dir that this run did not write, an
    earlier run's, is removed; other files are left alone. The staging
    directory is removed however this ends, so an error before the
    renames leaves no file half written and no directory created."""
    stage = tempfile.mkdtemp(prefix=".qlsched-", dir=ancestor)
    try:
        for fname, cols, rows in (("runs.csv", run_cols(num_vms), outputs.runs),
                                  ("summary.csv", SUMMARY_COLS, outputs.summary),
                                  ("convergence.csv", CONVERGENCE_COLS,
                                   outputs.convergence)):
            with open(os.path.join(stage, fname), "w", newline="",
                      encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(cols)
                w.writerows([csv_cell(r[c]) for c in cols] for r in rows)
        for fname, text in outputs.qtables.items():
            with open(os.path.join(stage, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.makedirs(out_dir, exist_ok=True)
        for fname in os.listdir(stage):
            os.replace(os.path.join(stage, fname), os.path.join(out_dir, fname))
        for fname in os.listdir(out_dir):
            if (fname.startswith("qtable_") and fname.endswith(".csv")
                    and fname not in outputs.qtables):
                os.remove(os.path.join(out_dir, fname))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
