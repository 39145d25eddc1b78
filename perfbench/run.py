"""The qlsched benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload sweep_eval --seed 11 --seconds 40 --trace 0

Workloads (pinned in plans.py):
  sweep_eval      the scenario2 sweep, 1,200 evaluation runs over six policies
  train_failures  the failure sweep, one learner at three failure ratios
  oracle_vi       value iteration on the 64,000-state oracle MDP

Run from the root of a qlsched source tree; the package is imported from
its src/ directory, never from site-packages. Every time is host time,
what the simulator costs, not simulated time. A run does one untimed
warm-up repetition, then times whole rounds of the workload's plans
(six or twelve plan seeds for a sweep, the one model for the oracle)
until --seconds would be exceeded, and at least four repetitions.
wall_s is the mean over the plans of each plan's median time.

--trace 0 prints the end-to-end metrics: wall_s (plan parse to CSVs
written, or the value-iteration solve), setup_s (fresh interpreter to
the first unit of work, median of five), peak_rss_mb (through the
warm-up repetition) and success_rate. wall_s and setup_s are scaled to
a nominal host speed by a reference kernel timed along with each
repetition and set-up (see hostspeed.py); the raw times are printed and
kept in the per-run record.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics (see tracer.py), the tracer's overhead against the
untraced wall time, and writes the spans to .perfbench_out/.

Each repetition is checked: the sweep CSVs must be byte-identical across
repetitions of one plan seed and, at the plan seeds stored in
golden.json, equal to the stored digests; the exact counts (Q-updates, cycles, states seen, aborts, and
with tracing admissions, events and requeues; VI sweeps for the oracle)
must repeat; the CSV rows must satisfy the metric invariants; the oracle
solution must satisfy the Bellman optimality check. A repetition that
raises or fails a check counts as failed. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import gc
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

import plans  # noqa: E402  (perfbench/ is on sys.path as the script's dir)
from hostspeed import HostSpeed, MemorySpeed, scale  # noqa: E402
from tracer import Tracer, qlsched_targets  # noqa: E402

MIN_REPS = 4
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 5
CSV_NAMES = ("runs.csv", "summary.csv", "convergence.csv")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio"}
PER_LAYER = {
    "workload.calls": "count", "workload.busy_s": "s",
    "workload.us_per_task": "us",
    "simulate.eval_runs": "count", "simulate.eval_s": "s",
    "simulate.us_per_decision": "us", "simulate.eval_run_ms_p50": "ms",
    "simulate.eval_run_ms_p99": "ms",
    "cluster.admissions": "count", "cluster.events": "count",
    "cluster.requeues": "count", "cluster.aborts": "count",
    "cluster.admit_us": "us", "cluster.advance_us": "us",
    "policies.decisions": "count", "policies.select_us": "us",
    "envs.steps": "count", "envs.busy_s": "s",
    "qlearn.train_s": "s", "qlearn.self_s": "s", "qlearn.updates": "count",
    "qlearn.us_per_update": "us", "qlearn.cycles_run": "count",
    "qlearn.cycles_budget": "count", "qlearn.states_seen": "count",
    "qlearn.stop_stable": "count",
    "metrics.report_s": "s", "runner.self_s": "s",
    "mdp.build_s": "s", "mdp.states": "count", "mdp.kernel_entries": "count",
    "mdp.vi_s": "s", "mdp.sweeps": "count", "mdp.ms_per_sweep": "ms",
    "mdp.bytes_per_sweep": "B",
    "trace.overhead_pct": "%", "error_rate": "ratio",
}


class CheckFailed(Exception):
    """An output or count of one repetition is wrong."""


# -- helpers -----------------------------------------------------------------

def median(values):
    return float(statistics.median(values))


def per(total, n):
    return total / n if n else 0.0


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def expect_equal(what: str, got, want):
    if got != want:
        raise CheckFailed(f"{what}: got {got}, expected {want}")


def import_qlsched():
    """Import qlsched from this tree's src/, refusing any other copy."""
    if not (SRC / "qlsched" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qlsched sources under {SRC}; "
                         "run from the root of a qlsched source tree")
    sys.path.insert(0, str(SRC))
    import qlsched

    if Path(qlsched.__file__).resolve().parent != (SRC / "qlsched").resolve():
        raise SystemExit(f"perfbench: imported qlsched from {qlsched.__file__}, "
                         f"not from {SRC}")
    return qlsched


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qlsched").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    try:
        numba_version = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": numba_version, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "cpu_model": cpu_model,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure_setup(workload: str, plan_path, host: HostSpeed):
    """Wall times of SETUP_PROBES fresh interpreters doing the set-up,
    and the mean reference-kernel time while each ran."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload]
    if plan_path is not None:
        cmd.append(str(plan_path))
    times, kernel = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise CheckFailed(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(t1 - t0)
        kernel.append(host.mean_cost(t0, t1))
    return times, kernel


def repeat(seconds: float, min_reps: int, rep, speed=None, round_len: int = 1):
    """Call rep(i) until `seconds` would be exceeded, at least min_reps times.

    The loop stops only after a whole round of round_len repetitions.
    rep returns the duration of the repetition; a repetition that raises
    ends the loop, since the program cannot be trusted after it. With a
    speed reference (hostspeed.py), the reference-kernel time over each
    repetition is returned with it.
    """
    durations, kernel, errors = [], [], []
    start = time.perf_counter()
    if speed:
        speed.between()
    while True:
        t0 = time.perf_counter()
        try:
            durations.append(rep(len(durations)))
        except Exception as exc:  # noqa: BLE001 - counted as a failed run
            errors.append(f"{type(exc).__name__}: {exc}")
            break
        if speed:
            t1 = time.perf_counter()
            speed.between()
            kernel.append(speed.mean_cost(t0, t1))
        n = len(durations)
        if n < min_reps or n % round_len:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (n // round_len) > seconds:
            break
    return durations, kernel, errors


def mean_of_plan_medians(values: list, round_len: int) -> float:
    """Mean over the plans of a round of each plan's median value.

    Repetition i ran plan i % round_len; every plan has the same weight,
    however many rounds ran.
    """
    return statistics.fmean(median(values[k::round_len])
                            for k in range(round_len))


# -- sweeps --------------------------------------------------------------------

def read_sweep_outputs(out_dir: Path, plan: dict):
    """Digests, exact counts and invariant checks of one sweep's CSVs."""
    digests = {name: sha256_file(out_dir / name) for name in CSV_NAMES}
    with open(out_dir / "runs.csv", newline="", encoding="utf-8") as fh:
        runs = list(csv.DictReader(fh))
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    with open(out_dir / "convergence.csv", newline="", encoding="utf-8") as fh:
        convergence = list(csv.DictReader(fh))

    points = (len(plan["task_counts"]) * len(plan["buffer_sizes"])
              * len(plan["failure_ratios"]))
    n_pol = len(plan["policies"])
    learners = [p for p in plan["policies"] if p in ("qsch", "qlearn")]
    expect_equal("runs.csv rows", len(runs), n_pol * points * plan["replications"])
    expect_equal("summary.csv rows", len(summary), n_pol * points)
    k = plan["scenario"]["num_vms"]
    aborts = 0
    for row in runs:
        resp, wait, span = (float(row["avg_response_s"]), float(row["avg_wait_s"]),
                            float(row["makespan_s"]))
        utils = [float(row[f"util_vm{i}"]) for i in range(k)]
        loads = [float(row[f"load_vm{i}"]) for i in range(k)]
        if not all(math.isfinite(x) for x in [resp, wait, span, *utils, *loads]):
            raise CheckFailed(f"non-finite metric in runs.csv row {row}")
        if not (0.0 <= wait <= resp <= span + 1e-6):
            raise CheckFailed(f"need 0 <= wait <= response <= makespan: {row}")
        if not all(-1e-9 <= u <= 1.0 + 1e-6 for u in utils):
            raise CheckFailed(f"utilization outside [0, 1]: {row}")
        if abs(sum(loads) - 1.0) > 1e-5:
            raise CheckFailed(f"load shares do not sum to 1: {row}")
        n_abort = int(row["aborts"])
        if n_abort < 0 or (float(row["failure_ratio"]) == 0.0 and n_abort):
            raise CheckFailed(f"impossible abort count: {row}")
        aborts += n_abort
    for row in summary:
        expect_equal("summary replications", int(row["replications"]),
                     plan["replications"])
    cycles_per_training: dict = {}
    for row in convergence:
        key = (row["policy"], row["tasks"], row["buffer"], row["failure_ratio"])
        expect_equal(f"cycle index of {key}", int(row["cycle"]),
                     cycles_per_training.get(key, 0))
        cycles_per_training[key] = int(row["cycle"]) + 1
    expect_equal("trainings in convergence.csv", len(cycles_per_training),
                 len(learners) * points)
    if max(cycles_per_training.values()) > plan["learner"]["total_cycles"]:
        raise CheckFailed("a training ran past its cycle budget")

    qtables = sorted(glob.glob(str(out_dir / "qtable_*.csv")))
    expect_equal("q-table files", len(qtables), len(learners) * points)
    updates, states = 0, 0
    for path in qtables:
        seen = set()
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                updates += int(row["visits"])
                seen.add(row["state"])
        states += len(seen)
    counts = {"eval_runs": len(runs), "aborts": aborts,
              "cycles_run": len(convergence), "q_updates": updates,
              "states_seen": states}
    return digests, counts


def trace_counts(t: Tracer) -> dict:
    return {
        "admissions": t.calls.get("cluster.admit", 0),
        "events": t.counts.get("cluster.events", 0),
        "requeues": t.counts.get("cluster.requeues", 0),
        "aborts": t.counts.get("cluster.aborts", 0),
        "q_updates": t.counts.get("qlearn.updates", 0),
        "cycles_run": t.counts.get("qlearn.cycles_run", 0),
        "states_seen": t.counts.get("qlearn.states_seen", 0),
        "stop_stable": t.counts.get("qlearn.stop_stable", 0),
        "env_steps": t.calls.get("envs.step", 0),
        "decisions": t.calls.get("policies.select", 0),
        "workload_calls": t.calls.get("workload.generate", 0),
        "workload_tasks": t.counts.get("workload.tasks", 0),
        "eval_runs": t.calls.get("simulate.eval_run", 0),
    }


def sweep_layer_metrics(t: Tracer) -> dict:
    calls, total, own, cnt = t.calls, t.total_s, t.self_s, t.counts
    eval_s = total.get("simulate.eval_run", 0.0)
    decisions = calls.get("policies.select", 0)
    updates = cnt.get("qlearn.updates", 0)
    return {
        "workload.calls": calls.get("workload.generate", 0),
        "workload.busy_s": total.get("workload.generate", 0.0),
        "workload.us_per_task": per(total.get("workload.generate", 0.0) * 1e6,
                                    cnt.get("workload.tasks", 0)),
        "simulate.eval_runs": calls.get("simulate.eval_run", 0),
        "simulate.eval_s": eval_s,
        "simulate.us_per_decision": per(eval_s * 1e6, decisions),
        "cluster.admissions": calls.get("cluster.admit", 0),
        "cluster.events": cnt.get("cluster.events", 0),
        "cluster.requeues": cnt.get("cluster.requeues", 0),
        "cluster.aborts": cnt.get("cluster.aborts", 0),
        "cluster.admit_us": per(total.get("cluster.admit", 0.0) * 1e6,
                                calls.get("cluster.admit", 0)),
        "cluster.advance_us": per(total.get("cluster.advance", 0.0) * 1e6,
                                  calls.get("cluster.advance", 0)),
        "policies.decisions": decisions,
        "policies.select_us": per(total.get("policies.select", 0.0) * 1e6,
                                  decisions),
        "envs.steps": calls.get("envs.step", 0),
        "envs.busy_s": total.get("envs.reset", 0.0) + total.get("envs.step", 0.0),
        "qlearn.train_s": total.get("qlearn.train", 0.0),
        "qlearn.self_s": own.get("qlearn.train", 0.0),
        "qlearn.updates": updates,
        "qlearn.us_per_update": per(own.get("qlearn.train", 0.0) * 1e6, updates),
        "qlearn.cycles_run": cnt.get("qlearn.cycles_run", 0),
        "qlearn.cycles_budget": cnt.get("qlearn.cycles_budget", 0),
        "qlearn.states_seen": cnt.get("qlearn.states_seen", 0),
        "qlearn.stop_stable": cnt.get("qlearn.stop_stable", 0),
        "metrics.report_s": total.get("metrics.report", 0.0),
        "runner.self_s": own.get("runner.run_plan", 0.0),
    }


class SweepBench:
    """Repetitions of one sweep workload.

    Untraced repetitions, timed against hostspeed.HostSpeed, run rounds of the plan seeds plans.plan_seeds()
    derives from the benchmark seed; traced ones all use the first. The
    outputs of every repetition are compared with those of the first
    repetition of the same plan seed, and with golden.json where it has
    an entry for that plan seed.
    """

    speed_reference = HostSpeed

    def __init__(self, qlsched, workload: str, seed: int, work_dir: Path,
                 golden: dict):
        self.q = qlsched
        self.work_dir = work_dir
        self.golden = golden
        self.plan_seeds = plans.plan_seeds(workload, seed)
        self.round_len = len(self.plan_seeds)
        self.plans = {s: plans.sweep_plan(workload, s) for s in self.plan_seeds}
        self.plan_paths = {s: work_dir / f"plan-{s}.yaml" for s in self.plan_seeds}
        for s, path in self.plan_paths.items():
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(self.plans[s], fh, sort_keys=False)
        self.seen = {}        # plan seed -> (digests, counts) of its first run
        self.seen_trace = {}  # plan seed -> counts of its first traced run
        self.tracers = []

    def setup_probe_arg(self):
        return self.plan_paths[self.plan_seeds[0]]

    def _run(self, plan_seed: int, tracer=None) -> float:
        out_dir = self.work_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        plan_path = str(self.plan_paths[plan_seed])
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            plan = self.q.parse_config(plan_path)
            self.q.run_plan(plan, str(out_dir))
            wall = time.perf_counter() - t0
        else:
            with tracer.installed(qlsched_targets(tracer)):
                run_plan = tracer.wrap("runner.run_plan", self.q.run_plan)
                t0 = time.perf_counter()
                plan = self.q.parse_config(plan_path)
                run_plan(plan, str(out_dir))
                wall = time.perf_counter() - t0
        digests, counts = read_sweep_outputs(out_dir, self.plans[plan_seed])
        shutil.rmtree(out_dir)
        golden = self.golden.get(str(plan_seed))
        self.seen.setdefault(plan_seed, (digests, counts))
        expect_equal("CSV digests vs earlier run of this seed", digests,
                     self.seen[plan_seed][0])
        expect_equal("exact counts vs earlier run of this seed", counts,
                     self.seen[plan_seed][1])
        if golden is not None:
            expect_equal("CSV digests vs golden.json", digests, golden["digests"])
            expect_equal("exact counts vs golden.json", counts, golden["counts"])
        if tracer is not None:
            tc = trace_counts(tracer)
            self.seen_trace.setdefault(plan_seed, tc)
            expect_equal("traced counts vs earlier traced run of this seed", tc,
                         self.seen_trace[plan_seed])
            if golden is not None:
                expect_equal("traced counts vs golden.json", tc,
                             golden["trace_counts"])
        return wall

    def rep(self, i: int) -> float:
        return self._run(self.plan_seeds[i % len(self.plan_seeds)])

    def traced_rep(self, i: int) -> float:
        tracer = Tracer()
        wall = self._run(self.plan_seeds[0], tracer)
        self.tracers.append(tracer)
        return wall

    @property
    def last_tracer(self):
        return self.tracers[-1] if self.tracers else None

    def layer_metrics(self) -> dict:
        """Medians over the traced runs; eval-run percentiles pool all of them."""
        metrics = median_dicts([sweep_layer_metrics(t) for t in self.tracers])
        eval_ms = np.concatenate([t.durations("simulate.eval_run")
                                  for t in self.tracers]) * 1e3
        metrics["simulate.eval_run_ms_p50"] = float(np.percentile(eval_ms, 50))
        metrics["simulate.eval_run_ms_p99"] = float(np.percentile(eval_ms, 99))
        return metrics

    def record(self) -> dict:
        """Outputs of the first plan seed, in golden.json's layout."""
        s = self.plan_seeds[0]
        digests, counts = self.seen.get(s, (None, None))
        return {"digests": digests, "counts": counts,
                "trace_counts": self.seen_trace.get(s)}


# -- oracle ----------------------------------------------------------------------

def policy_digest(policy) -> str:
    return hashlib.sha256(np.ascontiguousarray(policy, dtype=np.int64)
                          .tobytes()).hexdigest()


def bellman_check(mdp, result, tol: float):
    """The solution is a fixed point within gamma*tol and its policy is greedy."""
    from qlsched.mdp import action_values

    q = action_values(mdp, result.values)
    best = np.maximum.reduceat(q, mdp.act_indptr[:-1])
    residual = float(np.max(np.abs(best - result.values)))
    if residual > mdp.gamma * tol + 1e-12:
        raise CheckFailed(f"Bellman residual {residual:.3g} above gamma*tol")
    chosen = np.full(mdp.num_states, -np.inf)
    state_of_row = np.repeat(np.arange(mdp.num_states), np.diff(mdp.act_indptr))
    hit = mdp.act_action == result.policy[state_of_row]
    np.maximum.at(chosen, state_of_row[hit], q[hit])
    if float(np.max(best - chosen)) > 1e-9:
        raise CheckFailed("value-iteration policy is not greedy for its values")


def bytes_per_sweep(mdp) -> int:
    """Compulsory traffic of one numpy Bellman sweep, from array sizes.

    Reads every kernel array once, gathers one value per kernel entry and
    writes the new value vector; temporaries and cache misses are left
    out, so this is a lower bound.
    """
    arrays = (mdp.csr_probs, mdp.csr_cols, mdp.csr_indptr, mdp.row_reward,
              mdp.act_indptr)
    return int(sum(a.nbytes for a in arrays) + 8 * mdp.csr_cols.size
               + 8 * mdp.num_states)


class OracleBench:
    """Value-iteration solves of the one oracle model, built once per run."""

    round_len = 1  # one model: every repetition solves the same one
    speed_reference = MemorySpeed

    def __init__(self, qlsched, workload: str, seed: int, work_dir: Path,
                 golden: dict | None):
        self.q = qlsched
        self.golden = golden
        self.mdp = None
        self.build_s = None
        self.first = None
        self.last_tracer = Tracer()

    def setup_probe_arg(self):
        return None

    def _build_once(self, tracer):
        if self.mdp is not None:
            return
        build = self.q.build_oracle_mdp
        if tracer is not None:
            build = tracer.wrap("mdp.build", build)
        t0 = time.perf_counter()
        self.mdp = build(**plans.ORACLE)
        self.build_s = time.perf_counter() - t0
        if self.golden is not None:
            expect_equal("oracle size", self.record(),
                         {k: self.golden[k] for k in ("states", "kernel_entries")})

    def _solve(self, value_iteration) -> float:
        gc.collect()
        t0 = time.perf_counter()
        result = value_iteration(self.mdp, tol=plans.ORACLE_TOL)
        wall = time.perf_counter() - t0
        got = {"sweeps": result.sweeps, "policy_sha256": policy_digest(result.policy)}
        if self.first is None:
            bellman_check(self.mdp, result, plans.ORACLE_TOL)
            self.first = got
        expect_equal("VI result vs first repetition", got, self.first)
        if self.golden is not None:
            expect_equal("VI result vs golden.json", self.record(), self.golden)
        return wall

    def rep(self, i: int) -> float:
        self._build_once(None)
        return self._solve(self.q.value_iteration)

    def traced_rep(self, i: int) -> float:
        tracer = self.last_tracer
        self._build_once(tracer)
        return self._solve(tracer.wrap("mdp.value_iteration",
                                       self.q.value_iteration))

    def layer_metrics(self) -> dict:
        vi_s = median(self.last_tracer.durations("mdp.value_iteration"))
        sweeps = self.first["sweeps"]
        return {"mdp.build_s": self.build_s, "mdp.states": self.mdp.num_states,
                "mdp.kernel_entries": int(self.mdp.csr_probs.size),
                "mdp.vi_s": vi_s, "mdp.sweeps": sweeps,
                "mdp.ms_per_sweep": vi_s * 1e3 / sweeps,
                "mdp.bytes_per_sweep": bytes_per_sweep(self.mdp)}

    def record(self) -> dict:
        """What golden.json stores: model size and, once solved, the solution."""
        rec = {"states": self.mdp.num_states,
               "kernel_entries": int(self.mdp.csr_probs.size)}
        rec.update(self.first or {})
        return rec


def make_bench(qlsched, workload, seed, work_dir, golden):
    cls = OracleBench if workload == "oracle_vi" else SweepBench
    return cls(qlsched, workload, seed, work_dir, golden)


def tail_note(values) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"no tail percentile: n={n} leaves fewer than ten samples beyond p50"
    pct = math.floor(100 * (1 - 10 / n))
    return f"p{pct} {float(np.percentile(values, pct)):.4f}"


def median_dicts(dicts: list) -> dict:
    if not dicts:
        return {}
    return {k: median([d[k] for d in dicts]) for k in dicts[0]}


# -- main --------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=plans.WORKLOADS + ("all",),
                   help="'all' runs every workload at each seed golden.json "
                        "stores, one process each, and ignores --seed")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def run_all(args) -> int:
    """Run each workload at its golden seeds in a child process; sum failures."""
    attempted = failed = 0
    all_correct = True
    for workload in plans.WORKLOADS:
        for seed in plans.GOLDEN_SEEDS.get(workload, (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if result is None:
                all_correct = False
                continue
            all_correct &= result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
    print(f"all workloads: {failed} of {attempted} repetitions failed, "
          f"error_rate {failed / max(attempted, 1):.4g}; "
          f"{'correct' if all_correct else 'NOT correct'}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seed is None or args.seed < 0 or args.seconds < 1:
        raise SystemExit("perfbench: need --seed >= 0 and --seconds >= 1")
    qlsched = import_qlsched()
    # One CPU for the workload and the host-speed thread alike, so that the
    # thread times the CPU the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(qlsched, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(qlsched, args, work_dir: Path) -> int:
    bench = make_bench(qlsched, args.workload, args.seed, work_dir,
                       load_golden()[args.workload])
    # The warm-up repetition is the first of plan seed 0, so every run
    # times that seed again and checks that it repeats exactly.
    start = time.perf_counter()
    walls, kernel, traced_walls, errors = [], [], [], []
    try:
        bench.rep(0)
        warmed_up = True
    except Exception as exc:  # noqa: BLE001 - counted as a failed run
        errors.append(f"warm-up: {type(exc).__name__}: {exc}")
        warmed_up = False
    seconds = args.seconds - (time.perf_counter() - start)
    # Read before the speed references allocate anything.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A speed reference runs during the set-up probes and the untraced
    # repetitions, never during traced ones.
    with HostSpeed() as host:
        try:
            setup_times, setup_kernel = measure_setup(
                args.workload, bench.setup_probe_arg(), host)
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    if warmed_up and not args.trace:
        with bench.speed_reference() as speed:
            walls, kernel, errors = repeat(seconds, MIN_REPS, bench.rep, speed,
                                           bench.round_len)
    if warmed_up and args.trace:
        def pair(i):
            traced_walls.append(bench.traced_rep(i))
            walls.append(bench.rep(0))
            return walls[-1] + traced_walls[-1]

        _, _, errors = repeat(seconds, MIN_TRACED_PAIRS, pair)
    attempted = warmed_up + len(walls) + len(traced_walls) + len(errors)
    failed = len(errors)
    for err in errors:
        print(f"perfbench: failed repetition: {err}", file=sys.stderr)

    nominal = bench.speed_reference.nominal_s
    scaled_walls = [scale(w, k, nominal) for w, k in zip(walls, kernel)]
    scaled_setup = [scale(t, k, HostSpeed.nominal_s)
                    for t, k in zip(setup_times, setup_kernel)]
    whole_rounds = len(scaled_walls) - len(scaled_walls) % bench.round_len
    summary = {"wall_s": (mean_of_plan_medians(scaled_walls[:whole_rounds],
                                               bench.round_len)
                          if whole_rounds else 0.0),
               "setup_s": median(scaled_setup), "peak_rss_mb": peak_rss_mb,
               "success_rate": (attempted - failed) / attempted}
    if args.trace:
        metrics = dict.fromkeys(PER_LAYER, 0)
        if not errors:
            metrics.update(bench.layer_metrics())
            metrics["trace.overhead_pct"] = (
                (median(traced_walls) / median(walls) - 1.0) * 100.0)
        metrics["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = summary
        units = END_TO_END

    record = {"provenance": provenance(args.workload, args.seed, args.seconds,
                                       args.trace),
              "walls_s": walls, "traced_walls_s": traced_walls,
              "reference": bench.speed_reference.__name__,
              "kernel_s": kernel, "scaled_walls_s": scaled_walls,
              "setup_times_s": setup_times, "setup_kernel_s": setup_kernel,
              "scaled_setup_s": scaled_setup, "errors": errors,
              "outputs": bench.record(), "end_to_end": summary,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    result_path = OUT / (f"result-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace and bench.last_tracer is not None:
        bench.last_tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    n = len(walls)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"1 warm-up and {n} untraced repetitions, {len(traced_walls)} traced, "
          f"{failed} failed of {attempted}")
    if scaled_walls:
        print(f"  wall_s at nominal host speed: {summary['wall_s']:.4f} s "
              f"(mean over {bench.round_len} plan(s) of each plan's median); "
              f"all repetitions: median {median(scaled_walls):.4f}, "
              f"min {min(scaled_walls):.4f}, max {max(scaled_walls):.4f} over "
              f"n={n}; {tail_note(scaled_walls)}")
    if walls:
        print(f"  raw wall: median {median(walls):.4f} s, min {min(walls):.4f}, "
              f"max {max(walls):.4f}")
    if kernel:
        print(f"  {bench.speed_reference.__name__} reference: median "
              f"{median(kernel) * 1e3:.3f} ms (nominal {nominal * 1e3:.3f} ms)")
    print(f"  setup_s: median {median(scaled_setup):.4f} s at nominal host speed, "
          f"raw {median(setup_times):.4f} s, over n={len(setup_times)} "
          f"fresh interpreters")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {units[name]}")
    print(f"  details: {result_path.relative_to(ROOT)}")
    correct = not errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
