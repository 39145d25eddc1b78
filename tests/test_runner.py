"""Plan parsing, sweep execution, CSV layout and the CLI wrapper."""

import argparse
import csv
import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import pytest
import yaml

from outputs_helpers import run_values, summary_row
from qlsched import runner
from qlsched.cli import build_parser, main
from qlsched.config import (POLICY_NAMES, ConfigError, ExperimentPlan,
                            LearnerConfig, ScenarioConfig, _build, parse_config)
from qlsched.runner import RunOutputs, run_plan, run_point, sweep_points

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def tiny_config(**overrides):
    cfg = {
        "scenario": {
            "num_tasks": 8, "length_min": 500, "length_max": 3000,
            "num_vms": 2, "vm_mips": 1000, "buffer_min": 2, "buffer_max": 3,
        },
        "policies": ["random", "greedy"],
        "task_counts": [4, 6, 8],
        "replications": 5,
        "seed": 3,
        "slot_seconds": 1.0,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="plan.yaml", **overrides):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tiny_config(**overrides)))
    return str(path)


# -- parsing ---------------------------------------------------------------------

def test_parse_small_scenario_preset():
    plan = parse_config(os.path.join(CONFIG_DIR, "scenario1.yaml"))
    sc = plan.scenario
    assert (sc.num_tasks, sc.num_vms, sc.vm_mips) == (20, 3, 1000)
    assert (sc.length_min, sc.length_max) == (5000, 200_000)
    assert (sc.buffer_min, sc.buffer_max, sc.num_pes) == (5, 15, 1)
    assert plan.task_counts == [10, 12, 14, 16, 18, 20]
    assert plan.buffer_sizes == [10]
    assert plan.replications == 20
    assert plan.slot_seconds == 30.0
    assert plan.learner.gamma == 0.9
    assert set(plan.policies) == {"random", "fifo", "mixed", "greedy",
                                  "qsch", "qlearn"}


def test_parse_large_scenario_preset():
    plan = parse_config(os.path.join(CONFIG_DIR, "scenario2.yaml"))
    sc = plan.scenario
    assert (sc.num_tasks, sc.num_pes) == (100, 5)
    assert (sc.length_min, sc.length_max) == (100, 400_000)
    assert (sc.buffer_min, sc.buffer_max) == (5, 50)
    assert plan.task_counts == [20, 40, 60, 80, 100]
    assert plan.replications == 40


def test_parse_sweep_presets():
    failure = parse_config(os.path.join(CONFIG_DIR, "failure_sweep.yaml"))
    assert failure.policies == ["qlearn"]
    assert failure.failure_ratios == [0.0, 0.1, 0.2]
    buffers = parse_config(os.path.join(CONFIG_DIR, "buffer_sweep.yaml"))
    assert buffers.buffer_sizes == [5, 10, 15]
    assert buffers.task_counts == [40]
    assert set(buffers.policies) == {"qlearn", "random", "mixed", "fifo"}


def test_unknown_top_level_key_named(tmp_path):
    path = write_config(tmp_path, spindle=3)
    with pytest.raises(ConfigError, match="spindle"):
        parse_config(path)


def test_unknown_scenario_key_named(tmp_path):
    cfg = tiny_config()
    cfg["scenario"]["cores"] = 4
    path = tmp_path / "plan.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="scenario.cores"):
        parse_config(str(path))


def test_learner_gamma_out_of_range_named(tmp_path):
    path = write_config(tmp_path, learner={"gamma": 1.5})
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(path)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/plan.yaml")


def test_cli_non_utf8_config_names_the_file(tmp_path, capsys):
    path = tmp_path / "plan.yaml"
    path.write_bytes(b"seed: 7\nreplications: \xff\n")
    assert main(["run", "--config", str(path)]) == 1
    assert f"config error: config file {path} is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("scenario: {num_tasks: 4, length_min: 1, length_max: 2, num_vms: 1, "
     "vm_mips: 1}\nseed: 7\nreplications: 2\nseed: 8\n",
     "duplicate config key 'seed' at line 4"),
    ("seed: 7\nscenario:\n  num_tasks: 4\n  num_vms: 2\n  length_min: 1\n"
     "  length_max: 2\n  vm_mips: 1\n  num_vms: 3\n",
     "duplicate config key 'num_vms' at line 8"),
], ids=["top_level", "in_scenario"])
def test_repeated_key_named_with_its_line(tmp_path, text, message):
    # yaml.safe_load would keep the last value silently
    path = tmp_path / "plan.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))


@pytest.mark.parametrize("preset", sorted(os.listdir(CONFIG_DIR)))
def test_presets_parse_as_safe_load_reads_them(preset):
    path = os.path.join(CONFIG_DIR, preset)
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    assert parse_config(path) == _build(ExperimentPlan, raw, "")


def test_non_mapping_config_rejected(tmp_path):
    path = tmp_path / "plan.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        parse_config(str(path))
    with pytest.raises(ConfigError, match="config must be a mapping"):
        parse_config(str(path), ["seed=1"])


# -- plan validation ---------------------------------------------------------------

def scenario():
    return ScenarioConfig(num_tasks=6, length_min=500, length_max=2000,
                          num_vms=2, vm_mips=1000)


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"policies": ["warp"]}, "unknown policy"),
        ({"task_counts": [0]}, "task_counts"),
        ({"buffer_sizes": [0]}, "buffer_sizes"),
        ({"failure_ratios": [1.5]}, "failure_ratios"),
        ({"failure_ratios": []}, "non-empty"),
        ({"replications": 0}, "replications"),
        ({"seed": -1}, "seed"),
        ({"slot_seconds": 0.0}, "slot_seconds"),
        ({"range_mi": 0}, "range_mi"),
        ({"l_cap": -1}, "l_cap"),
        ({"max_attempts": 0}, "max_attempts"),
    ],
)
def test_plan_validation(kwargs, needle):
    with pytest.raises(ConfigError, match=needle):
        ExperimentPlan(scenario=scenario(), **kwargs)


def test_plan_defaults_fill_from_scenario():
    plan = ExperimentPlan(scenario=scenario())
    assert plan.task_counts == [6]
    assert plan.buffer_sizes == [scenario().buffer_max]
    assert plan.failure_ratios == [0.0]


# Every field default of the schema, which is the one place each is written:
# a default that drifts, or a new one left out here, fails the test below.
SCHEMA_DEFAULTS = {
    ScenarioConfig: {"buffer_min": 5, "buffer_max": 15, "num_pes": 1,
                     "arrival_mode": "iid", "arrival_mean": 1.0},
    LearnerConfig: {"gamma": 0.9, "epsilon0": 1.0, "total_cycles": 10_000,
                    "repeater_threshold": 500, "lr_exponent": 0.65},
    ExperimentPlan: {"policies": list(POLICY_NAMES), "task_counts": None,
                     "buffer_sizes": None, "failure_ratios": [0.0],
                     "replications": 20, "seed": 1, "learner": LearnerConfig(),
                     "slot_seconds": 1.0, "range_mi": 10_000, "l_cap": 40,
                     "arrival_dmax": 5, "qsch_w_buffer": 0.5,
                     "qsch_w_wait": 0.5, "max_attempts": 10},
}


def test_schema_defaults_are_pinned():
    for cls, expect in SCHEMA_DEFAULTS.items():
        defaults = {f.name: f.default if f.default_factory is MISSING
                    else f.default_factory() for f in fields(cls)
                    if (f.default, f.default_factory) != (MISSING, MISSING)}
        assert defaults == expect, cls.__name__


# -- sweep execution ---------------------------------------------------------------

def test_run_plan_row_counts(tmp_path):
    plan = parse_config(write_config(tmp_path))
    outputs = run_plan(plan)
    # 2 policies x 3 task counts x 1 buffer x 1 failure x 5 replications
    assert len(outputs.runs) == 30
    assert len(outputs.summary) == 6
    assert outputs.convergence == []  # no learning policy in the plan
    row = summary_row(outputs, "greedy", tasks=6)
    assert row["replications"] == 5
    assert row["mean_response_s"] > 0
    values = run_values(outputs, "random", "makespan_s", tasks=8)
    assert len(values) == 5


def test_run_plan_seed_column_pairs_replications(tmp_path):
    plan = parse_config(write_config(tmp_path))
    outputs = run_plan(plan)
    seeds = sorted(r["seed"] for r in outputs.runs if r["policy"] == "greedy"
                   and r["tasks"] == 4)
    assert seeds == [3, 4, 5, 6, 7]
    # both policies replay the same workload seeds
    assert seeds == sorted(r["seed"] for r in outputs.runs
                           if r["policy"] == "random" and r["tasks"] == 4)


def test_summary_row_requires_unique_match(tmp_path):
    plan = parse_config(write_config(tmp_path))
    outputs = run_plan(plan)
    with pytest.raises(KeyError):
        summary_row(outputs, "greedy")  # three task counts match
    with pytest.raises(KeyError):
        summary_row(outputs, "qlearn", tasks=4)  # nothing matches


def learner_plan(tmp_path, **extra):
    overrides = {
        "policies": ["greedy", "qsch"],
        "task_counts": [6],
        "replications": 3,
        "learner": {"total_cycles": 30, "repeater_threshold": 5},
    }
    overrides.update(extra)
    return write_config(tmp_path, **overrides)


def test_registry_selectors_call_patched_functions(tmp_path, monkeypatch):
    # Evaluation must call the selectors as they are at run time, so that a
    # wrapper set on the policies module or on a policy class sees every
    # decision.
    from qlsched import policies

    calls = {"greedy": 0, "qlearn": 0}
    greedy, qlearn_call = policies.greedy_select, policies.QlearnPolicy.__call__

    def counting_greedy(cluster, rng=None):
        calls["greedy"] += 1
        return greedy(cluster, rng)

    def counting_qlearn(self, cluster, rng):
        calls["qlearn"] += 1
        return qlearn_call(self, cluster, rng)

    monkeypatch.setattr(policies, "greedy_select", counting_greedy)
    monkeypatch.setattr(policies.QlearnPolicy, "__call__", counting_qlearn)
    plan = parse_config(learner_plan(tmp_path, policies=["greedy", "qlearn"]))
    run_plan(plan)
    assert calls["greedy"] > 0 and calls["qlearn"] > 0


def test_learning_policy_emits_convergence_and_qtable(tmp_path):
    out_dir = tmp_path / "results"
    plan = parse_config(learner_plan(tmp_path))
    outputs = run_plan(plan, out_dir=str(out_dir))
    assert outputs.convergence
    assert {r["policy"] for r in outputs.convergence} == {"qsch"}
    cycles = [r["cycle"] for r in outputs.convergence]
    assert cycles[0] == 0
    assert cycles == sorted(cycles)
    names = sorted(os.listdir(out_dir))
    assert names == ["convergence.csv", "qtable_qsch_t6_b3_f0.csv",
                     "runs.csv", "summary.csv"]
    qtable = (out_dir / "qtable_qsch_t6_b3_f0.csv").read_text()
    assert qtable.startswith("state,action,q,visits\n")


def test_rerun_writes_identical_csvs(tmp_path):
    paths = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        plan = parse_config(learner_plan(tmp_path, name=f"{sub}.yaml"))
        run_plan(plan, out_dir=str(out_dir))
        paths.append(out_dir)
    for name in ("runs.csv", "summary.csv", "convergence.csv",
                 "qtable_qsch_t6_b3_f0.csv"):
        assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


def test_a_rerun_leaves_no_earlier_qtable(tmp_path):
    # a greedy-only rerun into a learner run's out_dir leaves exactly the
    # files a fresh greedy-only run writes, plus the files no run writes
    config = learner_plan(tmp_path)
    out_dir, fresh = tmp_path / "results", tmp_path / "fresh"
    assert main(["run", "--config", config, "--out", str(out_dir)]) == 0
    assert "qtable_qsch_t6_b3_f0.csv" in os.listdir(out_dir)
    (out_dir / "notes.txt").write_text("mine\n")
    greedy = ["run", "--config", config, "--set", "policies=[greedy]", "--out"]
    assert main([*greedy, str(out_dir)]) == 0
    assert main([*greedy, str(fresh)]) == 0
    assert (out_dir / "notes.txt").read_text() == "mine\n"
    (out_dir / "notes.txt").unlink()
    assert ({name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
            == {name: (fresh / name).read_bytes() for name in os.listdir(fresh)})


def test_run_point_is_pure_and_rows_are_the_csv_rows(tmp_path):
    # points run in reverse order and put back in point order give what
    # run_plan gives, so points may run in any order or in parallel
    out_dir = tmp_path / "results"
    plan = parse_config(learner_plan(tmp_path, task_counts=[4, 6],
                                     failure_ratios=[0.0, 0.2]))
    whole = run_plan(plan, out_dir=str(out_dir))
    points = sweep_points(plan)
    assert [p[0] for p in points] == [0, 1, 2, 3]
    assert [(p[1], p[2], p[5]) for p in points] == [
        (0, 0, 0.0), (0, 0, 0.2), (1, 0, 0.0), (1, 0, 0.2)]
    parts = {p[0]: run_point(plan, p) for p in reversed(points)}
    joined = RunOutputs()
    for idx in sorted(parts):
        joined.extend(parts[idx])
    assert joined.runs == whole.runs
    assert joined.summary == whole.summary
    assert joined.convergence == whole.convergence
    dumps = [o.qtables for o in (joined, whole)]
    assert list(dumps[0].items()) == list(dumps[1].items())
    assert len(dumps[0]) == 4
    assert {r["failure_ratio"] for r in whole.runs} == {0.0, 0.2}
    # each in-memory row's keys are its file's header, in order
    for name, rows in (("runs.csv", whole.runs), ("summary.csv", whole.summary),
                       ("convergence.csv", whole.convergence)):
        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
        assert rows and len(lines) == 1 + len(rows), name
        assert all(list(r) == lines[0] for r in rows), name
    assert sorted(dumps[1]) == sorted(n for n in os.listdir(out_dir)
                                      if n.startswith("qtable_"))


def test_trained_tables_are_freed_and_only_their_text_kept(tmp_path, monkeypatch):
    # a point's q-tables die with the point: RunOutputs keeps the CSV text
    # each is written as, which is what every file holds
    tables = []
    train = runner.train

    def keeping_weakrefs(*args, **kwargs):
        result = train(*args, **kwargs)
        tables.append(weakref.ref(result.table))
        return result

    monkeypatch.setattr(runner, "train", keeping_weakrefs)
    out_dir = tmp_path / "results"
    plan = parse_config(learner_plan(tmp_path, policies=["qsch", "qlearn"],
                                     task_counts=[4, 6]))
    outputs = run_plan(plan, out_dir=str(out_dir))
    gc.collect()
    assert len(tables) == 4
    assert [ref() for ref in tables] == [None] * 4
    assert len(outputs.qtables) == 4
    for fname, text in outputs.qtables.items():
        assert (out_dir / fname).read_text(encoding="utf-8") == text, fname


def test_training_leaves_no_reference_cycle():
    # with the cyclic collector off, the trained table and the episode's
    # Simulation die as soon as the result and the env are dropped: no
    # env <-> agent cycle keeps a point's table alive until a collection
    from qlsched.cluster import VmSpec
    from qlsched.envs import LengthAwareView, SimulationEnv
    from qlsched.qlearn import train

    scenario = ScenarioConfig(num_tasks=12, length_min=500, length_max=6000,
                              num_vms=2, vm_mips=1000, buffer_min=2,
                              buffer_max=2)
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=2) for i in range(2)]
    gc.collect()
    gc.disable()
    try:
        env = SimulationEnv(scenario, vm_specs, LengthAwareView(2000, 3),
                            slot_seconds=1.0, failure_ratio=0.3,
                            max_attempts=10, d_max=5)
        result = train(env, LearnerConfig(total_cycles=10, repeater_threshold=3), 6)
        refs = [weakref.ref(result.table), weakref.ref(env.sim)]
        del result, env
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_runs_csv_layout(tmp_path):
    out_dir = tmp_path / "results"
    plan = parse_config(write_config(tmp_path, task_counts=[4],
                                     replications=2))
    run_plan(plan, out_dir=str(out_dir))
    lines = (out_dir / "runs.csv").read_text().splitlines()
    assert lines[0] == ("policy,seed,tasks,buffer,failure_ratio,"
                        "avg_response_s,avg_wait_s,makespan_s,"
                        "util_vm0,util_vm1,load_vm0,load_vm1,aborts")
    assert len(lines) == 1 + 2 * 2  # 2 policies x 2 replications
    assert lines[1].startswith("random,3,4,3,0.000000,")


# -- command line ------------------------------------------------------------------

def test_cli_run_success(tmp_path, capsys):
    out_dir = tmp_path / "results"
    config = write_config(tmp_path, task_counts=[4], replications=2)
    code = main(["run", "--config", config, "--out", str(out_dir)])
    assert code == 0
    assert "completed 4 runs" in capsys.readouterr().out
    assert (out_dir / "summary.csv").exists()


def test_cli_policy_filter_and_overrides(tmp_path):
    out_dir = tmp_path / "results"
    config = write_config(tmp_path, task_counts=[4])
    code = main(["run", "--config", config, "--set", "policies=[greedy]",
                 "--set", "replications=2", "--set", "seed=9",
                 "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "runs.csv").read_text().splitlines()[1:]
    assert len(lines) == 2
    assert all(line.startswith("greedy,") for line in lines)
    assert {line.split(",")[1] for line in lines} == {"9", "10"}


def test_cli_config_error_exit_1(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.yaml")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_out_naming_a_file_exits_1_before_any_point(tmp_path, capsys,
                                                        monkeypatch):
    # it used to run the whole sweep, then fail to write with exit 2
    ran = []
    monkeypatch.setattr(runner, "run_point",
                        lambda plan, point: ran.append(point))
    out = tmp_path / "results"
    out.write_text("keep\n")
    config = write_config(tmp_path, task_counts=[4], replications=1)
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "out_dir" in err
    assert ran == []
    assert out.read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["plan.yaml", "results"]


def test_cli_out_under_a_file_exits_1_before_any_point(tmp_path, capsys,
                                                       monkeypatch):
    # os.makedirs would fail only at the write, after the whole sweep
    ran = []
    monkeypatch.setattr(runner, "run_point",
                        lambda plan, point: ran.append(point))
    blocker = tmp_path / "results"
    blocker.write_text("keep\n")
    config = write_config(tmp_path, task_counts=[4], replications=1)
    out = blocker / "a" / "b"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "out_dir" in err and str(out) in err
    assert ran == []
    assert blocker.read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["plan.yaml", "results"]


def test_cli_empty_out_exits_1_before_any_point(tmp_path, capsys, monkeypatch):
    # it used to run the whole sweep, write nothing and exit 0
    ran = []
    monkeypatch.setattr(runner, "run_point",
                        lambda plan, point: ran.append(point))
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, task_counts=[4], replications=1)
    assert main(["run", "--config", config, "--out", ""]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "out_dir" in err
    assert ran == []
    assert sorted(os.listdir(tmp_path)) == ["plan.yaml"]


def test_run_plan_refuses_an_empty_out_dir(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(runner, "run_point",
                        lambda plan, point: ran.append(point))
    plan = parse_config(write_config(tmp_path, task_counts=[4], replications=1))
    with pytest.raises(ConfigError, match="out_dir"):
        run_plan(plan, "")
    assert ran == []


def failing_csv_writer(monkeypatch):
    """Make runner's second csv.writer write half a row and raise; returns
    the list of the paths it was opened on."""
    real_writer, opened = csv.writer, []

    def failing_writer(fh, *args, **kwargs):
        opened.append(fh.name)
        writer = real_writer(fh, *args, **kwargs)
        if len(opened) == 2:
            writer.writerow(["half"])
            fh.flush()
            raise OSError("disk full")
        return writer

    monkeypatch.setattr(runner.csv, "writer", failing_writer)
    return opened


def test_a_failed_write_leaves_the_earlier_outputs_whole(tmp_path, capsys,
                                                         monkeypatch):
    # the second file's write raises: the first file's new text must not
    # replace the old, and no staged file or directory may stay behind
    out_dir = tmp_path / "results"
    config = learner_plan(tmp_path)
    assert main(["run", "--config", config, "--out", str(out_dir)]) == 0
    before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
    assert len(before) == 4
    opened = failing_csv_writer(monkeypatch)
    code = main(["run", "--config", config, "--set", "seed=4", "--out", str(out_dir)])
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert {name: (out_dir / name).read_bytes()
            for name in os.listdir(out_dir)} == before
    assert sorted(os.listdir(tmp_path)) == ["plan.yaml", "results"]
    assert [os.path.basename(name) for name in opened] == ["runs.csv", "summary.csv"]
    assert all(os.path.dirname(name) != str(out_dir) for name in opened)


def test_a_failed_write_into_a_new_directory_creates_nothing(tmp_path, capsys,
                                                             monkeypatch):
    # out_dir and its parent do not exist yet: a failed write must leave
    # neither behind, nor any staged file in the nearest existing ancestor
    config = learner_plan(tmp_path)
    failing_csv_writer(monkeypatch)
    out_dir = tmp_path / "new" / "deeper"
    assert main(["run", "--config", config, "--out", str(out_dir)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    assert sorted(os.listdir(tmp_path)) == ["plan.yaml"]


def test_inline_checks_have_no_side_effect(tmp_path):
    # cluster.py and simulate.py assert on every decision and event:
    # stripping those checks with python -O must leave every CSV byte
    config = write_config(tmp_path, policies=["random", "qlearn"], task_counts=[6],
                          failure_ratios=[0.0, 0.3], replications=3,
                          learner={"total_cycles": 40, "repeater_threshold": 10})
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    digests = []
    for flags in ([], ["-O"]):
        out_dir = tmp_path / ("optimized" if flags else "plain")
        subprocess.run([sys.executable, *flags, "-m", "qlsched", "run",
                        "--config", config, "--out", str(out_dir)],
                       env=env, capture_output=True, check=True)
        digests.append({name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                        for name in ("runs.csv", "summary.csv", "convergence.csv")})
    assert digests[0] == digests[1]


def test_cli_bad_override_exit_1(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["run", "--config", config, "--set", "learner.gamma=1.5"])
    assert code == 1
    assert "config error: gamma must be < 1, got 1.5" in capsys.readouterr().err


def test_cli_runtime_failure_exit_2(tmp_path, capsys):
    # certain failure on every attempt leaves no completions to report on
    config = write_config(tmp_path, task_counts=[4], replications=1)
    code = main(["run", "--config", config, "--set", "failure_ratios=[1.0]"])
    assert code == 2
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("verbose", [False, True])
def test_cli_runtime_failure_traceback_only_verbose(tmp_path, capsys, verbose):
    config = write_config(tmp_path, task_counts=[4], replications=1)
    code = main(["run", "--config", config, "--set", "failure_ratios=[1.0]"]
                + ["-v"] * verbose)
    assert code == 2
    assert ("Traceback" in capsys.readouterr().err) == verbose


@pytest.mark.parametrize("section, key, value", [
    (None, "slot_seconds", float("nan")),
    ("scenario", "arrival_mean", float("nan")),
    (None, "replications", "5"),
    (None, "qsch_w_buffer", 1.5),
    (None, "qsch_w_buffer", float("nan")),
    (None, "qsch_w_wait", 1.5),
    (None, "qsch_w_wait", float("nan")),
    (None, "task_counts", [True]),
    (None, "task_counts", [12.5]),
    (None, "buffer_sizes", [True]),
    (None, "buffer_sizes", ["10"]),
    (None, "failure_ratios", [True]),
    (None, "failure_ratios", ["0.1"]),
    ("scenario", "num_tasks", 2.5),
    ("scenario", "num_tasks", True),
    ("scenario", "length_min", 5000.0),
    ("scenario", "length_max", "200000"),
    ("scenario", "num_vms", True),
    ("scenario", "buffer_min", 5.5),
    ("scenario", "buffer_max", 12.5),
    ("scenario", "num_pes", 1.0),
    ("scenario", "vm_mips", "fast"),
    ("scenario", "arrival_mean", True),
    (None, "slot_seconds", "30"),
    ("learner", "gamma", "0.9"),
    ("learner", "total_cycles", 600.5),
    (None, "policies", "qlearn"),
    (None, "policies", ["greedy", "greedy"]),
    ("scenario", "vm_mips", float("inf")),
    ("scenario", "arrival_mean", float("inf")),
    (None, "out_dir", 5),
    ("scenario", "arrival_mean", 6.0),
    pytest.param("scenario", "vm_mips", 10**400, id="scenario-vm_mips-10**400"),
    (None, "task_counts", [10, 10]),
    (None, "buffer_sizes", [10, 10]),
    (None, "failure_ratios", [0.0, 0.0]),
    (None, "failure_ratios", [0.1234561, 0.1234562]),
    (None, "failure_ratios", [0.0123454999, 0.0123455001]),
])
def test_cli_value_past_range_check_exit_1(tmp_path, capsys, section, key, value):
    # values that once slipped past validation: NaN compares false with
    # every bound, a string replication count raised a TypeError, the
    # qsch weights were only checked when training started, sweep entries
    # and scenario ints were not type-checked, a string where a number
    # belongs raised a TypeError past the CLI's config-error handler, a
    # string of policies was read letter by letter, a repeated policy wrote
    # duplicate summary rows, an infinite speed or arrival mean ran (or
    # failed at run time), a numeric out_dir failed at write time (now an
    # unknown key: only --out sets the output directory), an arrival mean
    # above arrival_dmax failed at run time with exit 2, an
    # int too large for a float raised an uncaught OverflowError, a
    # repeated sweep entry wrote rows that cannot be told apart, and two
    # failure ratios that print alike at the CSVs' 6 decimals (or in the
    # q-table file names' :g) wrote such rows and overwrote one q-table
    config = edited_preset(tmp_path, "scenario1.yaml", section, key, value)
    code = main(["run", "--config", config])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


DELETE = object()


def edited_preset(tmp_path, preset, section, key, value):
    """Write `preset` with `section.key` (a top-level key when section is
    None) set to `value`, or removed when value is DELETE; return its path."""
    with open(os.path.join(CONFIG_DIR, preset), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    table = cfg[section] if section else cfg
    if value is DELETE:
        del table[key]
    else:
        table[key] = value
    config = tmp_path / "plan.yaml"
    config.write_text(yaml.safe_dump(cfg))
    return str(config)


@pytest.mark.parametrize("section, key, value, message", [
    ("scenario", "num_tasks", DELETE, "missing config key: scenario.num_tasks"),
    (None, "scenario", None, "scenario must be a mapping"),
    (None, "learner", None, "learner must be a mapping"),
])
def test_cli_missing_or_null_key_exit_1(tmp_path, capsys, section, key, value,
                                        message):
    # a missing required key once died with a TypeError traceback
    config = edited_preset(tmp_path, "scenario1.yaml", section, key, value)
    assert main(["run", "--config", config]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def wrong_values(hint, good):
    """Values a field annotated `hint` must reject; `good` is a valid value."""
    if type(None) in get_args(hint):
        hint = get_args(hint)[0]
    if get_origin(hint) is list:
        return [good[0], [True], ["x"], [good[0], good[0]]]
    return {int: ["x", True], float: ["x", float("inf")], str: [5]}[hint]


@pytest.fixture
def run_plan_fails_fast(monkeypatch):
    """Make run_plan raise at once, so a plan that passes parsing exits 2
    with "config accepted" instead of running."""
    def accepted(plan, out_dir=None):
        raise RuntimeError("config accepted")

    monkeypatch.setattr("qlsched.runner.run_plan", accepted)


@pytest.mark.parametrize("preset", sorted(os.listdir(CONFIG_DIR)))
def test_cli_schema_table_exit_1(tmp_path, capsys, run_plan_fails_fast, preset):
    # every key the preset sets, given each value its annotation rules out,
    # and every required key deleted in turn
    with open(os.path.join(CONFIG_DIR, preset), encoding="utf-8") as fh:
        base = yaml.safe_load(fh)
    cases = []
    for section, cls in ((None, ExperimentPlan), ("scenario", ScenarioConfig),
                         ("learner", LearnerConfig)):
        table = base[section] if section else base
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in table:
                continue
            if not is_dataclass(hints[f.name]):
                cases += [(section, f.name, value, f.name)
                          for value in wrong_values(hints[f.name], table[f.name])]
            if f.default is MISSING and f.default_factory is MISSING:
                path = f"{section}.{f.name}" if section else f.name
                cases.append((section, f.name, DELETE, path))
    assert len(cases) > 40
    for section, key, value, needle in cases:
        config = edited_preset(tmp_path, preset, section, key, value)
        code = main(["run", "--config", config])
        err = capsys.readouterr().err
        assert code == 1 and "config error" in err and needle in err, \
            (section, key, value, err)


# the smallest positive double, and the doubles next to 1
TINY = 5e-324
BELOW_1 = math.nextafter(1.0, 0.0)
ABOVE_1 = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("section, key, edge, past", [
    ("scenario", "num_tasks", 1, 0),
    ("scenario", "length_min", 1, 0),
    ("scenario", "num_vms", 1, 0),
    ("scenario", "vm_mips", TINY, 0.0),
    ("scenario", "buffer_min", 1, 0),
    ("scenario", "num_pes", 1, 0),
    ("scenario", "arrival_mean", TINY, 0.0),
    ("learner", "gamma", TINY, 0.0),
    ("learner", "gamma", BELOW_1, 1.0),
    ("learner", "epsilon0", 0.0, -TINY),
    ("learner", "epsilon0", 1.0, ABOVE_1),
    ("learner", "total_cycles", 1, 0),
    ("learner", "repeater_threshold", 1, 0),
    ("learner", "lr_exponent", TINY, 0.0),
    (None, "task_counts", [1], [0]),
    (None, "buffer_sizes", [1], [0]),
    (None, "failure_ratios", [0.0], [-TINY]),
    (None, "failure_ratios", [1.0], [ABOVE_1]),
    (None, "qsch_w_buffer", 0.0, -TINY),
    (None, "qsch_w_buffer", 1.0, ABOVE_1),
    (None, "qsch_w_wait", 0.0, -TINY),
    (None, "qsch_w_wait", 1.0, ABOVE_1),
    (None, "replications", 1, 0),
    (None, "seed", 0, -1),
    (None, "slot_seconds", TINY, 0.0),
    (None, "range_mi", 1, 0),
    (None, "l_cap", 0, -1),
    (None, "arrival_dmax", 1, 0),
    (None, "max_attempts", 1, 0),
    ("scenario", "length_max", 2**63 - 1, 2**63),   # numpy draws lengths in int64
    (None, "arrival_dmax", 1000, 1001),             # the arrival rows overflow at 1030
])
def test_cli_bound_edges(tmp_path, capsys, run_plan_fails_fast, section, key, edge,
                         past):
    # each single-key range at its edge is accepted, and one step past it
    # exits 1 naming the key
    config = edited_preset(tmp_path, "scenario1.yaml", section, key, edge)
    assert main(["run", "--config", config]) == 2
    assert "config accepted" in capsys.readouterr().err
    config = edited_preset(tmp_path, "scenario1.yaml", section, key, past)
    assert main(["run", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err, err


def test_cli_arrival_error_names_arrival_mean(tmp_path, capsys):
    # a mean this small passes every bound but leaves the slots empty; the
    # error once named no key
    config = edited_preset(tmp_path, "scenario1.yaml", "scenario", "arrival_mean", 1e-9)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", config, "--set", "policies=[greedy]",
                 "--set", "replications=1", "--out", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "arrival_mean" in err, err
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["vm_ram_mb", "vm_bandwidth_mbps",
                                 "num_datacenters", "num_hosts"])
def test_cli_dropped_scenario_key_exit_1(tmp_path, capsys, key):
    # reporting-only fields that reached no output were dropped from the schema
    config = edited_preset(tmp_path, "scenario1.yaml", "scenario", key, 1)
    code = main(["run", "--config", config])
    assert code == 1
    assert f"unknown config key: scenario.{key}" in capsys.readouterr().err


def test_cli_unknown_policy_exit_1(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["run", "--config", config, "--set", "policies=[warp]"])
    assert code == 1
    assert "config error: unknown policy 'warp'" in capsys.readouterr().err


SCENARIO1 = os.path.join(CONFIG_DIR, "scenario1.yaml")


@pytest.mark.parametrize("argv, code, needle", [
    (["run", "--config", SCENARIO1, "--set", "seed=abc"], 1, "seed must be"),
    (["run", "--config", SCENARIO1, "--set", "learner.gamma=x"], 1, "gamma must be"),
    (["run", "--config", SCENARIO1, "--set", "policies=[greedy"], 1,
     "override 'policies=[greedy' is not valid YAML"),
    (["run", "--config", SCENARIO1, "--set", "learner={gamma: 0.5, gamma: 0.6}"], 1,
     "override 'learner={gamma: 0.5, gamma: 0.6}' is not valid YAML: "
     "duplicate config key 'gamma'"),
    (["run", "--config", SCENARIO1, "--set", "bogus=1"], 1,
     "unknown config key: bogus"),
    (["run", "--config", SCENARIO1, "--set", "learner.gama=0.5"], 1,
     "unknown config key: learner.gama"),
    (["run", "--config", SCENARIO1, "--set", "seed"], 1, "override 'seed'"),
    (["run", "--config", SCENARIO1, "--set", "=5"], 1, "override '=5'"),
    (["run", "--config", SCENARIO1, "--set", "seed.x=1"], 1,
     "override 'seed.x=1': seed is not a mapping"),
    (["run", "--config", SCENARIO1, "--seed", "4"], 1,
     "unrecognized arguments: --seed 4"),
    (["run", "--set", "seed=4"], 1, "required: --config"),
    ([], 1, "required: command"),
    (["run", "--config", SCENARIO1, "--set", "learner.gamma=0.5"], 2,
     "config accepted"),
    (["run", "--help"], 0, "--set KEY=VALUE"),
], ids=lambda v: " ".join(v).replace(SCENARIO1, "scenario1.yaml")
   if isinstance(v, list) else None)
def test_cli_command_line_exit_codes(capsys, run_plan_fails_fast, argv, code, needle):
    # every bad command line is a config error naming the key or the
    # override; --help still exits 0
    try:
        got = main(argv)
    except SystemExit as exc:   # argparse ends --help with sys.exit(0)
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code and needle in out + err, (got, out, err)
    assert ("config error: " in err) == (code == 1)


@pytest.mark.parametrize("overrides, section, key, value", [
    (["seed=4"], None, "seed", 4),
    (["learner.gamma=0.8"], "learner", "gamma", 0.8),
    (["policies=[greedy, qlearn]"], None, "policies", ["greedy", "qlearn"]),
    (["task_counts=null"], None, "task_counts", None),
    (["scenario.arrival_mode=markov"], "scenario", "arrival_mode", "markov"),
    (["seed=4", "seed=5"], None, "seed", 5),    # the later one wins
])
def test_overrides_parse_as_the_edited_file(tmp_path, overrides, section, key, value):
    plan = parse_config(SCENARIO1, overrides)
    assert plan != parse_config(SCENARIO1)
    assert plan == parse_config(edited_preset(tmp_path, "scenario1.yaml", section,
                                              key, value))


def test_override_creates_a_missing_section(tmp_path):
    bare = edited_preset(tmp_path, "scenario1.yaml", None, "learner", DELETE)
    assert parse_config(bare, ["learner.gamma=0.8"]).learner == LearnerConfig(gamma=0.8)


def test_cli_keeps_no_copy_of_the_schema():
    # the run options name no plan key and convert no value: every plan
    # key is typed and checked by the schema alone, whether the file or
    # --set gives it
    parser = build_parser()
    run = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    dests = set(vars(parser.parse_args(["run", "--config", "plan.yaml"])))
    assert dests == {"command", "config", "overrides", "out_dir", "verbose"}
    schema = {f.name for cls in (ExperimentPlan, ScenarioConfig, LearnerConfig)
              for f in fields(cls)}
    assert sorted(dests & schema) == []
    assert [a.dest for a in parser._actions + run._actions if a.type is not None] == []
    assert [a.option_strings for a in run._actions if a.dest != "help"] == [
        ["--config"], ["--set"], ["--out"], ["-v", "--verbose"]]


def test_plan_accepts_learner_config_instance():
    plan = ExperimentPlan(scenario=scenario(),
                          learner=LearnerConfig(gamma=0.8))
    assert plan.learner.gamma == 0.8


def test_failure_generators_only_above_ratio_zero(tmp_path, monkeypatch):
    # A failure generator is built per evaluation run and per training
    # episode only where the ratio is above 0; every training episode
    # still draws its failure seed, so the training stream is unchanged.
    import numpy as np

    built = []
    real = np.random.default_rng

    def counting(seed=None):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    plan = parse_config(learner_plan(tmp_path, failure_ratios=[0.0, 0.2]))
    outputs = run_plan(plan)
    eval_failure = [s for s in built if isinstance(s, list) and s[1] == 3001]
    assert len(eval_failure) == 2 * 3          # 2 policies x 3 replications at 0.2
    assert {s[4] for s in eval_failure} == {0, 1, 2}
    cycles = {fr: sum(1 for r in outputs.convergence if r["failure_ratio"] == fr)
              for fr in (0.0, 0.2)}
    int_seeded = sum(1 for s in built if isinstance(s, int))
    # one workload per evaluation run (2 policies x 3 reps x 2 ratios), one
    # per episode, and one failure generator per episode at ratio 0.2 only
    assert int_seeded == 12 + cycles[0.0] + 2 * cycles[0.2]
    assert 0 not in built                      # no fallback generator either
