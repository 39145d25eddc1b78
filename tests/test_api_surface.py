"""The names the package exports and the benchmark reaches must exist,
every export is read through the package root, a process loads only the
layers it runs, no public function under src/ is called only by tests,
no run-path default is read only by tests, no parameter is passed only
by tests, every numeric config key declares its range, and under the
repository's pytest settings a failing property test fails only itself.

perfbench/ patches qlsched attributes by name and calls package-root
functions, so a deletion under src/ that drops one of them would only
show when the benchmark runs. These checks make it show here.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

import qlsched
from qlsched import mdp
from qlsched.cluster import ClusterState, VmSpec
from qlsched.config import Bound, ExperimentPlan, LearnerConfig, ScenarioConfig
from qlsched.envs import LengthAwareView, SimulationEnv
from qlsched.policies import random_select
from qlsched.qlearn import QTable, train
from qlsched.simulate import Simulation, run_policy_simulation
from qlsched.workload import generate_workload

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
RUN_PATH = {f"qlsched.{name}" for name in ("cluster", "envs", "metrics", "policies",
                                           "qlearn", "runner", "simulate", "workload")}
# what parsing a plan may load besides the standard library and PyYAML
PARSE_PATH = {"qlsched", "qlsched.config"}


def _child(code, check=True):
    """A fresh interpreter, run on `code` from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=check)


def _modules_after(code, prelude="import qlsched"):
    """The sys.modules keys of a fresh interpreter that ran `prelude` and
    then `code` from the repository root."""
    out = _child(f"import sys\n{prelude}\n{code}\nprint(*sys.modules)")
    return set(out.stdout.split())


def _load_perfbench(name):
    """perfbench/<name>.py, loaded by path; nothing is patched."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert len(set(qlsched.__all__)) == len(qlsched.__all__)
    assert [name for name in qlsched.__all__ if not hasattr(qlsched, name)] == []


def test_benchmark_patch_targets_exist():
    tracer = _load_perfbench("tracer")
    targets = tracer.qlsched_targets(tracer.Tracer())
    assert len(targets) >= 10
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # read by the tracer's training counters and the oracle's Bellman check
    for holder, attr in ((QTable, "states"), (QTable, "visits"),
                         (mdp, "action_values")):
        assert callable(getattr(holder, attr, None)), attr


def _perfbench_root_reads():
    """Package-root names the perfbench scripts read as qlsched.X or self.q.X."""
    names = set()
    for script in PERFBENCH.glob("*.py"):
        names.update(re.findall(r"\b(?:qlsched|self\.q)\.([A-Za-z_]\w*)",
                                script.read_text(encoding="utf-8")))
    return names


def test_benchmark_package_reads_exist():
    names = _perfbench_root_reads()
    assert {"parse_config", "run_plan", "build_oracle_mdp",
            "value_iteration"} <= names
    assert [name for name in sorted(names) if not hasattr(qlsched, name)] == []


def test_every_export_is_read_through_the_root():
    # by README's Python example or by the benchmark; a name that only
    # tests import is imported from its home module instead
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    read = _perfbench_root_reads()
    for names in re.findall(r"^from qlsched import (\([^)]*\)|.*)", readme,
                            flags=re.MULTILINE):
        read.update(re.findall(r"\w+", names))
    assert sorted(set(qlsched.__all__) - read) == []


def test_benchmark_bellman_check_passes_on_solves(monkeypatch):
    # the oracle_vi workload's own check, through action_values; (3, 4, 3)
    # spans several kernel blocks
    monkeypatch.syspath_prepend(str(PERFBENCH))      # run.py imports its siblings
    run = _load_perfbench("run")
    for shape in ((2, 2, 2), (3, 4, 3)):
        model = mdp.build_oracle_mdp(*shape)
        run.bellman_check(model, mdp.value_iteration(model, tol=1e-8), 1e-8)


def test_oracle_process_loads_no_run_path_layer():
    loaded = _modules_after("qlsched.build_oracle_mdp(2, 2, 2)")
    assert "qlsched.mdp" in loaded
    assert sorted(loaded & (RUN_PATH | {"qlsched.config", "yaml"})) == []


def test_config_process_loads_no_oracle():
    loaded = _modules_after('qlsched.parse_config("configs/scenario1.yaml")')
    assert {"qlsched.config", "yaml"} <= loaded
    assert sorted(loaded & (RUN_PATH | {"numpy", "qlsched.mdp"})) == []
    # everything else a bare interpreter loads on `import yaml` (which
    # includes the start-up modules and PyYAML's extension) or the stdlib
    allowed = PARSE_PATH | _modules_after("", prelude="import yaml")
    extra = {name for name in loaded - allowed
             if name.partition(".")[0] not in sys.stdlib_module_names}
    assert sorted(extra) == []


def test_bad_plan_exits_1_before_numpy(tmp_path):
    plan = tmp_path / "plan.yaml"
    plan.write_text("spindle: 3\n")
    loaded = _modules_after("from qlsched.cli import main\n"
                            f"assert main(['run', '--config', {str(plan)!r}]) == 1")
    assert "qlsched.config" in loaded
    assert sorted(loaded & (RUN_PATH | {"numpy"})) == []


def test_registry_and_names_that_drift_apart_fail_the_import():
    # a name added to config.POLICY_NAMES without its POLICIES entry
    out = _child("import qlsched.config as config\n"
                 "config.POLICY_NAMES += ('lwl',)\n"
                 "import qlsched.policies", check=False)
    assert out.returncode == 1
    assert "RuntimeError" in out.stderr and "'lwl'" in out.stderr


def test_a_failing_hypothesis_test_fails_only_itself(tmp_path):
    # pyproject.toml turns warnings into errors; the warning hypothesis's
    # plugin raises while it reports a failure must not abort the session
    (tmp_path / "test_child.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n\n"
        "def test_passes():\n"
        "    pass\n")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


# numeric keys whose range is a cross-field rule in __post_init__
CROSS_FIELD_RANGES = {"ScenarioConfig.buffer_max"}


def test_every_numeric_config_key_declares_its_bound():
    # each int or float field, and each such list entry type, carries at
    # least one Bound in its annotation
    unbounded = set()
    for cls in (ScenarioConfig, LearnerConfig, ExperimentPlan):
        for key, hint in get_type_hints(cls, include_extras=True).items():
            if type(None) in get_args(hint):
                hint = get_args(hint)[0]
            if get_origin(hint) is list:
                hint = get_args(hint)[0]
            bounds = []
            if get_origin(hint) is Annotated:
                hint, *bounds = get_args(hint)
            if hint in (int, float) and not any(isinstance(b, Bound) for b in bounds):
                unbounded.add(f"{cls.__name__}.{key}")
    assert sorted(unbounded) == sorted(CROSS_FIELD_RANGES)


def test_exports_are_their_home_module_objects():
    listed = dir(qlsched)
    for name in qlsched.__all__:
        home = importlib.import_module(f"qlsched.{qlsched._HOME[name]}")
        value = getattr(qlsched, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert name in listed, name
        # looked up at every use, never cached, so a patch of the home
        # module shows through the package and is gone once undone
        assert name not in vars(qlsched), name


def test_patched_cluster_methods_see_every_admission_and_event(monkeypatch):
    # perfbench counts admissions and events by patching these two
    # methods on the class; a run path that bound them elsewhere (say at
    # import) would drop calls from the traced counts
    counts = {"admit": 0, "event": 0, "requeued": 0}
    admit, advance = ClusterState.admit, ClusterState.advance_to_next_event

    def counting_admit(self, task, vm_index):
        counts["admit"] += 1
        return admit(self, task, vm_index)

    def counting_advance(self):
        records, requeued = advance(self)
        counts["event"] += 1
        counts["requeued"] += len(requeued)
        return records, requeued

    monkeypatch.setattr(ClusterState, "admit", counting_admit)
    monkeypatch.setattr(ClusterState, "advance_to_next_event", counting_advance)
    scenario = ScenarioConfig(num_tasks=60, length_min=500, length_max=6000,
                              num_vms=3, vm_mips=1000, buffer_min=2,
                              buffer_max=2, num_pes=2)
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=2, pes=2)
                for i in range(3)]
    workload = generate_workload(scenario, 5, d_max=5)

    def expect_balanced(tasks):
        assert counts["requeued"] > 0
        assert counts["admit"] == tasks + counts["requeued"]
        assert counts["event"] == counts["admit"]
        counts.update(admit=0, event=0, requeued=0)

    failures = dict(slot_seconds=1.0, failure_ratio=0.3, max_attempts=10,
                    failure_seed=[7, 1])
    drained = run_policy_simulation(vm_specs, workload, random_select,
                                    policy_rng=np.random.default_rng(7),
                                    **failures)
    expect_balanced(len(workload))

    rng = np.random.default_rng(7)
    sim = Simulation(vm_specs, workload, **failures)
    while (task := sim.next_decision()) is not None:
        sim.cluster.admit(task, random_select(sim.cluster, rng))
    assert sim.records == drained
    expect_balanced(len(workload))

    env = SimulationEnv(scenario, vm_specs, LengthAwareView(2000, 3),
                        slot_seconds=1.0, failure_ratio=0.3, max_attempts=10,
                        d_max=5)
    rng = np.random.default_rng(8)
    env.reset(rng)
    env.episode(lambda reward, state, actions:
                actions[int(rng.integers(len(actions)))], rng)
    expect_balanced(scenario.num_tasks)


def test_patched_env_methods_count_every_training_decision(monkeypatch):
    # perfbench's tracer patches SimulationEnv.reset and step on the class
    # and gates env_steps == q_updates: one reset per cycle, one step per
    # Q-update, and every training admission made by a step's action
    counts = {"reset": 0, "step": 0, "admit": 0}
    reset, step, admit = SimulationEnv.reset, SimulationEnv.step, ClusterState.admit

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SimulationEnv, "reset", counting("reset", reset))
    monkeypatch.setattr(SimulationEnv, "step", counting("step", step))
    monkeypatch.setattr(ClusterState, "admit", counting("admit", admit))
    scenario = ScenarioConfig(num_tasks=30, length_min=500, length_max=6000,
                              num_vms=3, vm_mips=1000, buffer_min=2,
                              buffer_max=2, num_pes=2)
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=2, pes=2)
                for i in range(3)]
    env = SimulationEnv(scenario, vm_specs, LengthAwareView(2000, 3),
                        slot_seconds=1.0, failure_ratio=0.3, max_attempts=10,
                        d_max=5)
    result = train(env, LearnerConfig(epsilon0=0.5, total_cycles=40,
                                      repeater_threshold=10), 3)
    table = result.table
    updates = sum(table.visits(s, a) for s in table.states()
                  for a in range(table.num_actions))
    assert result.cycles_run > 1
    assert counts["reset"] == result.cycles_run
    assert counts["step"] == updates > result.cycles_run * scenario.num_tasks
    assert counts["admit"] == counts["step"]


SRC = ROOT / "src" / "qlsched"
# public names that only tests may reach; keep it empty
TEST_ONLY_ALLOWED: set = set()


def _code_references(tree):
    """(name, scope, line) for every name the code of `tree` uses: scope
    is "name" for a bare name, the enclosing class for self.X or cls.X,
    and None for any other attribute, import alias or word of a string
    that is not a docstring (perfbench patches methods by name)."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                yield child.id, "name", child.lineno
            elif isinstance(child, ast.Attribute):
                owner = getattr(child.value, "id", None)
                yield child.attr, cls if owner in ("self", "cls") else None, child.lineno
            elif isinstance(child, ast.alias):
                yield child.name.rsplit(".", 1)[-1], None, child.lineno
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and id(child) not in docstrings):
                yield from ((word, None, child.lineno) for word in child.value.split())
            yield from visit(child, child.name if isinstance(child, ast.ClassDef)
                             else cls)
    yield from visit(tree, None)


def test_no_public_function_or_method_serves_only_tests():
    # every public module-level function and public method of a public
    # class under src/ is used by code in src/ or perfbench/ outside its
    # own definition; a method counts only as X.name, or self.name in its
    # own class
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]}
    used = [(path, *ref) for path, tree in trees.items()
            for ref in _code_references(tree)]
    unused = set()
    for path in SRC.glob("*.py"):
        defs = [(None, node) for node in trees[path].body]
        defs += [(cls.name, node) for cls in trees[path].body
                 if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                 for node in cls.body]
        for cls, fn in defs:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            scopes = {None, cls} if cls else {None, "name"}
            if not any(name == fn.name and scope in scopes
                       and not (where == path and fn.lineno <= line <= fn.end_lineno)
                       for where, name, scope, line in used):
                unused.add(f"{path.stem}.{cls + '.' if cls else ''}{fn.name}")
    assert sorted(unused - TEST_ONLY_ALLOWED) == []


def _calls():
    """Every call in the code of src/ and perfbench/."""
    return [node for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def _public_callables(path, calls):
    """(label, def, positional parameters, the calls that name it) for each
    public module-level function of `path` and each public method or
    __init__ of its public classes; a method's first parameter is dropped,
    and __init__ is named by its class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = [(None, node) for node in tree.body]
    defs += [(cls.name, node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
             for node in cls.body]
    for cls, fn in defs:
        if not isinstance(fn, ast.FunctionDef) or (
                fn.name.startswith("_") and fn.name != "__init__"):
            continue
        name = cls if fn.name == "__init__" else fn.name
        matching = [call for call in calls
                    if getattr(call.func, "id", getattr(call.func, "attr", None))
                    == name]
        yield (f"{path.stem}.{cls + '.' if cls else ''}{fn.name}", fn,
               [a.arg for a in fn.args.args][1 if cls else 0:], matching)


def _omits(call, param, index):
    """Whether `call` leaves out parameter `param`, at positional `index`
    (None for a keyword-only one); a * or ** argument may leave out any."""
    keywords = [k.arg for k in call.keywords]
    if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return param not in keywords and (index is None or len(call.args) <= index)


def _passes(call, param, index, dicts):
    """Whether `call` passes parameter `param`, at positional `index` (None
    for a keyword-only one). *args passes every positional parameter, **X
    the keys of X when `dicts` names X, and any other ** every parameter."""
    if index is not None and (len(call.args) > index or any(
            isinstance(a, ast.Starred) for a in call.args)):
        return True
    for keyword in call.keywords:
        if keyword.arg is None:
            spread = getattr(keyword.value, "id", getattr(keyword.value, "attr", None))
            if spread not in dicts or param in dicts[spread]:
                return True
        elif keyword.arg == param:
            return True
    return False


def test_no_run_path_default_is_read_only_by_tests():
    # a setting's default is written once, on its schema field: each
    # parameter default of a public function or method in a run-path layer
    # under run_plan is omitted by some call in src/ or perfbench/
    calls = _calls()
    unread = []
    for module in sorted(RUN_PATH - {"qlsched.runner"}):
        path = SRC / f"{module.rpartition('.')[2]}.py"
        for label, fn, positional, matching in _public_callables(path, calls):
            defaulted = positional[len(positional) - len(fn.args.defaults):]
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs,
                                                fn.args.kw_defaults) if d]
            for param in defaulted:
                index = positional.index(param) if param in positional else None
                if not any(_omits(call, param, index) for call in matching):
                    unread.append(f"qlsched.{label}({param})")
    assert unread == []


def test_no_parameter_is_set_only_by_tests():
    # each parameter of a public function or method under src/ that a call
    # in src/ or perfbench/ names is passed by one of those calls; cli.py
    # is left out, as main's argv is the command line's seam for tests.
    # **X passes the keys of X when X is a module-level dict of
    # perfbench/plans.py (the benchmark's oracle arguments)
    plans = _load_perfbench("plans")
    dicts = {name: set(value) for name, value in vars(plans).items()
             if isinstance(value, dict) and not name.startswith("__")}
    calls = _calls()
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for label, fn, positional, matching in _public_callables(path, calls):
            for param in positional + [a.arg for a in fn.args.kwonlyargs]:
                index = positional.index(param) if param in positional else None
                if matching and not any(_passes(call, param, index, dicts)
                                        for call in matching):
                    unpassed.append(f"{label}({param})")
    assert unpassed == []
