"""The names the package exports and the benchmark reaches must exist,
and a process loads only the layers it runs.

perfbench/ patches qlsched attributes by name and calls package-root
functions, so a deletion under src/ that drops one of them would only
show when the benchmark runs. These checks make it show here.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import qlsched
from qlsched import mdp
from qlsched.qlearn import QTable

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
RUN_PATH = {f"qlsched.{name}" for name in ("cluster", "envs", "metrics", "policies",
                                           "qlearn", "runner", "simulate", "workload")}


def _modules_after(code):
    """The sys.modules keys of a fresh interpreter that imported qlsched
    and then ran `code` from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\nimport qlsched\n{code}\nprint(*sys.modules)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
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


def test_benchmark_package_reads_exist():
    # package-root names the perfbench scripts read as qlsched.X or self.q.X
    names = set()
    for script in PERFBENCH.glob("*.py"):
        names.update(re.findall(r"\b(?:qlsched|self\.q)\.([A-Za-z_]\w*)",
                                script.read_text(encoding="utf-8")))
    assert {"parse_config", "run_plan", "build_oracle_mdp",
            "value_iteration"} <= names
    assert [name for name in sorted(names) if not hasattr(qlsched, name)] == []


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
    assert sorted(loaded & (RUN_PATH | {"yaml"})) == []


def test_config_process_loads_no_oracle():
    loaded = _modules_after('qlsched.parse_config("configs/scenario1.yaml")')
    assert {"qlsched.runner", "yaml"} <= loaded
    assert "qlsched.mdp" not in loaded


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
