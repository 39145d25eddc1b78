"""The names the package exports and the benchmark reaches must exist.

perfbench/ patches qlsched attributes by name and calls package-root
functions, so a deletion under src/ that drops one of them would only
show when the benchmark runs. These checks make it show here.
"""

import importlib.util
import re
from pathlib import Path

import qlsched
from qlsched import mdp
from qlsched.qlearn import QTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    """perfbench/tracer.py, loaded by path; nothing is patched."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert len(set(qlsched.__all__)) == len(qlsched.__all__)
    assert [name for name in qlsched.__all__ if not hasattr(qlsched, name)] == []


def test_benchmark_patch_targets_exist():
    tracer = _load_tracer()
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
