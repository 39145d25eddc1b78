"""Golden digests: a reduced scenario1 sweep must give byte-identical CSVs.

The plan runs all six policies at failure ratios 0 and 0.1 (so failed
attempts are requeued), with 3 replications at seed 7. A refactor of the
simulator, the learner or the report writer that changes any output byte
fails here. The digests are checked in-process and once more under
``python -O``, so that no bookkeeping can hide inside ``if __debug__``.

Run ``python tests/test_golden.py OUT_DIR`` to print the current digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

from qlsched.config import parse_config
from qlsched.runner import run_plan

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

GOLDEN = {
    "runs.csv": "fe3893da2e07e8166bd6accca04edb0751d9370e826939abec91931ffd0ae0cc",
    "summary.csv": "b2c16ccef5d580084e931d84d212c68e157f454024b5b8f1deb202633039ca63",
    "convergence.csv": "ed4821e41f775675b5cfcf131ed3fd0016db16f714eee0b36baf53bb23c9c26a",
}


def golden_digests(out_dir):
    plan = parse_config(os.path.join(ROOT, "configs", "scenario1.yaml"))
    plan = replace(plan, failure_ratios=[0.0, 0.1], replications=3, seed=7)
    assert len(plan.policies) == 6
    run_plan(plan, str(out_dir))
    digests = {}
    for name in GOLDEN:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_golden_digests_in_process(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN


def test_golden_digests_under_optimize(tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", os.path.abspath(__file__), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(golden_digests(sys.argv[1])))
