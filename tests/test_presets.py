"""Preset digests: the four shipped presets must write byte-identical files.

Each preset in configs/ runs in-process exactly as ``qlsched run --config
configs/<name>.yaml --out DIR`` would, and the sha256 of every file it
writes (runs, summary, convergence and each q-table, 40 in all) must
match. A change anywhere in the run path that moves one output byte, or
adds or drops an output file, fails here.

Run ``python tests/test_presets.py OUT_DIR`` to print the current digests.
"""

import hashlib
import json
import os
import sys

import pytest

from qlsched.config import parse_config
from qlsched.runner import run_plan

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

GOLDEN = {
    "buffer_sweep": {
        "convergence.csv": "3f4a6d53141e7e71972392febe24f7fd77c73f8e5aa83bfadd40ea25369fff1e",
        "qtable_qlearn_t40_b10_f0.csv": "0bfae11790d03fc070663ccb2baddcbc33805b18c246bc94b91fb9663291371b",
        "qtable_qlearn_t40_b15_f0.csv": "bc4b0499d178881024559ae95966cc1534f2d810f5e5aa3ce2f02b843b25c6a0",
        "qtable_qlearn_t40_b5_f0.csv": "c8e998d29f724f61fb7056be5497a94576e758a24ed8491b4420aa3a040ddc28",
        "runs.csv": "ea445df4d13fb01dc41b408302537c076aa57e0caed4dff4adf81b8832efed2f",
        "summary.csv": "247a86a34fe9a8c9c0f4b542c677c4f8d508858c3b116af358254ce7f6ee4002",
    },
    "failure_sweep": {
        "convergence.csv": "c961633d77fa827874007a65f444e3a2ea3eb8907fb917bf28a5a52ae50b4398",
        "qtable_qlearn_t100_b25_f0.1.csv": "c3ee323b5ca946d6687c2d078fd73473f95742587f1be792f03bbe970e5d1b24",
        "qtable_qlearn_t100_b25_f0.2.csv": "9f99d3b6eb937ddc7911f850c1f319affc1c750368346608112b93faf0cd7585",
        "qtable_qlearn_t100_b25_f0.csv": "380c1064789fabae95662ac85ae52a48ada44e0a7c186b9e1264e0a693983147",
        "runs.csv": "60c5688c0ac25ac481d4facb40115bcdcb4b353857c29ba62083d8788b5825d7",
        "summary.csv": "0ea362420a34029749c9371608477f9c6f4460b3ddb817a70479161c5493205f",
    },
    "scenario1": {
        "convergence.csv": "fd3b0312f560ced397b70a665566a1f585d70ffdada092051e6aaaab0da1b5ac",
        "qtable_qlearn_t10_b10_f0.csv": "9fe10d7dc138e176e92924c3727ecba5d985b6731640962ea7ffac0e3ef4ddc3",
        "qtable_qlearn_t12_b10_f0.csv": "4a24448a60085b33c1ba29058d5f8e6e396977fe4c872d2d4cf1f6657553e4d6",
        "qtable_qlearn_t14_b10_f0.csv": "eefc0f128131ff97f678c7aa33ee5aae8885fe89ffb50d2f21266a38a3b3f939",
        "qtable_qlearn_t16_b10_f0.csv": "3b7f899b0a8a2b69d78cb9706c61da403b9af45456444e799b9d9f3d8c204437",
        "qtable_qlearn_t18_b10_f0.csv": "47d7211b89afb52f3d883d7e0e56d37c0a65cde178396c452e4764c908b2433e",
        "qtable_qlearn_t20_b10_f0.csv": "2f8e2c32b7c66fc2aecf329b37a28138a52faa026c6780d20f12a0949dff0230",
        "qtable_qsch_t10_b10_f0.csv": "f1aeee3f1de9e2a3667046835b8cd1e97bfdc4c82a39a29150ac0701d9f5fc55",
        "qtable_qsch_t12_b10_f0.csv": "97bf5b4610b5c87258913ad01d4ca7d574ba8a0eecdf24929d6ea2632c2daccc",
        "qtable_qsch_t14_b10_f0.csv": "7d446a30ae7754fb41e9313e17c38b2c60de76222fdcd0193937f2a7a88837dc",
        "qtable_qsch_t16_b10_f0.csv": "e6bf1ee0e8cb437a30d990396daea39427ea86b4eb48571c9329f56ab13b5f3c",
        "qtable_qsch_t18_b10_f0.csv": "d04e57eefc5f256f4047b27ba060235067db93e79fa9e356e79b8192c6ebfc39",
        "qtable_qsch_t20_b10_f0.csv": "4288355289e597691ec924df2b595eb8756953ee11eae921f1efc542d23e8eba",
        "runs.csv": "3c1b40209b22ab05cb37dd5393a22cb0ed79514466d1e599ed31569775d03661",
        "summary.csv": "40cdc7d819da48975ca264342d36128a97717d8a0d59dc4845d5703886657557",
    },
    "scenario2": {
        "convergence.csv": "e13f9fd79f60b840b3d22ce6e5b3c33bf50f1fd794374126c70703f08a901d66",
        "qtable_qlearn_t100_b25_f0.csv": "5c0941f781ed07a053f92a3bd88d903bf86ba27dd0a1a92f1accfa7087c1abe0",
        "qtable_qlearn_t20_b25_f0.csv": "f5e63da645d56cf796458283dd61f712cfb47ca87708f9fc007c4b1710007ceb",
        "qtable_qlearn_t40_b25_f0.csv": "5046fc48a15bcc34601e6a58ef00bf35e2ea2984d67c2495016a7cbc2ddb022a",
        "qtable_qlearn_t60_b25_f0.csv": "5efb2bca2d1cca0052b501199056c8e4efe688eb961de11c037e90fc237971de",
        "qtable_qlearn_t80_b25_f0.csv": "eaa937b1c726c548e9cacc8eab98e320066c0dbb34d75f09920e2321a37e1b6b",
        "qtable_qsch_t100_b25_f0.csv": "b94267130a7f94fd57d468dbce6a1ef6fb21af5860f2750b0a22c828db105f32",
        "qtable_qsch_t20_b25_f0.csv": "d27e89dce4ffb37dc3dce8145681fdebaa01ffa461c9e3de396764a7c6f52697",
        "qtable_qsch_t40_b25_f0.csv": "dd0717cca5322067b3b36122a15c38b3fb381cf1346698f2ed2dbe28c37ef74b",
        "qtable_qsch_t60_b25_f0.csv": "3cb63ba7fb440b0a658a82c34530b1e919a17eb66ee352be68d011bbb2d83d8a",
        "qtable_qsch_t80_b25_f0.csv": "0ce29f7e7f3d78438344fe23f2444c4ffe23dd85fcf13eb65366966e8449252a",
        "runs.csv": "3fadb670dfa678cbde4497fb998a35137bd36bfabecd0aaf58c225858b8662fd",
        "summary.csv": "e3212ec363a3ad8c8c7145c47e95678f208b43c6f4f961657e7493500b602187",
    },
}


def preset_digests(preset, out_dir):
    """sha256 of every file the preset writes into out_dir, by file name."""
    run_plan(parse_config(os.path.join(ROOT, "configs", f"{preset}.yaml")),
             str(out_dir))
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_every_shipped_preset_is_pinned():
    shipped = sorted(f[:-len(".yaml")] for f in os.listdir(os.path.join(ROOT, "configs"))
                     if f.endswith(".yaml"))
    assert shipped == sorted(GOLDEN)
    assert sum(map(len, GOLDEN.values())) == 40


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_outputs_are_byte_identical(preset, tmp_path):
    assert preset_digests(preset, tmp_path) == GOLDEN[preset]


if __name__ == "__main__":
    out = sys.argv[1]
    print(json.dumps({p: preset_digests(p, os.path.join(out, p)) for p in sorted(GOLDEN)},
                     indent=4))
