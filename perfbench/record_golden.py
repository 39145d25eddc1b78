"""Regenerate golden.json: the outputs the benchmark holds the program to.

    python3 perfbench/record_golden.py

For each sweep workload at each seed in plans.GOLDEN_SEEDS it runs the
sweep once untraced and once traced (the two must agree) and stores the
sha256 of runs.csv, summary.csv and convergence.csv with the exact
counts; for oracle_vi it stores the model size, the number of
value-iteration sweeps and the digest of the greedy policy. Run it only
when a change is meant to alter behaviour, and say so in the change.
"""

import json
import shutil
import sys

import plans
import run


def main() -> int:
    qlsched = run.import_qlsched()
    golden = {}
    for workload in plans.WORKLOADS:
        seeds = plans.GOLDEN_SEEDS.get(workload, (0,))
        for seed in seeds:
            work_dir = run.OUT / f"golden-{workload}-{seed}"
            work_dir.mkdir(parents=True, exist_ok=True)
            try:
                bench = run.make_bench(qlsched, workload, seed, work_dir,
                                       None if workload == "oracle_vi" else {})
                bench.rep(0)
                bench.traced_rep(1)
                record = bench.record()
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if workload == "oracle_vi":
                golden[workload] = record
            else:
                golden.setdefault(workload, {})[str(seed)] = record
            print(f"{workload} seed {seed}: {record}", file=sys.stderr)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
