"""Command line entry point.

    qlsched run --config configs/scenario1.yaml --out results/

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback
from dataclasses import fields, replace

from .config import ExperimentPlan, parse_config
from .errors import ConfigError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlsched",
                                     description="Task scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute an experiment plan")
    run.add_argument("--config", required=True, help="YAML plan file")
    run.add_argument("--policy", action="append", dest="policies", metavar="POLICY",
                     help="restrict to a policy (repeatable)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--replications", type=int, default=None)
    run.add_argument("--out", default=None, dest="out_dir", help="output directory")
    run.add_argument("--failure-ratio", type=float, nargs=1, default=None,
                     dest="failure_ratios", metavar="RATIO",
                     help="override failure ratios with a single value")
    run.add_argument("--range", type=int, default=None, dest="range_mi",
                     help="task length class width in MI")
    run.add_argument("--gamma", type=float, default=None)
    run.add_argument("--epsilon0", type=float, default=None)
    run.add_argument("--repeater-max", type=int, default=None,
                     dest="repeater_threshold",
                     help="training cycle cap: a run not stopped as stable "
                          "stops (reason budget) after this many + 2 cycles")
    run.add_argument("-v", "--verbose", action="store_true")
    return parser


def plan_from_args(args) -> ExperimentPlan:
    """The config file's plan with every given flag applied; each flag's
    dest is the name of the plan or learner field it overrides."""
    plan = parse_config(args.config)
    given = {k: v for k, v in vars(args).items() if v is not None}
    learner = {f.name: given[f.name] for f in fields(plan.learner) if f.name in given}
    updates = {f.name: given[f.name] for f in fields(plan) if f.name in given}
    return replace(plan, learner=replace(plan.learner, **learner), **updates)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        plan = plan_from_args(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    from .runner import run_plan  # numpy and the simulator load here
    try:
        outputs = run_plan(plan)
    except ConfigError as exc:    # an out_dir at or under a file
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if args.verbose:
            traceback.print_exc()
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    dest = plan.out_dir or "(not written, no --out)"
    print(f"completed {len(outputs.runs)} runs over "
          f"{len(outputs.summary)} policy/point combinations; results: {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
