"""Command line entry point.

    qlsched run --config configs/scenario1.yaml --set seed=4 --out results/

Exit codes: 0 success, 1 bad plan, override or command line, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback

from .config import parse_config
from .errors import ConfigError


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qlsched", description="Task scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute an experiment plan")
    run.add_argument("--config", required=True, help="YAML plan file")
    run.add_argument("--set", action="append", default=[], dest="overrides",
                     metavar="KEY=VALUE", help="set a plan key, e.g. "
                     "learner.gamma=0.8; VALUE is read as YAML (repeatable)")
    run.add_argument("--out", default=None, dest="out_dir", help="output directory")
    run.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        plan = parse_config(args.config, args.overrides)
        from .runner import run_plan  # numpy and the simulator load here
        outputs = run_plan(plan, args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if getattr(args, "verbose", False):
            traceback.print_exc()
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    dest = args.out_dir or "(not written, no --out)"
    print(f"completed {len(outputs.runs)} runs over "
          f"{len(outputs.summary)} policy/point combinations; results: {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
