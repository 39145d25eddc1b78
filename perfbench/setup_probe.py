"""One set-up of a workload in a fresh interpreter, timed by run.py.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD [PLAN_YAML]

Imports qlsched from SRC_DIR, then does what comes before the first
unit of work: parse the plan for a sweep, build the oracle MDP for
oracle_vi. Prints nothing; a failure shows as a non-zero exit.
"""

import sys


def main(argv):
    src, workload = argv[0], argv[1]
    sys.path.insert(0, src)
    import qlsched

    if workload == "oracle_vi":
        from plans import ORACLE

        qlsched.build_oracle_mdp(**ORACLE)
    else:
        qlsched.parse_config(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
