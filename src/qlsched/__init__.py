"""Discrete-event cloud task scheduling with tabular Q-learning.

Simulates a cluster of single-queue virtual machines fed from a global
FCFS queue, and compares learned schedulers against random, FIFO,
load-mixing and greedy baselines. The package root exports what is read
through it: parse_config and run_plan (a run), build_oracle_mdp and
value_iteration (the oracle) and POLICY_NAMES; everything else is
imported from its module. Each export is looked up in its home module at
every use (PEP 562), importing the module on the first: a process that
only builds the oracle loads no simulator, runner or YAML, and one that
only parses a plan loads no numpy.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "config": "POLICY_NAMES parse_config",
    "mdp": "build_oracle_mdp value_iteration",
    "runner": "run_plan",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    return getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)


def __dir__():
    return sorted([*globals(), *__all__])
