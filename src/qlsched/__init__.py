"""Discrete-event cloud task scheduling with tabular Q-learning.

Simulates a cluster of single-queue virtual machines fed from a global
FCFS queue, and compares learned schedulers against random, FIFO,
load-mixing and greedy baselines. Each export is looked up in its home
module at every use (PEP 562), importing the module on the first: a
process that only builds the oracle loads no simulator, runner or YAML,
and one that only parses a plan loads no numpy.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "cluster": "ClusterState CompletionRecord VmSpec",
    "config": "ExperimentPlan LearnerConfig POLICY_NAMES ScenarioConfig parse_config",
    "envs": "encode_state reward",
    "errors": "BufferFullError CapacityError ConfigError MetricsError",
    "mdp": "OracleMdp build_oracle_mdp value_iteration",
    "metrics": "MetricsReport aggregate build_report",
    "policies": "QlearnPolicy QschAgent fifo_select greedy_select mixed_select "
                "random_select",
    "qlearn": "QTable TrainResult export_qtable select_action train update_q",
    "runner": "RunOutputs run_plan",
    "simulate": "Simulation run_policy_simulation",
    "workload": "TaskSpec generate_workload",
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
