"""Discrete-event cloud task scheduling with tabular Q-learning.

Simulates a cluster of single-queue virtual machines fed from a global
FCFS queue, and compares learned schedulers against random, FIFO,
load-mixing and greedy baselines.
"""

from .cluster import ClusterState, CompletionRecord, VmSpec
from .errors import BufferFullError, CapacityError, ConfigError, MetricsError
from .mdp import (OracleMdp, build_oracle_mdp, encode_state, reward,
                  value_iteration)
from .metrics import MetricsReport, aggregate, build_report
from .policies import (POLICY_NAMES, QlearnPolicy, QschAgent, fifo_select,
                       greedy_select, mixed_select, random_select)
from .qlearn import (LearnerConfig, QTable, TrainResult, export_qtable,
                     select_action, train, update_q)
from .runner import ExperimentPlan, RunOutputs, parse_config, run_plan
from .simulate import Simulation, run_policy_simulation
from .workload import ScenarioConfig, TaskSpec, generate_workload

__version__ = "0.1.0"

__all__ = [
    "BufferFullError", "CapacityError", "ClusterState", "CompletionRecord",
    "ConfigError", "ExperimentPlan", "LearnerConfig", "MetricsError",
    "MetricsReport", "OracleMdp", "POLICY_NAMES",
    "QTable", "QlearnPolicy", "QschAgent", "RunOutputs", "ScenarioConfig",
    "Simulation", "TaskSpec", "TrainResult", "VmSpec", "aggregate",
    "build_oracle_mdp", "build_report", "encode_state",
    "export_qtable", "fifo_select", "generate_workload", "greedy_select",
    "mixed_select", "parse_config", "random_select", "reward", "run_plan",
    "run_policy_simulation", "select_action", "train", "update_q",
    "value_iteration",
]
