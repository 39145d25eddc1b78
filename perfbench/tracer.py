"""In-memory span tracer around qlsched's public entry points.

The tracer replaces module and class attributes of qlsched with thin
wrappers for the duration of a `with tracer.installed():` block and puts
the originals back afterwards, so nothing under src/ is edited. Each
wrapped call records one span (name, start, end, parent span). Spans are
kept in flat arrays and only written out when the benchmark ends; the
per-name totals and self times (duration minus the time covered by child
spans) are accumulated as the spans close.
"""

from __future__ import annotations

import contextlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span id, time covered by children]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return nid

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(result, args) may add counts."""
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch (owner, attribute, span name, on_result) targets in place.

        A method is patched on its class. A module-level function is
        patched wherever a qlsched module holds it, so that callers which
        imported it by name see the wrapper too.
        """
        saved = []
        try:
            for owner, attr, name, on_result in targets:
                orig = getattr(owner, attr)
                traced = self.wrap(name, orig, on_result)
                holders = [(owner, attr)]
                if isinstance(owner, types.ModuleType):
                    holders = [(mod, key) for mod in _qlsched_modules()
                               for key, value in vars(mod).items() if value is orig]
                for holder, key in holders:
                    saved.append((holder, key, orig))
                    setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, orig in reversed(saved):
                setattr(holder, key, orig)

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every closed span with this name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        sel = names == nid
        return end[sel] - start[sel]

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


def _qlsched_modules():
    return [mod for name, mod in list(sys.modules.items())
            if (name == "qlsched" or name.startswith("qlsched."))
            and isinstance(mod, types.ModuleType)]


def qlsched_targets(tracer: Tracer):
    """The entry points a sweep passes through, with their counters."""
    from qlsched import (cluster, envs, metrics, policies, qlearn, simulate,
                         workload)

    def on_workload(tasks, args):
        tracer.count("workload.tasks", len(tasks))

    def on_advance(result, args):
        records, requeued = result
        if records or requeued:
            tracer.count("cluster.events")
        tracer.count("cluster.requeues", len(requeued))
        tracer.count("cluster.aborts", sum(1 for r in records if r.aborted))

    def on_train(result, args):
        table = result.table
        tracer.count("qlearn.updates",
                     sum(table.visits(s, a) for s in table.states()
                         for a in range(table.num_actions)))
        tracer.count("qlearn.cycles_run", result.cycles_run)
        tracer.count("qlearn.cycles_budget", args[1].total_cycles)
        tracer.count("qlearn.states_seen", len(table))
        tracer.count("qlearn.stop_stable", int(result.stop_reason == "stable"))
        tracer.count("qlearn.trainings")

    targets = [
        (workload, "generate_workload", "workload.generate", on_workload),
        (qlearn, "train", "qlearn.train", on_train),
        (envs.SimulationEnv, "reset", "envs.reset", None),
        (envs.SimulationEnv, "step", "envs.step", None),
        (simulate, "run_policy_simulation", "simulate.eval_run", None),
        (cluster.ClusterState, "admit", "cluster.admit", None),
        (cluster.ClusterState, "advance_to_next_event", "cluster.advance",
         on_advance),
        (metrics, "build_report", "metrics.report", None),
        (metrics, "aggregate", "metrics.report", None),
        (policies.QschAgent, "select", "policies.select", None),
        (policies.QlearnPolicy, "__call__", "policies.select", None),
    ]
    for fn in ("random_select", "fifo_select", "mixed_select", "greedy_select"):
        targets.append((policies, fn, "policies.select", None))
    return targets
