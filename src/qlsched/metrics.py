"""Run metrics: response and waiting times, makespan, utilization, load.

All time metrics are over completed tasks only; aborted attempts are
counted separately. Response time runs from a task's (final) admission
to a VM buffer until its completion, waiting time subtracts the
execution time, and the makespan is the latest completion with the
simulation origin at time 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricsError


def completed(records):
    return [r for r in records if not r.aborted]


# The private helpers take the completed records, already checked to be
# non-empty, so build_report filters and checks once; each public
# function filters and checks, then calls its helper.

def _require_done(records, message: str):
    done = completed(records)
    if not done:
        raise MetricsError(message)
    return done


def _mean(values) -> float:
    """np.mean of a non-empty list of floats, bit for bit: the same
    pairwise sum and one division, without np.mean's wrappers."""
    return float(np.add.reduce(values)) / len(values)


def _mean_response(done) -> float:
    return _mean([r.finish_time - r.submit_time for r in done])


def _mean_wait(done) -> float:
    return _mean([r.finish_time - r.submit_time - r.exec_time for r in done])


def _makespan(done) -> float:
    return float(max(r.finish_time for r in done))


def _utilization_and_load(done, horizon: float, vm_specs, span):
    """utilization_and_load over completed records whose makespan is
    `span` (None when nothing completed)."""
    if horizon <= 0:
        raise MetricsError("horizon must be > 0")
    if span is not None and horizon < span - 1e-9:
        raise MetricsError("horizon shorter than the makespan")
    k = len(vm_specs)
    mips = [s.mips for s in vm_specs]
    busy = [0.0] * k
    length = [0.0] * k
    for r in done:
        vi = r.vm_index
        busy[vi] += r.exec_time
        length[vi] += r.exec_time * mips[vi]
    busy = np.array(busy)
    length = np.array(length)
    pes = np.array([s.pes for s in vm_specs], dtype=float)
    util = busy / (horizon * pes)
    total = length.sum()
    share = length / total if total > 0 else np.zeros(k)
    return util.tolist(), share.tolist()


def avg_response_time(records) -> float:
    """Mean of finish - submit over completed records."""
    return _mean_response(_require_done(records, "no completed tasks to average over"))


def avg_waiting_time(records) -> float:
    """Mean buffer stall: finish - submit - exec over completed records."""
    return _mean_wait(_require_done(records, "no completed tasks to average over"))


def makespan(records) -> float:
    return _makespan(_require_done(records, "no completed tasks"))


def utilization_and_load(records, horizon: float, vm_specs):
    """Per-VM busy fraction and executed-length share.

    utilization_k = (sum of exec times finished on k) / (horizon * PEs_k);
    load_share_k = executed MI on k / executed MI everywhere (all zeros
    when nothing completed). horizon must cover the makespan.
    """
    done = completed(records)
    span = _makespan(done) if done else None
    return _utilization_and_load(done, horizon, vm_specs, span)


@dataclass
class MetricsReport:
    avg_response_s: float
    avg_wait_s: float
    makespan_s: float
    utilization: list
    load_share: list
    task_count: int
    abort_count: int


def build_report(records, vm_specs, horizon: float | None = None) -> MetricsReport:
    """Assemble the full per-run report; horizon defaults to the makespan."""
    done = _require_done(records, "cannot report on a run with no completed tasks")
    span = _makespan(done)
    util, share = _utilization_and_load(
        done, span if horizon is None else horizon, vm_specs, span)
    return MetricsReport(
        avg_response_s=_mean_response(done),
        avg_wait_s=_mean_wait(done),
        makespan_s=span,
        utilization=util,
        load_share=share,
        task_count=len(done),
        abort_count=len(records) - len(done),
    )


def aggregate(reports):
    """Element-wise sample mean and sd over reports.

    Returns (mean_report, sd_report); the sd uses the n-1 denominator and
    is zero for a single report.
    """
    if not reports:
        raise MetricsError("nothing to aggregate")
    n = len(reports)

    def stats(values):
        arr = np.asarray(values, dtype=float)
        mean = arr.mean(axis=0)
        sd = arr.std(axis=0, ddof=1) if n > 1 else np.zeros_like(mean)
        return mean, sd

    fields = {}
    for name in ("avg_response_s", "avg_wait_s", "makespan_s", "task_count",
                 "abort_count"):
        fields[name] = stats([getattr(r, name) for r in reports])
    for name in ("utilization", "load_share"):
        fields[name] = stats([getattr(r, name) for r in reports])

    def pick(which):
        return MetricsReport(
            avg_response_s=float(fields["avg_response_s"][which]),
            avg_wait_s=float(fields["avg_wait_s"][which]),
            makespan_s=float(fields["makespan_s"][which]),
            utilization=fields["utilization"][which].tolist(),
            load_share=fields["load_share"][which].tolist(),
            task_count=float(fields["task_count"][which]),
            abort_count=float(fields["abort_count"][which]),
        )

    return pick(0), pick(1)
