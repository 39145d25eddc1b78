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

# The longest makespan a report accepts, 2^32 s (about 136 years): below
# it a double's spacing is at most 2^-20 s, finer than the CSVs' six
# decimals.
MAX_SPAN_S = 2.0**32


class MetricsError(ValueError):
    """Metric requested on an empty or inconsistent record set."""


def completed(records):
    return [r for r in records if not r.aborted]


def _mean(values) -> float:
    """np.mean of a non-empty list of floats, bit for bit: the same
    pairwise sum and one division, without np.mean's wrappers."""
    return float(np.add.reduce(values)) / len(values)


def _mean_wait(done) -> float:
    """Mean buffer stall, finish - submit - exec, over non-empty `done`."""
    return _mean([r.finish_time - r.submit_time - r.exec_time for r in done])


@dataclass
class MetricsReport:
    avg_response_s: float
    avg_wait_s: float
    makespan_s: float
    utilization: list
    load_share: list
    abort_count: int


def build_report(records, vm_specs) -> MetricsReport:
    """The per-run report over the completed records.

    utilization_k = (sum of exec times finished on k) / (makespan * PEs_k);
    load_share_k = executed MI on k / executed MI everywhere. A makespan
    of MAX_SPAN_S or more, inf or NaN (a slot length or VM speed the
    schema accepts but a float cannot time to the microsecond) raises
    before any metric is computed.
    """
    done = completed(records)
    if not done:
        raise MetricsError("cannot report on a run with no completed tasks")
    span = float(max(r.finish_time for r in done))
    if not span < MAX_SPAN_S:
        raise MetricsError(f"the makespan is {span} s, not below MAX_SPAN_S "
                           "(2^32 s), the longest a float times to the "
                           "microsecond (check slot_seconds and vm_mips)")
    k = len(vm_specs)
    mips = [s.mips for s in vm_specs]
    busy = [0.0] * k
    length = [0.0] * k
    for r in done:
        vi = r.vm_index
        busy[vi] += r.exec_time
        length[vi] += r.exec_time * mips[vi]
    length = np.array(length)
    pes = np.array([s.pes for s in vm_specs], dtype=float)
    return MetricsReport(
        avg_response_s=_mean([r.finish_time - r.submit_time for r in done]),
        avg_wait_s=_mean_wait(done),
        makespan_s=span,
        utilization=(np.array(busy) / (span * pes)).tolist(),
        load_share=(length / length.sum()).tolist(),
        abort_count=len(records) - len(done),
    )


def aggregate(reports):
    """Sample mean and sd of the per-run metrics that summary.csv writes.

    Returns (mean, sd), dicts keyed by MetricsReport field name: the
    mean of response, wait, makespan and aborts, the sd of the first
    three. The sd uses the n-1 denominator and is zero for one report.
    """
    if not reports:
        raise MetricsError("nothing to aggregate")
    mean, sd = {}, {}
    for name in ("avg_response_s", "avg_wait_s", "makespan_s"):
        values = [getattr(r, name) for r in reports]
        mean[name] = _mean(values)
        sd[name] = float(np.std(values, ddof=1)) if len(reports) > 1 else 0.0
    mean["abort_count"] = _mean([float(r.abort_count) for r in reports])
    return mean, sd
