"""Response, waiting, makespan, utilization and report aggregation."""

import numpy as np
import pytest

from qlsched import metrics
from qlsched.cluster import CompletionRecord, VmSpec
from qlsched.metrics import MetricsError, aggregate, build_report
from qlsched.policies import fifo_select, random_select
from qlsched.simulate import run_policy_simulation
from qlsched.workload import TaskSpec


def rec(tid, submit, finish, exec_time, vm=0, aborted=False):
    return CompletionRecord(task_id=tid, submit_time=submit, finish_time=finish,
                            exec_time=exec_time, vm_index=vm, attempts=1,
                            aborted=aborted)


def specs(*caps, mips=1000.0, pes=1):
    return [VmSpec(mips=mips, buffer_capacity=c, pes=pes)
            for i, c in enumerate(caps)]


def two_task_records():
    """One VM at 1000 MIPS serving 1000 and 2000 MI back to back."""
    workload = [TaskSpec(0, 0, 1000), TaskSpec(1, 0, 2000)]
    return run_policy_simulation(specs(5), workload, fifo_select, slot_seconds=1.0,
                                 failure_ratio=0.0, max_attempts=10,
                                 policy_rng=None, failure_seed=None)


# -- time metrics ----------------------------------------------------------------

def report_of(records, vm_specs=None):
    return build_report(records, vm_specs or specs(5, 5))


def test_hand_trace_response():
    # responses are 1s and 3s from a shared t=0 admission
    assert report_of(two_task_records()).avg_response_s == 2.0


def test_hand_trace_waiting():
    # first task never waits, second waits 1s behind it
    assert report_of(two_task_records()).avg_wait_s == 0.5


def test_hand_trace_makespan():
    assert report_of(two_task_records()).makespan_s == 3.0


def test_single_record_response():
    assert report_of([rec(0, 0.0, 7.0, 7.0)]).avg_response_s == 7.0


def test_immediate_service_waits_zero():
    assert report_of([rec(0, 2.0, 5.0, 3.0)]).avg_wait_s == 0.0


def test_makespan_latest_completion():
    records = [rec(0, 0.0, 5.0, 5.0), rec(1, 0.0, 9.0, 4.0, vm=1),
               rec(2, 0.0, 7.0, 2.0)]
    assert report_of(records).makespan_s == 9.0
    assert report_of(records[::-1]).makespan_s == 9.0


def test_mean_is_np_mean_bit_for_bit():
    # lengths cross the pairwise-summation block edges (8, 128)
    rng = np.random.default_rng(5)
    lengths = [1, 2, 7, 8, 9, 127, 128, 129, 256, 257, 300]
    lengths += [int(x) for x in rng.integers(1, 301, size=60)]
    for n in lengths:
        for scale in ("unit", "signed", "mixed"):
            if scale == "unit":
                values = rng.random(n)
            elif scale == "signed":
                values = rng.normal(0.0, 1.0, n)
            else:
                values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 13, n)
            values = values.tolist()
            assert metrics._mean(values).hex() == float(np.mean(values)).hex()


def test_empty_records_raise():
    with pytest.raises(MetricsError):
        report_of([])


def test_aborted_records_do_not_count():
    records = [rec(0, 0.0, 4.0, 4.0), rec(1, 0.0, 99.0, 0.0, aborted=True)]
    r = report_of(records)
    assert (r.avg_response_s, r.makespan_s, r.abort_count) == (4.0, 4.0, 1)
    with pytest.raises(MetricsError):
        report_of([rec(0, 0.0, 99.0, 0.0, aborted=True)])


# -- utilization and load: over the makespan ------------------------------------------

def test_busy_half_the_horizon():
    # the makespan is 100 s; VM 0 works for 50 of them, VM 1 for all
    r = report_of([rec(0, 0.0, 50.0, 50.0), rec(1, 0.0, 100.0, 100.0, vm=1)])
    assert r.utilization == [0.5, 1.0]
    assert r.load_share == pytest.approx([1 / 3, 2 / 3])


def test_multi_pe_divides_capacity():
    r = report_of([rec(0, 0.0, 50.0, 50.0)], specs(5, mips=1000.0, pes=2))
    assert r.utilization == [0.5]


def test_idle_cluster_all_zero():
    # every VM but the one that ran the task is idle
    r = report_of([rec(0, 0.0, 10.0, 10.0, vm=1)], specs(5, 5, 5))
    assert r.utilization == [0.0, 1.0, 0.0]
    assert r.load_share == [0.0, 1.0, 0.0]


def test_load_share_weights_by_mips():
    vm_specs = [VmSpec(mips=1000.0, buffer_capacity=5),
                VmSpec(mips=3000.0, buffer_capacity=5)]
    # equal busy seconds, but VM 1 ground through 3x the instructions
    records = [rec(0, 0.0, 10.0, 10.0, vm=0), rec(1, 0.0, 10.0, 10.0, vm=1)]
    assert report_of(records, vm_specs).load_share == pytest.approx([0.25, 0.75])


def test_load_share_normalized_random_records():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        vm_specs = specs(*([5] * k), mips=float(rng.integers(500, 3000)))
        records = []
        for tid in range(int(rng.integers(1, 12))):
            e = float(rng.uniform(0.1, 20.0))
            records.append(rec(tid, 0.0, e, e, vm=int(rng.integers(k)),
                               aborted=bool(rng.random() < 0.2)))
        if all(r.aborted for r in records):
            with pytest.raises(MetricsError):
                report_of(records, vm_specs)
            continue
        r = report_of(records, vm_specs)
        assert all(u >= 0.0 for u in r.utilization)
        assert all(s >= 0.0 for s in r.load_share)
        assert sum(r.load_share) == pytest.approx(1.0, abs=1e-9)


# -- reports ----------------------------------------------------------------------

def test_build_report_defaults_horizon_to_makespan():
    report = build_report(two_task_records(), specs(5))
    assert report.makespan_s == 3.0
    assert report.utilization == [1.0]  # the lone VM never idles
    assert report.abort_count == 0


def test_build_report_counts_aborts():
    records = two_task_records() + [rec(9, 0.0, 1.0, 0.0, aborted=True)]
    report = build_report(records, specs(5))
    assert report.abort_count == 1


def test_build_report_needs_a_completion():
    with pytest.raises(MetricsError):
        build_report([rec(0, 0.0, 1.0, 0.0, aborted=True)], specs(5))


def test_report_invariants_on_random_runs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        vm_specs = specs(*[int(rng.integers(1, 4)) for _ in range(k)])
        workload = [TaskSpec(i, int(rng.integers(0, 5)),
                             int(rng.integers(200, 8000)))
                    for i in range(int(rng.integers(1, 12)))]
        records = run_policy_simulation(vm_specs, workload, random_select,
                                        slot_seconds=1.0, failure_ratio=0.0,
                                        max_attempts=10, policy_rng=rng,
                                        failure_seed=None)
        report = build_report(records, vm_specs)
        done = [r for r in records if not r.aborted]
        waits = [r.finish_time - r.submit_time - r.exec_time for r in done]
        assert min(waits) >= -1e-9  # waiting can never go negative
        assert report.avg_response_s >= report.avg_wait_s >= -1e-9
        assert report.makespan_s >= report.avg_response_s - 1e-9
        assert sum(report.load_share) == pytest.approx(1.0, abs=1e-9)
        mean_exec = float(np.mean([r.exec_time for r in done]))
        assert report.avg_response_s == pytest.approx(
            report.avg_wait_s + mean_exec)


def test_doubling_mips_halves_every_time_metric():
    rng = np.random.default_rng(2)
    workload = [TaskSpec(i, 0, int(rng.integers(500, 50_000)))
                for i in range(15)]
    reports = []
    for mips in (1000.0, 2000.0):
        vm_specs = specs(3, 3, mips=mips)
        records = run_policy_simulation(vm_specs, workload, fifo_select,
                                        slot_seconds=1.0, failure_ratio=0.0,
                                        max_attempts=10, policy_rng=None,
                                        failure_seed=None)
        reports.append(build_report(records, vm_specs))
    fast, slow = reports[1], reports[0]
    assert fast.avg_response_s == pytest.approx(slow.avg_response_s / 2)
    assert fast.avg_wait_s == pytest.approx(slow.avg_wait_s / 2)
    assert fast.makespan_s == pytest.approx(slow.makespan_s / 2)


# -- aggregation ------------------------------------------------------------------

def report_with(makespan_s, response=5.0):
    return build_report([rec(0, 0.0, response, response),
                         rec(1, 0.0, makespan_s, makespan_s, vm=1)], specs(5, 5))


def test_aggregate_mean_and_sd():
    mean, sd = aggregate([report_with(10.0), report_with(14.0)])
    assert mean["makespan_s"] == 12.0
    assert sd["makespan_s"] == pytest.approx(np.std([10.0, 14.0], ddof=1))
    assert sd["makespan_s"] == pytest.approx(2.8284271247461903)


def test_aggregate_single_report_sd_zero():
    mean, sd = aggregate([report_with(10.0)])
    assert mean["makespan_s"] == 10.0
    assert sd == {"avg_response_s": 0.0, "avg_wait_s": 0.0, "makespan_s": 0.0}
    assert mean["abort_count"] == 0.0


def test_aggregate_is_permutation_invariant():
    reports = [report_with(m, response=m / 2) for m in (8.0, 11.0, 23.0)]
    mean_a, sd_a = aggregate(reports)
    mean_b, sd_b = aggregate(reports[::-1])
    assert mean_a == mean_b
    assert sd_a == sd_b


def test_aggregate_empty_raises():
    with pytest.raises(MetricsError):
        aggregate([])


@pytest.mark.parametrize("seed", range(12))
def test_build_report_equals_public_functions(seed):
    # every field must equal, bit for bit, the metric's public definition
    # (module docstring) computed here from the records with plain numpy
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    vm_specs = [VmSpec(mips=float(rng.choice([500.0, 1000.0, 2500.0])),
                       buffer_capacity=5, pes=int(rng.integers(1, 4)))
                for i in range(k)]
    records = []
    for tid in range(int(rng.integers(1, 60))):
        submit = float(rng.uniform(0, 50))
        exec_time = float(rng.uniform(0.1, 20))
        finish = submit + exec_time + float(rng.uniform(0, 10))
        records.append(rec(tid, submit, finish, exec_time,
                           vm=int(rng.integers(k)), aborted=bool(rng.random() < 0.2)))
    records.append(rec(999, 1.0, 4.0, 2.5, vm=k - 1))
    report = build_report(records, vm_specs)
    done = [r for r in records if not r.aborted]
    span = max(r.finish_time for r in done)
    assert report.avg_response_s == float(np.mean(
        [r.finish_time - r.submit_time for r in done]))
    assert report.avg_wait_s == float(np.mean(
        [r.finish_time - r.submit_time - r.exec_time for r in done]))
    assert report.makespan_s == span
    assert report.abort_count == len(records) - len(done)
    # utilization and load share accumulate through numpy scalar updates
    busy, length = np.zeros(k), np.zeros(k)
    for r in done:
        busy[r.vm_index] += r.exec_time
        length[r.vm_index] += r.exec_time * vm_specs[r.vm_index].mips
    pes = np.array([s.pes for s in vm_specs], dtype=float)
    assert report.utilization == (busy / (span * pes)).tolist()
    assert report.load_share == (length / length.sum()).tolist()
