"""Trace parsing, synthetic generation and the slotted arrival models."""

import numpy as np
import pytest

from qlsched.errors import ConfigError, TraceParseError
from qlsched.workload import (ArrivalModel, ScenarioConfig, TaskSpec,
                              arrival_model_for, generate_workload,
                              parse_trace, sample_arrivals, serialize)


def scenario(**over):
    base = dict(num_tasks=20, length_min=5000, length_max=200000,
                num_vms=3, vm_mips=1000.0)
    base.update(over)
    return ScenarioConfig(**base)


# -- parse_trace ------------------------------------------------------------

def test_parse_single_line():
    assert parse_trace("1,0,5000") == [TaskSpec(id=1, arrival_slot=0, length=5000)]


def test_parse_empty_stream():
    assert parse_trace("") == []


def test_parse_header_skipped():
    tasks = parse_trace("id,arrival_slot,length_mi\n0,0,100\n1,2,50\n")
    assert [t.id for t in tasks] == [0, 1]
    assert tasks[1].arrival_slot == 2


@pytest.mark.parametrize("raw,msg", [
    ("2,0,-7", "non-positive length at line 1"),
    ("2,0,0", "non-positive length at line 1"),
    ("0,0,5\n0,1,5", "duplicate id 0 at line 2"),
    ("0,0,5\n1,2", r"expected 3 fields\) at line 2"),
    ("0,0,5\n1,x,5", r"non-integer field\) at line 2"),
    ("0,-1,5", "negative arrival slot at line 1"),
    ("-1,0,5", "negative id at line 1"),
])
def test_parse_errors_carry_line_numbers(raw, msg):
    with pytest.raises(TraceParseError, match=msg):
        parse_trace(raw)


def test_parse_accepts_iterable_of_lines():
    tasks = parse_trace(["5, 1, 30\n", "\n", "6, 1, 40\n"])
    assert [(t.id, t.arrival_slot, t.length) for t in tasks] == [(5, 1, 30), (6, 1, 40)]


def test_roundtrip_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        tasks = [TaskSpec(i, int(rng.integers(0, 100)), int(rng.integers(1, 10**6)))
                 for i in range(n)]
        assert parse_trace(serialize(tasks)) == tasks


# -- generate_workload -------------------------------------------------------

def test_scenario1_lengths_in_range():
    tasks = generate_workload(scenario(), seed=1)
    assert len(tasks) == 20
    assert all(5000 <= t.length <= 200000 for t in tasks)


def test_scenario2_lengths_in_range():
    cfg = scenario(num_tasks=100, length_min=100, length_max=400000)
    tasks = generate_workload(cfg, seed=2)
    assert len(tasks) == 100
    assert all(100 <= t.length <= 400000 for t in tasks)


def test_generate_deterministic():
    cfg = scenario()
    assert generate_workload(cfg, seed=42) == generate_workload(cfg, seed=42)


def test_first_arrival_lands_in_slot_zero():
    # makespan's origin; holds for every seed, not just lucky ones
    for seed in range(40):
        tasks = generate_workload(scenario(), seed=seed)
        assert tasks[0].arrival_slot == 0
        slots = [t.arrival_slot for t in tasks]
        assert slots == sorted(slots)


def test_lengths_in_range_property():
    # >= 10^4 generated tasks total
    cfg = scenario(num_tasks=500, length_min=7, length_max=9000)
    total = 0
    for seed in range(25):
        for t in generate_workload(cfg, seed=seed):
            assert 7 <= t.length <= 9000
            total += 1
    assert total >= 10_000


@pytest.mark.parametrize("kw", [
    dict(num_tasks=0),
    dict(length_min=0),
    dict(length_min=10, length_max=5),
    dict(num_vms=0),
    dict(vm_mips=0),
    dict(buffer_min=0),
    dict(buffer_min=8, buffer_max=2),
    dict(num_pes=0),
    dict(arrival_mode="poisson"),
    dict(arrival_mean=0.0),
])
def test_scenario_validation(kw):
    with pytest.raises(ConfigError):
        scenario(**kw)


# -- arrival models -----------------------------------------------------------

def test_iid_point_mass_always_zero():
    model = ArrivalModel(mode="iid", probs=[1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    assert all(sample_arrivals(model, 0, rng) == 0 for _ in range(200))


def test_markov_identity_matrix_absorbs():
    model = ArrivalModel(mode="markov", matrix=np.eye(4))
    rng = np.random.default_rng(1)
    assert all(sample_arrivals(model, 3, rng) == 3 for _ in range(200))


def test_iid_uniform_mean():
    model = ArrivalModel(mode="iid", probs=[1 / 3] * 3)
    rng = np.random.default_rng(7)
    draws = [sample_arrivals(model, 0, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 1.0) <= 0.02


def test_iid_empirical_total_variation():
    model = arrival_model_for(scenario())
    rng = np.random.default_rng(11)
    counts = np.zeros(model.d_max + 1)
    n = 1_000_000
    for _ in range(n):
        counts[sample_arrivals(model, 0, rng)] += 1
    tv = 0.5 * np.abs(counts / n - model.probs).sum()
    assert tv < 0.01


def test_binomial_model_mean_matches():
    model = ArrivalModel.iid_binomial(d_max=5, mean=1.0)
    assert abs(float(np.arange(6) @ model.probs) - 1.0) < 1e-12


def test_markov_sticky_rows_sum_to_one():
    model = ArrivalModel.markov_sticky(d_max=5, mean=2.0, stickiness=0.7)
    assert np.allclose(model.matrix.sum(axis=1), 1.0)
    # stationary law is the binomial itself, so the mean is preserved
    pi = ArrivalModel.iid_binomial(d_max=5, mean=2.0).probs
    assert np.allclose(pi @ model.matrix, pi)


def test_sample_arrivals_rejects_bad_prev():
    model = ArrivalModel.markov_sticky()
    with pytest.raises(ValueError, match="outside support"):
        sample_arrivals(model, 9, np.random.default_rng(0))


@pytest.mark.parametrize("kw", [
    dict(mode="iid", probs=[0.5, 0.6]),
    dict(mode="iid", probs=[-0.1, 1.1]),
    dict(mode="markov", matrix=[[0.5, 0.5], [0.9, 0.2]]),
    dict(mode="markov", matrix=[[1.0, 0.0]]),
    dict(mode="weird", probs=[1.0]),
])
def test_arrival_model_validation(kw):
    with pytest.raises(ConfigError):
        ArrivalModel(**kw)


def _reference_workload(cfg, seed, d_max):
    # reference: one validated sample_arrivals draw per slot, on a fresh
    # arrival model; returns the tasks and the generator's next uniform
    rng = np.random.default_rng(seed)
    model = arrival_model_for(cfg, d_max)
    slots = []
    slot = 0
    prev = 0
    while len(slots) < cfg.num_tasks:
        d = sample_arrivals(model, prev, rng)
        prev = d
        slots.extend([slot] * d)
        slot += 1
    slots = slots[: cfg.num_tasks]
    first = slots[0]
    lengths = rng.integers(cfg.length_min, cfg.length_max + 1,
                           size=cfg.num_tasks).tolist()
    tasks = [TaskSpec(i, slots[i] - first, lengths[i]) for i in range(cfg.num_tasks)]
    return tasks, rng.random()


def _generate_and_next_uniform(monkeypatch, cfg, seed, d_max):
    """generate_workload's tasks and the next uniform of the generator
    it made, read after the call."""
    real = np.random.default_rng
    made = []

    def default_rng(seed=None):
        made.append(real(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", default_rng)
        tasks = generate_workload(cfg, seed, d_max)
    (rng,) = made
    return tasks, rng.random()


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_generate_matches_per_slot_reference(mode, monkeypatch):
    # the slot uniforms come in blocks and the generator is put back where
    # the scalar loop leaves it, so the lengths and the next draw match
    cases = [(d_max, mean, num_tasks)
             for d_max, mean in ((1, 0.5), (2, 1.0), (5, 1.0), (5, 2.5), (8, 3.0))
             for num_tasks in (1, 2, 7, 60, 250, 300)]
    # sparse (about 20 empty slots per arrival, so several blocks) and dense
    cases += [(5, mean, num_tasks) for mean in (0.05, 4.9)
              for num_tasks in (1, 2, 300)]
    for d_max, mean, num_tasks in cases:
        cfg = scenario(num_tasks=num_tasks, arrival_mode=mode,
                       arrival_mean=mean)
        for seed in range(6):
            assert _generate_and_next_uniform(monkeypatch, cfg, seed, d_max) \
                == _reference_workload(cfg, seed, d_max)


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_generated_tasks_are_task_specs(mode):
    cfg = scenario(num_tasks=120, arrival_mode=mode, arrival_mean=1.5)
    for seed in range(5):
        tasks = generate_workload(cfg, seed)
        for i, t in enumerate(tasks):
            assert type(t) is TaskSpec
            assert t == TaskSpec(id=i, arrival_slot=t.arrival_slot, length=t.length)
            assert all(type(x) is int for x in t)
            assert (t.id, t.arrival_slot, t.length) == tuple(t)


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_changed_arrival_model_leaves_generation_alone(mode):
    cfg = scenario(num_tasks=80, arrival_mode=mode, arrival_mean=1.5)
    before = generate_workload(cfg, seed=9)
    model = arrival_model_for(cfg)
    if mode == "iid":
        model.probs[:] = 0.0
        model.probs[-1] = 1.0
    else:
        model.matrix[:] = 0.0
        model.matrix[:, -1] = 1.0
    model._cum[0][:] = [0.0] * len(model._cum[0])
    assert generate_workload(cfg, seed=9) == before


def test_endless_empty_slots_raise():
    # a count of 0 in every slot the loop can reach, across many blocks
    cfg = scenario(num_tasks=5, arrival_mean=1e-300)
    with pytest.raises(ConfigError, match="no arrivals for too long"):
        generate_workload(cfg, seed=1)


def test_markov_generation_runs():
    cfg = scenario(arrival_mode="markov", num_tasks=50)
    tasks = generate_workload(cfg, seed=5)
    assert len(tasks) == 50 and tasks[0].arrival_slot == 0


class _TopUniform:
    """Stub generator whose uniforms are all 1 - 2**-53, the largest
    double below 1, one at a time or in a block; integer draws and the
    bit generator's state save, restore and advance go to a real
    generator."""

    _default_rng = staticmethod(np.random.default_rng)

    def __init__(self, seed=0):
        self._rng = self._default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_top_uniform_stays_inside_support(mode, monkeypatch):
    # iid_binomial(10, 0.5) sums to 0.9999999999999998 and markov_sticky(10,
    # 0.5) rows to 0.9999999999999999: unpinned, the largest uniform would
    # give a count of 11, or an IndexError on the markov rows
    model = (ArrivalModel.iid_binomial(10, 0.5) if mode == "iid"
             else ArrivalModel.markov_sticky(10, 0.5))
    assert all(row[-1] == 1.0 for row in model._cum)
    for prev in range(11):
        assert sample_arrivals(model, prev, _TopUniform()) == 10
    monkeypatch.setattr(np.random, "default_rng", _TopUniform)
    cfg = scenario(num_tasks=35, arrival_mode=mode, arrival_mean=0.5)
    tasks = generate_workload(cfg, seed=3, d_max=10)
    assert [t.arrival_slot for t in tasks] == [i // 10 for i in range(35)]
