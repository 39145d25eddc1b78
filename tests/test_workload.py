"""Synthetic generation and the slotted arrival rows."""

from bisect import bisect_right

import numpy as np
import pytest
from scipy import stats

from qlsched.config import ConfigError, ScenarioConfig
from qlsched.workload import TaskSpec, _cum_rows, generate_workload


def scenario(**over):
    base = dict(num_tasks=20, length_min=5000, length_max=200000,
                num_vms=3, vm_mips=1000.0)
    base.update(over)
    return ScenarioConfig(**base)


# -- generate_workload -------------------------------------------------------

def test_scenario1_lengths_in_range():
    tasks = generate_workload(scenario(), seed=1, d_max=5)
    assert len(tasks) == 20
    assert all(5000 <= t.length <= 200000 for t in tasks)


def test_scenario2_lengths_in_range():
    cfg = scenario(num_tasks=100, length_min=100, length_max=400000)
    tasks = generate_workload(cfg, seed=2, d_max=5)
    assert len(tasks) == 100
    assert all(100 <= t.length <= 400000 for t in tasks)


def test_generate_deterministic():
    cfg = scenario()
    assert (generate_workload(cfg, seed=42, d_max=5)
            == generate_workload(cfg, seed=42, d_max=5))


def test_first_arrival_lands_in_slot_zero():
    # makespan's origin; holds for every seed, not just lucky ones
    for seed in range(40):
        tasks = generate_workload(scenario(), seed=seed, d_max=5)
        assert tasks[0].arrival_slot == 0
        slots = [t.arrival_slot for t in tasks]
        assert slots == sorted(slots)


def test_lengths_in_range_property():
    # >= 10^4 generated tasks total
    cfg = scenario(num_tasks=500, length_min=7, length_max=9000)
    total = 0
    for seed in range(25):
        for t in generate_workload(cfg, seed=seed, d_max=5):
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
    with pytest.raises(ConfigError) as err:
        scenario(**kw)
    assert all(key in str(err.value) for key in kw), err.value


# -- arrival rows --------------------------------------------------------------

def _pmf(rows):
    """The law each cumulative row encodes, one per row."""
    return np.diff(np.asarray(rows, dtype=float), axis=1, prepend=0.0)


def test_iid_point_mass_always_zero():
    # a mean this small leaves the binomial's mass on zero, to the last
    # bit: every row reaches 1.0 at count 0, so every uniform bisects to 0
    rows = _cum_rows("iid", 5, 1e-300)
    assert all(row[0] == 1.0 for row in rows)
    rng = np.random.default_rng(0)
    assert all(bisect_right(rows[0], u) == 0 for u in rng.random(200))


def test_markov_identity_matrix_absorbs():
    # at mean = d_max the pmf is a point mass on d_max, so the row of
    # d_max is the identity matrix's: once there, the chain stays
    rows = _cum_rows("markov", 3, 3.0)
    assert rows[3] == (0.0, 0.0, 0.0, 1.0)
    rng = np.random.default_rng(1)
    assert all(bisect_right(rows[3], u) == 3 for u in rng.random(200))


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_rows_match_scipy_binomial(mode):
    # exact check of the law the generator samples: every iid row, and
    # the Markov chain's stationary law, is Binomial(d_max, mean/d_max)
    for d_max in (1, 2, 5, 8, 12):
        for mean in (0.05, 0.5, 1.0, d_max / 2, float(d_max)):
            if mean > d_max:
                continue
            pmf = stats.binom.pmf(np.arange(d_max + 1), d_max, mean / d_max)
            law = _pmf(_cum_rows(mode, d_max, mean))
            if mode == "iid":
                assert np.abs(law - pmf[None, :]).max() < 1e-12
            else:
                assert np.abs(pmf @ law - pmf).max() < 1e-12
                # the sticky chain keeps the previous count with weight 0.5
                assert np.abs(law - (0.5 * np.eye(d_max + 1) + 0.5 * pmf)).max() < 1e-12


def test_binomial_model_mean_matches():
    pmf = _pmf(_cum_rows("iid", 5, 1.0))[0]
    assert abs(float(np.arange(6) @ pmf) - 1.0) < 1e-12


def test_markov_sticky_rows_sum_to_one():
    rows = _cum_rows("markov", 5, 2.0)
    pmf = stats.binom.pmf(np.arange(6), 5, 0.4)
    for prev, row in enumerate(rows):
        # non-negative masses, and the pinned 1.0 only absorbs rounding:
        # the entries before it leave the sticky row's last mass
        assert row[-1] == 1.0 and list(row) == sorted(row)
        last = 0.5 * (prev == 5) + 0.5 * pmf[5]
        assert abs((1.0 - row[-2]) - last) < 1e-12
    # stationary law is the binomial itself, so the mean is preserved
    law = _pmf(rows)
    assert np.allclose(pmf @ law, pmf)
    assert abs(float(np.arange(6) @ pmf) - 2.0) < 1e-12


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_rows_build_at_the_largest_arrival_dmax(mode):
    # the schema caps arrival_dmax at 1000, below 1030, where
    # math.comb(d_max, i) grows too large to multiply by a float
    rows = _cum_rows(mode, 1000, 1.0)
    assert len(rows) == 1001
    assert all(len(row) == 1001 and row[-1] == 1.0 for row in rows)


def _reference_workload(cfg, seed, d_max):
    # reference: one scalar draw per slot, bisected into the row of the
    # previous count; returns the tasks and the generator's next uniform
    rng = np.random.default_rng(seed)
    rows = _cum_rows(cfg.arrival_mode, d_max, cfg.arrival_mean)
    slots = []
    slot = 0
    prev = 0
    while len(slots) < cfg.num_tasks:
        d = bisect_right(rows[prev], rng.random())
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
        tasks = generate_workload(cfg, seed, d_max=5)
        for i, t in enumerate(tasks):
            assert type(t) is TaskSpec
            assert t == TaskSpec(id=i, arrival_slot=t.arrival_slot, length=t.length)
            assert all(type(x) is int for x in t)
            assert (t.id, t.arrival_slot, t.length) == tuple(t)


@pytest.mark.parametrize("mode", ["iid", "markov"])
def test_changed_arrival_model_leaves_generation_alone(mode):
    cfg = scenario(num_tasks=80, arrival_mode=mode, arrival_mean=1.5)
    before = generate_workload(cfg, seed=9, d_max=5)
    # the cached rows generation reads are tuples: no caller can change them
    rows = _cum_rows(mode, 5, 1.5)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    with pytest.raises(TypeError):
        rows[0][0] = 1.0
    with pytest.raises(TypeError):
        rows[0] = (0.0,) * 6
    assert _cum_rows(mode, 5, 1.5) is rows
    assert generate_workload(cfg, seed=9, d_max=5) == before


def test_endless_empty_slots_raise():
    # a count of 0 in every slot the loop can reach, across many blocks
    cfg = scenario(num_tasks=5, arrival_mean=1e-300)
    with pytest.raises(ConfigError, match="no arrivals for too long"):
        generate_workload(cfg, seed=1, d_max=5)


def test_markov_generation_runs():
    cfg = scenario(arrival_mode="markov", num_tasks=50)
    tasks = generate_workload(cfg, seed=5, d_max=5)
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
    # the iid pmf at (10, 0.5) sums to 0.9999999999999998 and the markov
    # rows to 0.9999999999999999: unpinned, the largest uniform would give
    # a count of 11, or an IndexError on the next slot's row
    rows = _cum_rows(mode, 10, 0.5)
    assert len(rows) == 11 and all(row[-1] == 1.0 for row in rows)
    for prev in range(11):
        assert bisect_right(rows[prev], _TopUniform().random()) == 10
    monkeypatch.setattr(np.random, "default_rng", _TopUniform)
    cfg = scenario(num_tasks=35, arrival_mode=mode, arrival_mean=0.5)
    tasks = generate_workload(cfg, seed=3, d_max=10)
    assert [t.arrival_slot for t in tasks] == [i // 10 for i in range(35)]
