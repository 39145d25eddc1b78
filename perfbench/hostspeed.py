"""How fast the host runs, sampled while the benchmark runs.

The benchmark runs on a share of a machine whose speed changes with the
load of its other tenants. The small fixed kernel below takes either
about 0.19 or about 0.36 ms of CPU time, switching between the two every
few hundred milliseconds, and the share of slow time drifts over
minutes: the same repetition of the same plan takes from 3.1 to 5.3 s
within ten minutes. Ten 40 s runs taken back to back then spread by a
quarter of their median with nothing changed, which hides any real
change smaller than that.

run.py therefore times a fixed reference kernel along with the workload
and scales each repetition to a nominal host speed:

    time at nominal speed = wall time * nominal_s / mean kernel time

A change to qlsched leaves the kernel alone, so it moves the scaled time
by the same share as the raw one; a slow phase of the host stretches
kernel and workload alike and cancels. The raw times stay in the per-run
record. There are two references, one for each kind of work:

- HostSpeed, for the sweeps and every set-up probe, runs a small
  bytecode kernel every PERIOD_S on a background thread, while the
  repetition runs, and takes the mean CPU time of the calls made
  during it.
- MemorySpeed, for value iteration, which is bound by memory and slows
  with the memory traffic of other tenants rather than with the speed
  of the core, times a fixed sparse Bellman sweep over arrays far
  larger than the L2 cache between repetitions, and takes the mean of
  the samples before and after each one.

Measured against the bytecode kernel, 21 same-seed repetitions of each
sweep spread by 3 to 4% where their raw times spread by 23 to 27%. It
did not track the oracle: over runs its scaled times spread more than
its raw ones. Measured against the Bellman sweep, 45 repetitions of the
oracle spread by 5.5% where their raw times spread by 9%. A kernel that
gathers from large arrays while the workload runs would track the
sweeps worse, and its time would depend on how much of the cache the
workload itself evicts; the Bellman sweep runs between repetitions,
after value iteration has streamed some 100 MB through the cache,
whichever way qlsched does it. run.py pins the process to one CPU so
that the thread times the CPU the workload runs on.

Neither kernel uses anything from qlsched. Do not change the kernels or
the constants below: they define the unit of every time the benchmark
reports, and a change re-bases the baseline.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# Kernel time, in CPU seconds, in a fast phase of the host the first
# baseline was recorded on (2 vCPU, Intel Xeon at 2.1 GHz, Python 3.11).
NOMINAL_S = 0.0002
PERIOD_S = 0.025
_KERNEL_N = 1000

# Time of one Bellman sweep in a fast phase of the same host.
MEMORY_NOMINAL_S = 0.025
_MEMORY_STATES = 64_000
_MEMORY_ENTRIES = 4_000_000
_MEMORY_SWEEPS = 10


def _kernel() -> float:
    table = {}
    acc = 0.0
    for i in range(_KERNEL_N):
        key = i & 255
        acc += table.get(key, 0.5) * 0.25
        table[key] = acc - int(acc)
    return acc


class HostSpeed:
    """Times the kernel every PERIOD_S on a thread, while the block runs.

    The thread holds the interpreter lock for about 0.3 ms per call, about
    1.5% of the time, on every commit alike.
    """

    nominal_s = NOMINAL_S

    def __init__(self):
        self.ends: list[float] = []    # perf_counter() when each call ended
        self.costs: list[float] = []   # CPU seconds each call took
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed",
                                        daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def between(self):
        """Nothing to do between repetitions: the thread samples throughout."""

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            _kernel()
            cost = time.thread_time() - c0
            self.costs.append(cost)
            self.ends.append(time.perf_counter())

    def mean_cost(self, t0: float, t1: float) -> float:
        """Mean kernel time of the calls that ended between t0 and t1.

        An interval too short to hold a call takes the last call before t1.
        """
        ends = self.ends[:]
        lo = bisect.bisect_left(ends, t0)
        hi = bisect.bisect_right(ends, t1)
        if hi == lo:
            lo = max(hi - 1, 0)
            hi = lo + 1
        return statistics.fmean(self.costs[lo:hi])


class MemorySpeed:
    """Times a fixed sparse Bellman sweep between repetitions.

    The model is random but fixed: 4 M transition entries over 64,000
    states, about 50 MB of arrays, like the oracle's 4.7 M over 64,000.
    """

    nominal_s = MEMORY_NOMINAL_S

    def __init__(self):
        rng = np.random.default_rng(20181011)
        self._cols = rng.integers(0, _MEMORY_STATES, _MEMORY_ENTRIES,
                                  dtype=np.int32)
        self._probs = rng.random(_MEMORY_ENTRIES)
        rows = np.sort(rng.integers(0, _MEMORY_STATES, _MEMORY_ENTRIES))
        self._starts = np.searchsorted(rows, np.arange(_MEMORY_STATES))
        self._values = rng.random(_MEMORY_STATES)
        self.ends: list[float] = []    # perf_counter() when each sample ended
        self.costs: list[float] = []   # mean seconds per sweep of each sample

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def between(self):
        """Time _MEMORY_SWEEPS sweeps and record their mean."""
        t0 = time.perf_counter()
        for _ in range(_MEMORY_SWEEPS):
            backed = np.add.reduceat(self._probs * self._values[self._cols],
                                     self._starts)
            self._values = 0.9 * backed / backed.max()
        t1 = time.perf_counter()
        self.costs.append((t1 - t0) / _MEMORY_SWEEPS)
        self.ends.append(t1)

    def mean_cost(self, t0: float, t1: float) -> float:
        """Mean of the last sample before t0 and the first after t1."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.ends, t1)
        picked = [self.costs[i] for i in {before, after}
                  if 0 <= i < len(self.costs)]
        return statistics.fmean(picked)


def scale(wall_s: float, kernel_s: float, nominal_s: float) -> float:
    """wall_s at the nominal host speed, given the mean kernel time over it."""
    return wall_s * nominal_s / kernel_s
