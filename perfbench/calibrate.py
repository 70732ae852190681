"""Host-speed calibration: a fixed kernel timed between passes.

The benchmark runs on shared hosts whose speed drifts over minutes: a
fixed 10k-VM replay pass took anywhere from 3.2 s to 8.2 s within two
minutes on a 2-core host, and its CPU time rose with it (the guest
reports almost no steal), so neither CPU time nor a longer run removes
the drift.  A run therefore times this kernel between its passes and
rescales its host-time figures to a nominal host speed
(:data:`NOMINAL_S`), on which one kernel call takes exactly that long.
Each pass is rescaled by the kernel calls just before and just after
it; the run then reports the median over its passes.

The kernel imports nothing from the simulator, so a change to the
program moves the rescaled figures in the same proportion as raw host
time.  It does what the simulator's hot path does: an event heap, dict
and list bookkeeping in the interpreter over a working set larger than
a core's private caches, and small numpy scoring of a candidate matrix,
so that contention slows it about as much.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
import statistics
import time

import numpy as np

#: Seconds one kernel call takes on the nominal host.  Roughly its time on
#: the 2-core host the benchmark was written on, so rescaled figures read
#: like raw host time there.
NOMINAL_S = 0.14

#: Placements per kernel call.
KERNEL_STEPS = 4000

#: Trace-like records the kernel visits at random, and visits per step.
KERNEL_RECORDS = 20_000
KERNEL_TOUCHES = 24

#: Kernel calls between two passes.
CALLS_BETWEEN_PASSES = 4


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Seconds one fixed event-driven placement loop takes."""
    t0 = time.perf_counter()
    rng = random.Random(20200623)
    # Visited in random order, like the simulator's VM records, so the
    # working set does not fit in cache either.
    records = [(rng.random(), rng.random()) for _ in range(KERNEL_RECORDS)]
    avail = np.ones((48, 4))
    demand = np.empty(4)
    resident = {}
    heap = []
    load = 0.0
    for i in range(steps):
        now = i + rng.random()
        while heap and heap[0][0] <= now:
            _, vm = heapq.heappop(heap)
            server, used = resident.pop(vm)
            avail[server] += used
        for _ in range(KERNEL_TOUCHES):
            cores, mem = records[rng.randrange(KERNEL_RECORDS)]
            load += cores * mem
        for k in range(4):
            demand[k] = 0.02 + 0.1 * rng.random()
        norms = np.sqrt((avail * avail).sum(axis=1)) * np.sqrt(demand @ demand)
        fit = avail @ demand / (norms + 1e-12)
        fit[(avail < demand).any(axis=1)] = -1.0
        server = int(np.argmax(fit))
        if fit[server] < 0:
            continue
        used = demand.copy()
        avail[server] -= used
        resident[i] = (server, used)
        heapq.heappush(heap, (now + 20 + 200 * rng.random(), i))
    return time.perf_counter() - t0


class Calibrator:
    """Times the kernel on ``parallel`` processes at once.

    A workload that keeps several cores busy is calibrated on as many:
    contention on one core slows it, but not a kernel that runs alone on
    another.  The worker processes are forked once, on entry, while the
    parent's heap is still small, and are reused for every sample; the
    context waits for them on exit.
    """

    def __init__(self, parallel: int = 1) -> None:
        self.parallel = parallel
        self._pool = None

    def __enter__(self) -> "Calibrator":
        if self.parallel > 1:
            self._pool = multiprocessing.get_context("fork").Pool(self.parallel)
        kernel()  # warm-up, untimed
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()

    def sample(self) -> list[float]:
        """Kernel times of one gap between passes."""
        if self._pool is None:
            return [kernel() for _ in range(CALLS_BETWEEN_PASSES)]
        steps = [KERNEL_STEPS] * (CALLS_BETWEEN_PASSES * self.parallel)
        return self._pool.map(kernel, steps, chunksize=1)


def host_scale(samples) -> float:
    """Factor that turns this host's seconds into nominal-host seconds.

    The mean, not the median: a pass's time integrates the host's speed
    over the pass, and so does the kernels' total time.
    """
    return NOMINAL_S / statistics.mean(samples)
