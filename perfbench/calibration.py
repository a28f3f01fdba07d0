"""Machine-speed calibration: time measured at a fixed reference speed.

The benchmark's machine shares its CPUs with other tenants, and its speed
drifts by up to 1.9x over minutes (a fixed mmslab kernel took 57-109 ms per
call as medians over 5-second windows) while process CPU time tracks wall
time: the CPU itself runs slower, so no amount of repetition inside one run
removes the drift between runs.  A fixed kernel that does not touch mmslab
(a pure-Python loop, small-array numpy, a 100 000-element sort and one HiGHS
linear program, the four kinds of work mmslab spends its time on) is timed
between tasks, and every task latency is scaled by REFERENCE_S over the mean
of the kernel times just before and just after the task.  Over 20-second
windows this took the range of a task's median latency from 1.36-1.64x down
to 1.03-1.18x.  Speed also changes within a task, faster than the kernel can
sample it, so single latencies keep a spread of about 11 %; medians over a
run average it out.

A scaled time is the time the task would take on a machine where the kernel
takes REFERENCE_S.  Because the kernel uses no mmslab code, a change to
mmslab moves scaled times in the same proportion as wall times.
"""

import math
import time

import numpy as np
from scipy.optimize import linprog

# The reference speed: a fixed constant, the median time of one kernel()
# call in a first measurement on the 2-vCPU machine the benchmark was defined
# on (Python 3.11, numpy 2.4, scipy 1.17, one OpenBLAS thread).  The same
# machine's kernel medians ranged over 6-11 ms between runs.
REFERENCE_S = 0.0075
# A task that starts within GAP_S of the last calibration shares it, so runs
# of sub-millisecond tasks are not dominated by the kernel.
GAP_S = 0.2

_LP_RNG = np.random.default_rng(20230801)
_LP_A = _LP_RNG.random((30, 60))
_LP_B = np.ones(30)
_LP_C = -_LP_RNG.random(60)


def kernel():
    """Fixed work independent of mmslab; returns a checksum."""
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(250):
        a = np.sqrt(a * a + 1.0) - 0.5
    b = np.random.default_rng(0).random(100_000)
    for _ in range(2):
        b = np.sort(b * 1.0001)
    res = linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs")
    return acc + float(a[-1]) + float(b[0]) + float(res.fun)


class Pacer:
    """Runs the kernel between timed calls and scales their latencies.

    Call ``before()`` right before each timed call and ``scale(latencies)``
    after the last one: it times the kernel once more and returns each
    latency times REFERENCE_S / mean(kernel time before, kernel time after).
    """

    def __init__(self, gap_s=GAP_S):
        self.gap_s = gap_s
        self.samples = []
        self._last = -math.inf
        self._marks = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def warm_up(self, count=5):
        """Untimed kernel calls (first HiGHS call, allocator), then forget them."""
        for _ in range(count):
            self.sample()
        self.samples.clear()
        self._last = -math.inf

    def before(self):
        if time.perf_counter() - self._last >= self.gap_s:
            self.sample()
        self._marks.append(len(self.samples) - 1)

    def scale(self, latencies):
        if len(latencies) != len(self._marks):
            raise ValueError("one before() call is needed per latency")
        self.sample()
        out = [lat * REFERENCE_S / (0.5 * (self.samples[i] + self.samples[i + 1]))
               for i, lat in zip(self._marks, latencies)]
        self._marks = []
        return out
