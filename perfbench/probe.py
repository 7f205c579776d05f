"""Host-speed probe, so that timings compare across a host whose speed drifts.

On a shared host the same single-threaded op can take 1.5x longer from one
minute to the next while its CPU time equals its wall time: the slowdown is
other tenants' load on the same cores, not time the process waits. The
probe measures it from inside the process. A ``SIGALRM`` every
``PERIOD_S`` runs a fixed pure-Python kernel twice in the main thread and
records how long the second run took; the first brings the kernel's code
and data back into the caches, so that the time reflects the host's speed
rather than what the program did just before. A stretch ``t0..t1`` of wall
time converts to reference seconds by the factor ``REF_S`` over the mean kernel
time in that stretch: the time the stretch would have taken on a host where
the kernel takes ``REF_S``. The mean leaves out the slowest and fastest
tenth of the samples, as a sample that the host happened to preempt reads
many times too long.

A sample is kept only when the main thread is the process's only thread.
While SMASH's worker threads run, the kernel slows with the program's own
load, which would make the correction depend on the program under test; a
stretch without kept samples uses the nearest kept ones on either side.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import threading
import time

perf_counter = time.perf_counter

PERIOD_S = 0.05
# A fixed scale: about the kernel's fastest time on the 2-vCPU Xeon KVM guest
# the benchmark was written on.
REF_S = 100e-6


def _kernel():
    d = {}
    for i in range(1000):
        d[i & 63] = d.get(i & 63, 0) + i


class SpeedProbe:
    def __init__(self):
        self.starts = []  # kept samples: start times, ascending
        self.kernel_s = []  # and the kernel's duration for each

    def _sample(self, signum, frame):
        if threading.active_count() != 1:
            return
        _kernel()
        t0 = perf_counter()
        _kernel()
        self.starts.append(t0)
        self.kernel_s.append(perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_mean(self, t0: float, t1: float) -> float:
        """Mean kernel time of the samples in ``t0..t1`` without their
        slowest and fastest tenth, or of the nearest sample before and
        after the stretch when there is none inside."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi > lo:
            inside = sorted(self.kernel_s[lo:hi])
            cut = len(inside) // 10
            return statistics.fmean(inside[cut:len(inside) - cut])
        near = self.kernel_s[max(lo - 1, 0):lo + 1]
        return statistics.fmean(near) if near else REF_S
