"""Tracking the CPU's speed while a workload runs.

On a shared virtual machine the same work takes 65 to 95 ms of CPU time
depending on the second it runs in (frequency scaling and contention on the
host), and runs of the benchmark minutes apart differed by 30 %.  `Sampler`
interrupts the process every PERIOD_S seconds (SIGALRM) and times a fixed
kernel of interpreter work inside the signal handler, so the samples cover
long cases too.  (A CPU-time timer, SIGPROF, would not do: while one is
armed, this kernel reports process CPU time in 4 ms ticks.)  The benchmark subtracts the sampler's own CPU time
from each case and scales a pass by REFERENCE_S / (median sample of the
pass): times are reported as CPU seconds at the speed the reference box had
when REFERENCE_S was measured.  Over windows of about ten seconds the kernel's
time correlated at 0.83-0.91 with the time of workload code.

The kernel does what the workloads do most: builds small tuples, adds them
element-wise and updates a dict.
"""

from __future__ import annotations

import gc
import signal
import time

#: median CPU seconds of `kernel` on the 2-core Intel Xeon reference box
REFERENCE_S = 0.0065
#: seconds between two samples
PERIOD_S = 0.1


def kernel() -> int:
    acc: dict[tuple[int, ...], int] = {}
    mono = (0,) * 12
    for i in range(2500):
        step = tuple((i >> k) & 1 for k in range(12))
        mono = tuple(a + b for a, b in zip(mono, step))
        key = mono[:6]
        acc[key] = acc.get(key, 0) + i
    return len(acc)


def probe() -> float:
    """CPU seconds of one kernel run, with the garbage collector off so that
    the size of the caller's heap does not change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs `probe` every PERIOD_S seconds while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: CPU seconds spent in the signal handler, probes included
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """Process CPU seconds, less the time spent in this sampler."""
        return time.process_time() - self.spent

    def _handle(self, signum, frame) -> None:
        start = time.process_time()
        self.samples.append(probe())
        self.spent += time.process_time() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
