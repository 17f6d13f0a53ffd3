"""Machine-speed sampling, to take shared-host slowdowns out of the timings.

On a shared host the same single-threaded code runs up to 2.5 times as fast
in one moment as in the next (most likely another tenant on the sibling
hardware thread), and the share of slow moments drifts over minutes, so
medians of raw times move by tens of percent between runs of the same code.
A fixed pure-Python kernel timed next to the work is slowed by a similar
factor: its time is a reading of the machine's speed at that moment.
Numpy-bound work slows less (about as the kernel's time to the power 0.65),
so its normalised times keep part of the drift.  The kernel is
``Fraction`` arithmetic -- object allocation, Python-level method calls and
small-integer gcds, like most of twospin's own code.  Of the kernels tried
(also a dict-and-int loop and a small numpy reduction), it left the least
pass-to-pass spread of normalised times on the exact, gadget and pendant
workloads, and slightly more on the float one.

``Sampler`` runs the kernel from a SIGALRM handler every ``INTERVAL_S`` of
wall time, in the worker's own thread, so the readings are spread evenly
over the time they describe.  The handler's own time is recorded so that it
can be taken out of the measured interval.  ``Sampler.factor`` turns a raw
time into seconds at the reference speed: multiplied by it, the time becomes
raw * ``KERNEL_REF_S`` / (mean kernel time over the interval).

The kernel's objects are freed as soon as they are made, so it adds nothing
to the collector's count of new objects.  A reading cut by preemption, or by
a collection it happened to trigger, counts as ``CAP`` reference times at
most.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
KERNEL_TERMS = 40
# the kernel's time at the reference speed: on a 2-vCPU Xeon VM under
# CPython 3.11 it takes 8e-5 s when the machine is fast
KERNEL_REF_S = 8e-5
MIN_SAMPLES = 4  # readings behind each normalised interval
WARMUP = 20  # unrecorded kernel runs first, so that readings see specialised bytecode
# A reading above this many reference times was cut by preemption, not slowed
# by a busy sibling thread (at most about 2.5 times); it counts as this.
CAP = 4


def kernel(terms: int = KERNEL_TERMS) -> Fraction:
    """The fixed work whose time is one reading."""
    total = Fraction(0)
    for i in range(1, terms):
        total += Fraction(i % 7 + 1, i)
    return total


class Sampler:
    """Kernel readings: start times on the ``perf_counter`` clock, in order,
    and the seconds each took."""

    def __init__(self):
        self.times, self.seconds = [], []
        self.warmup_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.seconds.append(time.perf_counter() - start)
        self.times.append(start)

    def start(self) -> None:
        begun = time.perf_counter()
        for _ in range(WARMUP):
            kernel()
        self.warmup_s = time.perf_counter() - begun
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def read_now(self, count: int) -> None:
        """Take ``count`` readings at once, outside the timer."""
        for _ in range(count):
            self._handler(None, None)

    def overhead(self, start: float, end: float) -> float:
        """Handler seconds spent inside [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.seconds[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference kernel time over the mean kernel time around [start, end].

        Uses the readings inside the interval, widened on the nearer side
        until there are at least ``MIN_SAMPLES`` of them.
        """
        times = self.times
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        cap = CAP * KERNEL_REF_S
        return KERNEL_REF_S * (hi - lo) / sum(min(s, cap) for s in self.seconds[lo:hi])
