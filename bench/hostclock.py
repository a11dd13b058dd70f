"""Host-speed clock: a small reference kernel timed on a timer signal.

A shared host changes how fast it runs Python from one tenth of a second to
the next (frequency steps, busy neighbours on sibling cores) and by a third
between minutes.  A kernel timed only between operations misses what
happens during a long operation, so the clock times the kernel on a
SIGALRM every `period` seconds, inside the operations too: the mean of its
samples over a stretch is the host's mean speed over that stretch, and a
wall time divided by it counts the stretch in kernel times.

    with HostClock(0.05) as clock:
        mark = clock.mark()
        ...                      # the measured work
        kernel_s, spent_s = clock.since(mark)

`spent_s` is the time the handler itself took in the stretch; callers
subtract it from their wall time.  Python runs the handler between
bytecodes of the main thread, so one long C call delays a sample but never
splits the kernel.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

KERNEL_STEPS = 150  # about 0.7 ms on a 2-core x86_64 host


def kernel():
    """Seconds taken by a fixed pure-Python kernel (dicts, Fractions, floats)."""
    t = time.perf_counter()
    acc = {}
    x = 0.0
    for i in range(KERNEL_STEPS):
        key = (i * 7919) & 255
        acc[key] = acc.get(key, 0) + Fraction(i % 17, 1 + i % 5)
        x += math.sin(i)
    return time.perf_counter() - t


class HostClock:
    """Kernel samples on SIGALRM while the context is open."""

    def __init__(self, period):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t

    def sample(self):
        """Take one sample now, outside the timer."""
        self._tick(None, None)

    def mark(self):
        return len(self.samples), self.spent

    def since(self, mark):
        """(mean kernel seconds, handler seconds) since `mark`.

        Takes one sample first, so a stretch shorter than the period still
        has one.
        """
        self.sample()
        count, spent = mark
        return (statistics.fmean(self.samples[count:]),
                self.spent - spent)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
