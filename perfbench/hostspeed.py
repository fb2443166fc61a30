"""Host speed, measured alongside the program.

On a shared host the same operation can take 40% longer from one
second to the next without any CPU steal: neighbours slow the CPU
itself, and over a few minutes the speed can swing by a factor of two.
The benchmark therefore times a fixed piece of reference work every
SAMPLE_EVERY_S of wall time, also in the middle of an operation (from a
SIGALRM handler, which runs between bytecodes of the one thread), takes
the sampling time back out of the operation's time, and scales the
operation by the host's speed around it:

    factor = median reference time within WINDOW_S of the operation / NOMINAL_S

so a time reads as it would on the host at nominal speed.  The factors
and the unscaled values go into every run's record.  On a recorded
3-minute mix of MCST, lattice and planar-gap operations, scaling each
operation by its local factor cut the spread of 20-second means from
7-9% to 3-5%; one factor per 20 seconds did not reduce it.

The reference work mirrors crossopt's inner loops: bitmask scans over
subsets, as in the brute-force oracles and separators, and exact-rational
row elimination, as in the simplex.  On a recorded 3-minute mix it
tracked the operations better than a rational subset-sum reference.
"""

import bisect
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# Reference time that counts as nominal speed: its median on a 2-vCPU
# Intel Xeon virtual machine (Python 3.11.7) when it was calibrated.  It
# sets only the scale of the reported times, not their spread.
NOMINAL_S = 0.0035
# One reference sample per this much wall time (about 5% overhead).
SAMPLE_EVERY_S = 0.1
# Samples this close in time to an operation set its factor.
WINDOW_S = 2.0


_MASKS = tuple((i * 2654435761) & 0xFFF for i in range(16))


def reference_work():
    best = 0
    for cut in range(2600):
        if any(not (cut & m) for m in _MASKS[:8]):
            continue
        best = max(best, max((cut & m).bit_count() for m in _MASKS[8:]))
    rows = [[Fraction(i + j, 3) for j in range(12)] for i in range(12)]
    for r in range(1, 12):
        f = rows[r][0]
        rows[r] = [a - f * b for a, b in zip(rows[r], rows[0])]
    return best, rows


class HostSpeed:
    """Reference-work samples of one phase: start times and durations."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0  # total time spent sampling

    def sample(self, *_signal_args):
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.times.append(start)
        self.samples.append(end - start)
        self.spent += end - start

    @contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start=None, end=None):
        """Host slowdown around [start, end], or over the whole phase."""
        window = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            window = self.samples[lo:hi] or self.samples
        return statistics.median(window) / NOMINAL_S
