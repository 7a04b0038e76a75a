"""Machine-speed reference kernel.

On a shared cloud VM (2 vCPUs, Intel Xeon) the same pure-Python code runs
up to 1.8 times slower from one second to the next, in both the workload
and a fixed reference loop.  So every timed interval is paired
with short runs of the reference kernel below, taken just before and just
after it, and reported at the kernel's reference speed:

    normalized = measured * REF_KERNEL_S / (mean kernel time around it)

The raw wall-clock figures are reported alongside in the run details.  The
kernel is plain interpreter work (recursion, tuple building, dict stores)
like the hwmt hot paths, and it never changes with the code under test.
"""

import time

# Nominal kernel time: a normalized duration is the duration the interval
# would have had on a machine that runs the kernel in exactly this long.
REF_KERNEL_S = 0.001

# Minimum spacing of kernel samples inside a timed section.
SAMPLE_INTERVAL_S = 0.05

_WEIGHTS = (3, -1, 2, -2, -1)


def _kernel():
    found = []
    last = len(_WEIGHTS) - 1

    def rec(i, budget, partial, prefix):
        if i == last:
            if partial + budget * _WEIGHTS[i] == 0:
                found.append(prefix + (budget,))
            return
        for a in range(budget + 1):
            rec(i + 1, budget - a, partial + a * _WEIGHTS[i], prefix + (a,))

    rec(0, 14, 0, ())
    table = {}
    for j in range(600):
        table[j * 7919 % 1009] = j
    return len(found) + len(table)


def kernel_time():
    """Seconds the reference kernel takes now: the faster of two runs, as
    interrupts only ever lengthen a run."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedTrack:
    """Kernel samples interleaved with the calls of a timed section."""

    def __init__(self):
        self.samples = []
        self._before = []
        self._last = float("-inf")

    def before_call(self):
        """Take a sample if the last is SAMPLE_INTERVAL_S old; call before
        each timed call."""
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.samples.append(kernel_time())
            self._last = time.perf_counter()
        self._before.append(len(self.samples) - 1)

    def close(self):
        """Take the closing sample; call after the last timed call."""
        self.samples.append(kernel_time())

    def scale(self):
        """Per call, the factor that takes its duration to the reference
        kernel speed, from the samples just before and just after it."""
        return [2 * REF_KERNEL_S / (self.samples[j] + self.samples[j + 1])
                for j in self._before]
