"""Speed probe for timing on a shared host.

The speed of a shared host swings by up to 2x within seconds, and CPU
time tracks wall time through it. So while a timed region runs, a
SIGALRM handler times a fixed pure-Python loop every PROBE_INTERVAL_S,
and times are scaled to the speed at which that loop takes
PROBE_NOMINAL_S. The loop does integer arithmetic and then random reads
from a list of a few MB: a busy host slows arithmetic less than the
workloads and memory reads more, and the sum tracks every workload.

Imports only builtin modules, so the set-up interpreters can load it
without loading anything the package under test would import.
"""

import signal
import time

PROBE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 8.0e-4
_ARITHMETIC_STEPS = 3000
_WALK_VALUES = 200_000
_WALK_READS = 2000


class SpeedProbe:
    """Samples the machine's speed while a `with` block runs.

    clock() is perf_counter minus the time spent in the handler, so the
    sampled code's own time stays unbiased. scale() turns seconds
    measured inside the block into seconds at the nominal speed.
    """

    def __init__(self):
        self.busy = 0.0
        self.speeds = []
        self.values = [float(i) for i in range(_WALK_VALUES)]
        self.order = []
        x = 1
        for _ in range(_WALK_READS):  # fixed pseudo-random read order
            x = (1103515245 * x + 12345) % 2**31
            self.order.append((x >> 8) % _WALK_VALUES)

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def _loop(self) -> float:
        total = 0
        for i in range(_ARITHMETIC_STEPS):
            total += i * i
        values = self.values
        for i in self.order:
            total += values[i]
        return total

    def _sample(self, *_):
        start = time.perf_counter()
        self._loop()
        took = time.perf_counter() - start
        self.busy += took
        self.speeds.append(PROBE_NOMINAL_S / took)

    def __enter__(self):
        self.speeds = []
        self.handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        if not self.speeds:
            self._sample()

    def scale(self) -> float:
        """Mean relative speed over the block. Work done per second is
        proportional to speed, so the mean (not the median) converts
        elapsed seconds."""
        return sum(self.speeds) / len(self.speeds)
