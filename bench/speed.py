"""Host-speed probe: the benchmark's times are scaled to one reference speed.

On a shared host the speed of a single-threaded process drifts as other
tenants load the machine: a fixed computation can take a third longer
for seconds at a time and then recover.  The drift is common to all work
in the process, so between two runs it swamps the differences that the
benchmark is meant to show.

A probe is a fixed, short mix of interpreter and small-array work that
shares no code with jost1d.  While the workload runs, an interval timer
runs one probe every INTERVAL_S, inside the library calls too (a signal
handler runs between bytecodes).  A call's seconds, less the probes that
ran inside it, are scaled by REFERENCE_S over the median probe seconds
within WINDOW_S of the call.  The scaled figure is the call's seconds on
a host where the probe takes REFERENCE_S, about its time on an unloaded
2.1 GHz Xeon core.  The benchmark prints the raw seconds beside it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-4
INTERVAL_S = 0.025
WINDOW_S = 0.5  # probes this close to a call speak for its host speed


def probe():
    """Seconds taken by the fixed probe computation."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    a = np.arange(200.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


class SpeedLog:
    """Probes run by an interval timer, each as (start, seconds)."""

    def __init__(self):
        self.samples = []
        self._previous = None
        self._stamps = self._seconds = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer and index the probes; safe to call when not started."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self.samples.sort()
        self._stamps = [t for t, _ in self.samples]
        self._seconds = [s for _, s in self.samples]

    def probe_seconds(self, t0, t1):
        """Seconds of probing inside [t0, t1]."""
        lo = bisect.bisect_left(self._stamps, t0)
        hi = bisect.bisect_left(self._stamps, t1)
        return sum(min(s, t1 - t) for t, s in self.samples[lo:hi])

    def factor(self, t0, t1):
        """REFERENCE_S over the median probe within WINDOW_S of [t0, t1].

        The nearest probe before t0 and the nearest after t1 always count.
        """
        stamps = self._stamps
        lo = bisect.bisect_left(stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(stamps, t1 + WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(stamps, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(stamps, t1) + 1, len(stamps)))
        return REFERENCE_S / statistics.median(self._seconds[lo:hi])
