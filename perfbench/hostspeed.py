"""Host-speed normalisation of wall times.

On a shared host the speed of pure-Python code swings by tens of percent
over seconds and drifts over minutes, far more than the changes the
benchmark has to resolve.  The swings hit compute-bound interpreted code
much alike, so a short fixed probe run every PERIOD_S seconds measures
them (interpreter start and module loading follow it only in part): between
two probes the host runs at the speed the probes saw.  A wall interval
is converted to reference seconds by scaling each stretch between probes
by REF_PROBE_S / (the mean probe time at its two ends), after taking the
probes' own time out.  At the host speed at which one probe takes
REF_PROBE_S seconds of CPU, a reference second is a wall second.

The probe time is the CPU time of the calling thread, so a probe that
waits for the GIL (the pooled verify workload runs two threads) or is
preempted is not counted as slow.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
# median probe time on the host the recorded numbers were measured on
# (Python 3.11.7, 2 vCPUs); a constant, so reference seconds stay comparable
REF_PROBE_S = 0.0024


def probe() -> float:
    """Thread CPU seconds of one fixed mix of int, Fraction, str and dict work."""
    enabled = gc.isenabled()
    gc.disable()
    began = time.thread_time()
    s = 0
    for i in range(8000):
        s += i * i % 7
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = x * Fraction(i, i + 1) + Fraction(1, 7)
    d = {}
    for i in range(1200):
        d[(i, str(i))] = i
    elapsed = time.thread_time() - began
    if enabled:
        gc.enable()
    return elapsed


class SpeedLog:
    """Probes taken during a measured region, and the conversion they allow."""

    def __init__(self) -> None:
        self.starts: list = []  # wall clock when each probe began
        self.ends: list = []  # wall clock when each probe ended
        self.probes: list = []  # CPU seconds of each probe

    def sample(self) -> None:
        began = time.perf_counter()
        cpu = probe()
        self.starts.append(began)
        self.ends.append(time.perf_counter())
        self.probes.append(cpu)

    def start_timer(self) -> None:
        """Probe every PERIOD_S from a SIGALRM handler (main thread only)."""
        self.sample()
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def probe_wall_s(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] spent in probes."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e in zip(self.starts, self.ends))

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b], probe time excluded.

        The log must hold a probe taken at or before a and one at or after b.
        """
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, a) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < b:
            gap = min(b, self.starts[i + 1]) - max(a, self.ends[i])
            if gap > 0:
                total += gap * 2 * REF_PROBE_S / (self.probes[i] + self.probes[i + 1])
            i += 1
        return total

    def median_probe_s(self) -> float:
        ordered = sorted(self.probes)
        return ordered[len(ordered) // 2]
