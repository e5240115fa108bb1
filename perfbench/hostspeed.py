"""Host-speed adjustment of measured times.

The benchmark runs on shared hosts whose speed changes in phases of tens of
seconds: a fixed pure-Python loop runs up to 1.4-1.7x slower in one phase
than in the next, which is more than the change a benchmark run is meant to
detect.  So while a workload runs, a fixed pure-Python probe (a ground
evaluation of an associative law, written on the benchmark's side and
sharing no code with ualg) is timed every PROBE_INTERVAL_S, from a SIGALRM
handler, so that it also samples the host in the middle of a long query.
A measured time is then scaled by the host's mean speed around it, the mean
of REFERENCE_PROBE_S over each probe's time: the result is the time the same
work takes on a host that runs the probe in REFERENCE_PROBE_S.  The mean,
not the median, because the probes are evenly spaced in time and the host
switches between a fast and a slow phase within seconds, so the work done in
an interval follows the mean speed over it.  Probe time that falls inside a
measured interval is subtracted from it first.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

from goals import ground_holds, parse_goal

# The probe's median time on the host the baseline was measured on (2-vCPU
# shared VM, Python 3.11.7); it only fixes the scale of adjusted times.
REFERENCE_PROBE_S = 0.0008
PROBE_INTERVAL_S = 0.05
# A measured interval is compared with the probes taken inside it, widened
# by this much on each side, and by more until it holds MIN_PROBES.
PAD_S = 0.5
MIN_PROBES = 9

_LAW = parse_goal("f(f(x,y),z) ~ f(x,f(y,z)) ctx [ x:A y:A z:A ]")
_CARRIERS = {"A": 5}
_TABLES = {"f": ((5, 5), tuple((a + b) % 5 for a in range(5)
                                for b in range(5)))}


def probe_task() -> None:
    if not ground_holds(_CARRIERS, _TABLES, _LAW):
        raise AssertionError("the probe's law must hold")


class HostSpeed:
    """Probe times, and the probe time spent so far, in this process."""

    def __init__(self) -> None:
        self.times: list[float] = []  # probe midpoints, perf_counter seconds
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in probes and their handler

    def probe(self) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection would charge ualg's heap to the probe
        try:
            probe_task()
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.spent += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """The mean of REFERENCE_PROBE_S over the probe times around
        [start, end]."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= min(MIN_PROBES, len(self.times)):
                break
            pad *= 2
        return statistics.fmean(REFERENCE_PROBE_S / d
                                for d in self.durations[lo:hi])

    def adjust(self, start: float, end: float, seconds: float) -> float:
        return seconds * self.factor(start, end)
