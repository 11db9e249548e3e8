"""Host-speed sampling, so times can be read at a fixed reference speed.

The shared hosts this benchmark runs on change speed by a factor of two or
more from one second to the next (most likely other work on the same physical
core: the load average stays low), and stay slow or fast for anything from a
fraction of a second to half a minute.  Medians over rounds cannot remove
such swings, so a workload process samples the host's speed while it works:
every `INTERVAL` seconds of wall time a SIGALRM handler runs `probe()`, a
fixed piece of pure-Python work shaped like whalg's scalar kernel (Fraction
arithmetic into a dict), on the same CPU and at the same moment as the work
it interrupts.  The probe's speed relative to `REF_NS`, averaged over the
samples of a span, is the host's speed during that span; a time multiplied by
it is the time the span would have taken at the reference speed.

The probe uses the standard library only, so no change to whalg changes the
work it does; its own time is counted and taken out of the times it
interrupts.  A collection of the program's heap is held off while it runs.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL = 0.02     # seconds of wall time between samples
REF_NS = 600_000    # ns: about the probe's time amid whalg work on an uncontended 2.1 GHz Xeon
_KEYS = [(i * 7919) % 61 for i in range(160)]
_STEPS = [Fraction(i % 5 + 1, 21 + i % 3) for i in range(160)]


def probe():
    acc = {}
    for k, q in zip(_KEYS, _STEPS):
        acc[k] = acc.get(k, Fraction(0)) + q * q
    return acc


class Pace:
    """Samples of the host's speed, taken by a timer signal.

    `speed_sum / samples` is the mean speed (1.0 = reference speed) over the
    samples; `probe_ns` is the time the probes themselves took."""

    def __init__(self):
        self.samples = 0
        self.speed_sum = 0.0
        self.probe_ns = 0
        self._running = False
        self._interval = INTERVAL

    def _tick(self, _signum, _frame):
        t = time.perf_counter_ns()
        # a collection of the program's heap must not land inside the probe
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        probe()
        dt = time.perf_counter_ns() - t0
        if enabled:
            gc.enable()
        self.samples += 1
        self.speed_sum += REF_NS / dt
        self.probe_ns += time.perf_counter_ns() - t

    def start(self, interval=INTERVAL):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        self._interval = interval
        self._running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False

    def absorb(self, samples):
        """Add (samples, speed sum, probe ns) taken by a child process."""
        self.samples += samples[0]
        self.speed_sum += samples[1]
        self.probe_ns += samples[2]

    def mark(self):
        return self.samples, self.speed_sum, self.probe_ns

    def since(self, mark):
        """(samples, speed sum, probe ns) taken since `mark`."""
        return (self.samples - mark[0], self.speed_sum - mark[1], self.probe_ns - mark[2])

    @contextmanager
    def paused(self):
        """Stops sampling, e.g. while a child process works and samples
        itself: a probe here would only take a CPU from the child."""
        running = self._running
        if running:
            self.stop()
        try:
            yield
        finally:
            if running:
                self.start(self._interval)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"samples": self.samples, "speed_sum": self.speed_sum,
                       "probe_ns": self.probe_ns}, fh)


def at_ref(seconds, samples):
    """`seconds` read at the reference speed, given the (samples, speed sum,
    probe ns) taken meanwhile; `seconds` as is if none were taken."""
    n, speed_sum, _probe_ns = samples
    return seconds * (speed_sum / n) if n else seconds


def read(path):
    """(samples, speed sum, probe ns) written by a child's `Pace.write`."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        os.remove(path)
    except FileNotFoundError:
        return 0, 0.0, 0
    return d["samples"], d["speed_sum"], d["probe_ns"]
