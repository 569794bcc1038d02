"""Host-speed probe: times taken on a shared host, scaled to a fixed speed.

The benchmark runs on a few cores of a shared host. There the same code
runs up to 1.8 times slower while neighbours are busy, and that state flips
within seconds and drifts over minutes, so the median of a 12 s run of
``secindex index`` moved by 30% between runs of the same code. A
:class:`Probe` measures that speed in the measured process itself, on the
processor the program runs on: a wall-clock timer signal runs :func:`work`,
a fixed piece of pure-Python dict and deque work of about 0.1 ms, every
``PERIOD_S``, also in the middle of an operation, and records when each probe
started and how long it took. An interval's seconds times ``REFERENCE_S``
over the mean probe time near the interval are its seconds at the reference
speed, the speed at which a probe takes ``REFERENCE_S``. The program does
not change the probe, so a program change moves the scaled time as it moves
the wall time. The probes take about 0.5% of an operation, for every version
of the program alike.

Python runs the signal's handler between bytecodes of the main thread, so a
long call into compiled code (the dense SVD of ``attack-2383``) holds the
probes back until it returns; the probes near it then sample the Python code
around it. A probe thread would sample such calls too, but it may run on the
other processor, whose speed differs: on ``sweep-ieee118`` it left the
scaled times more than twice as spread as the signal does.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from collections import deque

PERIOD_S = 0.02
WINDOW_S = 1.0  # probes this long before and after an interval also count
REFERENCE_S = 1e-4  # probe seconds at the reference speed
# A probe counts as at most this many times the median probe near it: a
# busy neighbour slows a probe by up to 2 times, while a probe that the host
# preempts takes milliseconds and would outweigh dozens of others.
CAP = 3.0


def work():
    """The probe's fixed work."""
    seen = {}
    todo = deque(range(300))
    total = 0
    while todo:
        x = todo.popleft()
        seen[x] = seen.get(x // 3, 0) + x
        total += seen[x] & 7
    return total


class Probe:
    """Runs :func:`work` on a timer signal every ``PERIOD_S`` and scales
    intervals by it."""

    def __init__(self):
        self.starts = []  # time.perf_counter() at each probe's start
        self.times = []  # each probe's seconds

    def _fire(self, signum, frame):
        if len(self.starts) != len(self.times):
            return  # a probe is running: the timer fired again inside it
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not the probe's
        t0 = time.perf_counter()
        self.starts.append(t0)
        work()
        self.times.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds, near):
        """``seconds`` at the reference speed, given the probe times ``near``."""
        if not near:
            raise ValueError("no probe ran near the interval")
        cap = CAP * statistics.median(near)
        return seconds * REFERENCE_S / statistics.fmean(min(t, cap) for t in near)

    def scaled(self, start, end):
        """Seconds from ``start`` to ``end`` (``time.perf_counter()``) at the
        reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return self.scale(end - start, self.times[lo:hi])

    def scaled_so_far(self, seconds):
        """``seconds`` that every probe so far ran inside, at the reference
        speed."""
        return self.scale(seconds, self.times)
