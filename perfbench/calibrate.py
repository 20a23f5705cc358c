"""Calibration loop: a fixed piece of pure-Python work that measures how
fast the machine runs at the moment.

On a 2-vCPU VM that shares its host with others, one vCPU was seen to
run 50-70 % slower than the other while a neighbour was busy; processes
move between the two, and the slow spells last from seconds to minutes.
So a Meter in every repetition takes a calibration sample, the fastest
of UNIT_REPS units, every EVERY_S seconds from a SIGALRM handler, and
once at each end.  Each stretch of time between two samples is scaled
by REF_UNIT_S divided by the mean of the two, and the time spent
sampling is left out, so that times read as seconds at one fixed
machine speed.  The timer reaches into long calls as well as between
them.

The unit imports nothing from the library, so no change to the library
moves it.  Its work (tuple-keyed dict inserts, frozensets of tuples,
integer and set operations in interpreted loops) is the kind of
interpreter work the library spends most of its time on; on that VM it
tracked the speed of the reflect and verify passes to a few per cent.
It frees all it makes and runs with the garbage collector off, so it
does not move the library's collections.
"""

import gc
import itertools
import signal
import time

# seconds of one unit on the faster vCPU of that VM (Intel Xeon at
# 2.1 GHz, Python 3.11) while no neighbour loads it
REF_UNIT_S = 0.0037
UNIT_REPS = 2
EVERY_S = 0.5


def _dicts() -> int:
    d = {}
    s = 0
    for i in range(8000):
        d[(i * 7919) % 1009, i & 7] = i
        s += len(d)
    return s


def _frozensets() -> int:
    seen = set()
    n = 0
    for t in itertools.product(range(4), repeat=5):
        if all(t[i] <= t[i + 1] for i in range(0, 4, 2)):
            seen.add(frozenset(enumerate(t)))
            n += len(t)
    return n + len(seen)


def _masks() -> int:
    seen = set()
    n = 0
    for a in range(0, 1024, 3):
        for b in range(a, 1024, 13):
            if a & ~b == 0:
                n += 1
                seen.add(a ^ b)
    return n + len(seen)


def sample() -> float:
    """Seconds of the fastest of UNIT_REPS calibration units, the
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(UNIT_REPS):
            t = time.perf_counter()
            _dicts()
            _frozensets()
            _masks()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Calibration samples of one process, and the reference seconds of
    a stretch of time between them."""

    def __init__(self):
        self.marks: list = []  # (start, unit seconds, end) of every sample
        self.take()

    def take(self, *_signal) -> None:
        start = time.perf_counter()
        unit = sample()
        self.marks.append((start, unit, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def stretch(self, a: float, b: float) -> tuple:
        """(seconds, reference seconds) from perf_counter time a to b, less
        the time spent sampling.  a and b lie between the first and the
        last sample."""
        measured = reference = 0.0
        for (_, u0, end), (start, u1, _) in zip(self.marks, self.marks[1:]):
            overlap = min(b, start) - max(a, end)
            if overlap > 0:
                measured += overlap
                reference += overlap * REF_UNIT_S / ((u0 + u1) / 2)
        return measured, reference
