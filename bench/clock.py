"""Wall time scaled to a reference interpreter speed.

On a shared machine the interpreter's speed drifts by 10-30 % within
seconds as neighbours come and go.  So while a lap of work runs, a timer
signal interrupts it every SAMPLE_EVERY_S to run a fixed pure-Python loop
that does not touch the library, and the loop also runs a few times just
before and after the lap.  The lap's wall time, less the time spent in
those interruptions, is scaled by the loop's reference time over its mean
time during the lap.  A scaled second is a second at the speed at which the
loop takes its reference time.  Numpy-bound laps use a numpy loop instead,
run only before and after the lap.

Measured on the 2-CPU Intel Xeon (Python 3.11.7) the benchmark was sized
on, over 90 s of alternating calls, the medians of eight windows spread by
25 % (canonical_form at n = 4) and 19 % (is_odd at n = 8) of their median
in wall time, and by 5 % and 2.5 % once divided by the pure-Python loop.
The interruptions add about 2.5 % to the work inside a lap, which traced
spans include.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter
from typing import Callable, NamedTuple

# The loop's median time on the machine above, so scaled times read close
# to wall times there.
REFERENCE_S = 0.0005
SAMPLE_EVERY_S = 0.02
_BRACKET = 3
_TABLE = tuple((i * 2654435761) & 0xFF for i in range(256))


def calibration_s() -> float:
    """Wall time of one run of the calibration loop.

    Half of it is integer arithmetic on a small tuple, like the recognizers'
    pair scans; half builds and compares small bytes, lists and dicts, like
    the canonicaliser and the parser.  Either half alone tracks the other
    kind of work worse.
    """
    t0 = perf_counter()
    table = _TABLE
    acc = 0
    for i in range(2800):
        acc ^= (table[i & 255] ^ i) & (i >> 3)
    best = None
    for r in range(40):
        cand = bytearray(16)
        for v in range(16):
            cand[v ^ (r & 15)] = table[v + r]
        packed = bytes(cand)
        if best is None or packed < best:
            best = packed
        kept = [x & r for x in table[:40]]
        {x: r for x in kept[:10]}
    return perf_counter() - t0


def numpy_calibration_s() -> float:
    """Wall time of one run of the calibration loop for numpy work.

    The odd(5) filter is bound by memory traffic over arrays of a few MB,
    which the pure-Python loop tracks less well; this loop makes the same
    kind of traffic.  numpy is imported on first use so that importing this
    module does not hide numpy's import from set-up time.
    """
    import numpy as np

    cols = np.arange(12928, dtype=np.uint32)
    shifts = np.arange(128, dtype=np.uint32) & 7
    t0 = perf_counter()
    mixed = ((cols[:, None] >> shifts[None, :]) ^ cols[:, None]) & 1
    (mixed == 0).any(axis=1)
    return perf_counter() - t0


class Calibration(NamedTuple):
    """A calibration loop, its reference time and how often it samples a lap
    (0: only before and after it)."""

    loop: Callable[[], float]
    reference_s: float
    every_s: float


PYTHON = Calibration(calibration_s, REFERENCE_S, SAMPLE_EVERY_S)
# Its median on the machine above.  Interrupting numpy work with more numpy
# work disturbs it: over groups of six 10-facet laps of the odd(5) filter,
# the spread of the group medians was 3-4 % with a numpy loop run only
# before and after each lap, 4-5 % with it also sampled every 0.1 s, 6.4 %
# with the pure-Python loop and 11.5 % in wall time.
NUMPY = Calibration(numpy_calibration_s, 0.0065, 0)


class Lap:
    """One timed piece of work."""

    __slots__ = ("wall_s", "scaled_s")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.scaled_s = 0.0


@contextlib.contextmanager
def lap(calibration: Calibration = PYTHON):
    """Time the block; the Lap holds wall and scaled seconds once it exits."""
    out = Lap()
    loop = calibration.loop
    inside: list[float] = []

    def sample(signum, frame):
        inside.append(loop())

    before = [loop() for _ in range(_BRACKET)]
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, calibration.every_s, calibration.every_s)
    t0 = perf_counter()
    try:
        yield out
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out.wall_s = elapsed - sum(inside)
    samples = before + inside + [loop() for _ in range(_BRACKET)]
    out.scaled_s = out.wall_s * calibration.reference_s * len(samples) / sum(samples)
