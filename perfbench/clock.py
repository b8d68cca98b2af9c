"""Op timings corrected for the speed the machine had at the time.

A shared machine can run the same pure-Python loop at two speeds about
1.6x apart, switching every ten to thirty seconds as neighbours come and
go. Raw wall times then move more between two runs of one commit than a
real regression would. So every timed interval is bracketed by a short,
fixed reference computation (dict lookups, float arithmetic and a string
sort, the kind of work ranking and index building do), and the interval
is scaled by the speed the references show around it. The reported times
are thus "seconds at reference speed"; the raw wall times and the speed
factors are printed beside them.

The program's ops react more strongly to the machine's speed than the
small reference does: over 39 runs of the three workloads on a two-vCPU
2.0 GHz Xeon host, log raw op time fell 1.3-1.6 times as fast as log
reference speed rose (correlation 0.97). ``SENSITIVITY`` carries that
measured slope into the correction.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

REFERENCE_NOMINAL_S = 0.0012  # about one reference pass on a 2 GHz Xeon core
SENSITIVITY = 1.5
_REFERENCE_KEYS = [f"d{i:06d}" for i in range(0, 21000, 7)]
random.Random(0).shuffle(_REFERENCE_KEYS)
_REFERENCE_TABLE = {key: position for position, key in enumerate(_REFERENCE_KEYS)}


def _reference_pass() -> float:
    # Allocates almost nothing: an allocating reference slows down by half
    # once the process holds a large heap, which would tie the correction
    # to the program's memory use. No collection may land in it either.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0.0
        for key in _REFERENCE_KEYS:
            total += _REFERENCE_TABLE[key] * 0.5
        _REFERENCE_KEYS[:].sort()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def reference_s() -> float:
    """Median of three reference passes, in seconds."""
    return statistics.median(_reference_pass() for _ in range(3))


class Clock:
    """Times calls back to back and scales each to reference speed.

    A reference is measured before the first call and after each one, so
    every call sits between two; its speed factor is
    ``REFERENCE_NOMINAL_S`` over their mean, to the power ``SENSITIVITY``.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.factors: list[float] = []
        self._before = reference_s()

    def time(self, fn, *args) -> None:
        start = perf_counter()
        fn(*args)
        self.raw.append(perf_counter() - start)
        after = reference_s()
        self.factors.append((2 * REFERENCE_NOMINAL_S / (self._before + after)) ** SENSITIVITY)
        self._before = after

    def corrected(self, first: int = 0) -> list[float]:
        """Durations of calls first, first + 1, ... at reference speed, in seconds."""
        return [raw * factor for raw, factor in zip(self.raw[first:], self.factors[first:])]
