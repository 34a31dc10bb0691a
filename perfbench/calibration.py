"""A fixed slice of interpreter work for correcting timings for host contention.

On a shared host, other tenants on the same physical core can slow this
process down by more than half for tens of seconds at a time, and a whole
run can pass without a free moment.  The benchmark runs this slice next to
each timed span and reports the span in milliseconds of a reference core:
its time scaled by REFERENCE_SLICE_S over the slices run around it.  The
ratio of a span to its neighbouring slices stays put while the host's speed
moves, so the spread between runs shrinks; the scale only fixes the unit.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

#: the slice's time on a free core of the host the baseline was recorded on
#: (Intel Xeon, Python 3.11); it sets the unit and nothing else
REFERENCE_SLICE_S = 1.2e-3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _angle(p: _Point, k: float) -> float:
    r = math.sqrt(p.x * p.x + p.y * p.y) + k
    return math.atan2(p.y, r) if r > 0.0 else 0.0


def _slice() -> None:
    cells = []
    for i in range(1500):
        cells.append(format(_angle(_Point(i * 0.1, 1.0 - i * 0.01), 0.5), ".12g"))
    ",".join(cells)


def calibrate(budget_s: float = 0.0) -> list[float]:
    """Seconds of each slice run until ``budget_s`` has passed (at least one slice).

    The slice shares no code with vdwshock, but its mix (small objects, calls,
    float math, number formatting, joins) is the one the CLI spends its time
    on, so it slows down with the program when other tenants contend for the
    core.  The garbage collector is paused during each slice: a collection
    there would cost in proportion to the program's live heap, and the
    correction must depend on the host's speed alone.
    """
    times = []
    end = time.perf_counter() + budget_s
    gc_enabled = gc.isenabled()
    while True:
        gc.disable()
        t0 = time.perf_counter()
        _slice()
        t1 = time.perf_counter()
        if gc_enabled:
            gc.enable()
        times.append(t1 - t0)
        if t1 >= end:
            return times


def correct(spans: list[float], around: list[tuple[list[float], list[float]]]) -> list[float]:
    """Each span in reference-core seconds, from the median slices just before and after it."""
    return [
        span * REFERENCE_SLICE_S / (0.5 * (statistics.median(before) + statistics.median(after)))
        for span, (before, after) in zip(spans, around)
    ]
