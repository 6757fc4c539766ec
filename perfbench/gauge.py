"""Machine-speed gauge for scaling end-to-end times.

On a shared host the CPU runs faster or slower for stretches of seconds to
minutes, and pure Python and NumPy code slow down together. The gauge is a
fixed pure-Python loop that no change to smmport can speed up or slow
down. A run samples it between ops and reports each op's time as
``raw * REF_MS / g``, with g the median gauge sampled within GAUGE_WINDOW_S
of the op: the time the op would take on a machine where the gauge takes
REF_MS. Each set-up time is scaled by the mean of two gauges that bracket
it: one taken by ``run.py`` just before it starts the process, one taken
by the process just after its set-up. The raw times are kept in the run's
record.
"""

from __future__ import annotations

import statistics
import time

REF_MS = 2.0  # nominal gauge time; any fixed value gives the same ratios
EVERY_S = 0.25  # sample the gauge before an op when this long has passed
GAUGE_WINDOW_S = 2.0  # samples this close to an op set its scale
_LOOP = 30_000
_PASSES = 3


def gauge_ms() -> float:
    """Fastest of a few passes of the loop, so that an interrupt is ignored."""
    best = float("inf")
    for _ in range(_PASSES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def scaled_ms(ops: list[dict], gauges: list) -> list[float]:
    """Each op's wall time scaled by the median gauge sampled near it.

    "Near" is within GAUGE_WINDOW_S of the op's ends; with no sample that
    close, the nearest one. ``gauges`` holds (perf_counter, ms) pairs.
    """
    out = []
    for op in ops:
        mid = op["t"] + op["ms"] / 2e3
        reach = GAUGE_WINDOW_S + op["ms"] / 2e3
        near = [g for t, g in gauges if abs(t - mid) <= reach]
        if not near:
            near = [min(gauges, key=lambda tg: abs(tg[0] - mid))[1]]
        out.append(op["ms"] * REF_MS / statistics.median(near))
    return out
