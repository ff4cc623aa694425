"""Host-speed calibration for timings taken on a shared machine.

On a shared host, other tenants slow execution itself: CPU time grows
with wall time, by up to half, in phases of seconds that drift over
minutes. A fixed pure-Python reference loop, timed right before and
right after each measured operation on the same CPU, tracks that speed.
Each timing is rescaled by ``REFERENCE_S / loop time``, so it reads as
seconds on a core that runs the loop in ``REFERENCE_S``. The loop uses
no code of the program under test, so a change to the program moves
the rescaled time exactly as it moves the raw time.
"""

import statistics
import time

#: Time of one reference loop on an uncontended core of the machine the
#: benchmark was written on (a 2.1 GHz Xeon vCPU, Python 3.11).  Only a
#: scale: it makes rescaled times read as seconds on that core.
REFERENCE_S = 0.0027


def _reference_work() -> int:
    total = 0
    table = {}
    items = []
    for i in range(12000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        items.append(i * 3 % 11)
        total += len(items) & 7
    items.sort()
    return total + sum(table.values())


def loop_time() -> float:
    """The median of three timed runs of the reference loop, in seconds."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def rescale(seconds: float, *loop_times: float) -> float:
    """``seconds`` rescaled by the mean of the adjacent loop times."""
    return seconds * REFERENCE_S * len(loop_times) / sum(loop_times)
