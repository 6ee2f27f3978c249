"""Calibration loops: the speed of this process's core, measured next to
each timed part.

The host runs a benchmark process's core 1.3-1.6x faster or slower for
seconds to minutes at a time, and a whole run can fall into one such
spell, so a median over the run cannot remove it.  A calibration loop is
a fixed piece of work of the same kind as the part it calibrates.  It is
timed right before and right after the part, and the part's time is
scaled by the loop's reference time over the mean of those two: the time
the part would take on a core of reference speed.

Kinds of work do not slow down alike: interpreted Python slows most,
array code that streams memory least.  So each workload names the loop
whose kind of work dominates it (``calibration`` in ``workloads.py``);
set-up, which is mostly imports, uses the interpreter loop.
"""

import time


def interpreter_loop():
    """Pure-Python arithmetic, like the per-replica path and imports."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def array_loop():
    """Whole-array arithmetic on 2e6 points, like propagate_batch and wrap."""
    import numpy as np

    x = np.linspace(0.0, 100.0, 2_000_000)
    y = x.copy()
    start = time.perf_counter()
    for _ in range(3):
        np.multiply(x, 1.0001, out=y)
        np.add(y, 0.5, out=y)
        np.mod(y, 100.0, out=y)
    return time.perf_counter() - start


def mask_loop():
    """Boolean selection of one replica's points, like the per-replica
    split of a chunk."""
    import numpy as np

    ids = np.repeat(np.arange(2000), 90)
    pts = np.random.default_rng(0).random((ids.size, 2))
    start = time.perf_counter()
    for r in range(0, 2000, 10):
        pts[ids == r]
    return time.perf_counter() - start


# kind: (loop, its reference time in s).  The reference times are the
# loops' median times on the machine this benchmark was written on,
# rounded; they set the scale of calibrated times and never change.
LOOPS = {
    "interpreter": (interpreter_loop, 0.10),
    "array": (array_loop, 0.12),
    "mask": (mask_loop, 0.12),
}


def calibrated(seconds, kind, before, after):
    """``seconds`` at reference speed, from the loop times around it."""
    return seconds * LOOPS[kind][1] / ((before + after) / 2.0)
