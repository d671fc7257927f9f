"""Fixed reference work that gauges how fast the host runs right now.

The benchmark's host is a share of a machine. Load elsewhere on it moves a
vCPU's speed for interpreter-bound code by up to 1.8x, switching between a
few states every few seconds to minutes. Run-to-run spread of raw times is
therefore set by the rest of the machine, not by the program. A child
gauges the host with a fixed piece of reference work right after its
set-up and right before and after every timed call, on the vCPU it runs on,
and the parent divides each time by that slowdown raised to a fixed
exponent, so that a reported time is in seconds at the nominal speed below.
A change to the program moves the timed call and not the reference work; a
change of host state moves both.

The reference work is Python loops over tuples and a dict plus small numpy
calls. Code that spends its time in numpy passes over large arrays follows
the host's state less than that, so each workload, and set-up, has its own
exponent: the slope of log time on log slowdown, fitted once over calls
spread across the host's states (``run.py`` holds them).

This code, ``NOMINAL_S`` and the exponents are part of the benchmark's
definition: change any and every earlier measurement is on another scale.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median seconds of one chunk on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4), in the slower of the two states its host was seen to switch
# between. Only the scale of the reported times depends on it.
NOMINAL_S = 3.6e-3
# Chunks per gauge; the median of them is the reading.
REPS = 5

_SMALL = np.arange(64, dtype=np.int64)


def _chunk() -> int:
    acc = 0
    table: dict = {}
    row = tuple(range(256))
    for i in range(300):
        key = tuple((x ^ i) & 255 for x in row[:64])
        table[key[0]] = key
        acc += int((_SMALL * i).sum()) + len(table)
    return acc


def slowdown() -> float:
    """Median time of REPS chunks over their nominal time."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / NOMINAL_S
