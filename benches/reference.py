"""The fixed reference loops that `hostspeed` pairs with measured work.

Two loops, because the host's slowdowns hit interpreter work and numpy
arithmetic differently, and every stage does some of both. In 2-minute
probes of each stage run in blocks of 0.45-1 s, the quartile spread of
medians over ten consecutive blocks, with each block divided by the
reference taken next to it, was 3-8% for the mean of the two loops, against
5-12% for the Python loop alone, 5-10% for the numpy loop alone and 8-27%
for wall time (see the README).

This module imports nothing from sttrack.
"""

from __future__ import annotations

import math
import time

# Each loop's time when the CPU the benchmark was written on ran at full
# speed (the 5th percentile of 2-minute probes), so reference seconds read
# close to wall seconds then.
REF_SECONDS = {"python": 0.0036, "numpy": 0.0012}


def python_loop() -> float:
    """Fixed interpreter work: float math, tuples and dict stores."""
    acc = 0.0
    table = {}
    for i in range(16_000):
        point = (i * 0.5, i * 0.25)
        acc += math.hypot(point[0] - 1.0, point[1] + 2.0)
        table[i & 255] = point
    return acc


_BUFFERS: dict = {}


def numpy_loop() -> float:
    """Fixed numpy work shaped like one training batch: (64, 10, 26) rows
    through a 26x64 layer, a ReLU, a sum and a tanh.

    It writes into buffers made on the first call. Allocating its arrays on
    every call, the loop took 4.8 ms in a fresh process and 1.8 ms in one
    whose heap had grown, so its time depended on the program's memory use.
    """
    import numpy as np

    b = _BUFFERS
    if not b:
        b["x"] = np.linspace(-1.0, 1.0, 64 * 10 * 26).reshape(64, 10, 26)
        b["w"] = np.linspace(-0.5, 0.5, 26 * 64).reshape(26, 64)
        b["layer"] = np.empty((64, 10, 64))
        b["hidden"] = np.empty((64, 64))
        b["out"] = np.empty((64, 64))
    acc = 0.0
    for _ in range(12):
        np.matmul(b["x"], b["w"], out=b["layer"])
        np.maximum(b["layer"], 0.0, out=b["layer"])
        np.sum(b["layer"], axis=1, out=b["hidden"])
        np.tanh(b["hidden"], out=b["out"])
        b["out"] *= 0.5
        b["out"] += b["hidden"]
        acc += float(b["out"].sum())
    return acc


LOOPS = {"python": python_loop, "numpy": numpy_loop}


def slowness() -> float:
    """How many times slower than at full speed the host runs now: the mean,
    over both loops, of the loop's time over its REF_SECONDS. Each loop's
    time is the faster of two runs, so a single preemption, or the first
    call's set-up, does not count as a slow host."""
    total = 0.0
    for kind, loop in LOOPS.items():
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - start)
        total += best / REF_SECONDS[kind]
    return total / len(LOOPS)
