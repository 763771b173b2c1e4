"""A fixed reference computation that measures how fast the machine runs right now.

The shared machine the benchmark runs on changes speed by up to 2x, for
seconds to minutes at a time, because other guests contend for the cores'
caches and memory.  Every computation slows down together, the program's
and this one alike.  One pass of this computation is timed right before and
right after every job: an integer loop, reads at random places of an 8 MB
list of floats, and a small dict / sort / numpy / json mix.  It uses nothing
of the program, so a change to the program does not change it.  A job's
time at the reference speed -- the time it takes while a pass takes
``REF_PASS_S`` -- is its measured time times (``REF_PASS_S`` / p) ** e, where
p is the mean of the two passes around the job and e is ``ELASTICITY``.
Set-up time is scaled the same way, by the passes right after set-up.
"""

from __future__ import annotations

import json
import math
import random
from time import perf_counter

import numpy as np

#: one pass at the reference speed, in seconds: a quiet stretch of the 2-vCPU
#: guest the reference figures in README.md come from
REF_PASS_S = 0.0025

#: by how much of the pass time's change (in logs) job and set-up times move.
#: The pass slows more under contention than the workloads do.  Over 123
#: rounds of 35 separately started runs, spread over an hour, the slope of
#: log(round time) on log(mean pass time of the round), taken within each
#: workload, was 0.67 (step_models), 0.60 (sparse_sequences), 0.86
#: (small_elements) and 0.65 pooled.
ELASTICITY = 0.65

LOOP = 10_000
FLOATS = 1 << 18
READS = 4_000
KEYS = range(0, 1500, 3)


class Calibration:
    def __init__(self):
        rng = random.Random(0)
        self._floats = [float(i) for i in range(FLOATS)]
        self._index = [rng.randrange(FLOATS) for _ in range(READS)]

    def pass_s(self) -> float:
        """Time one pass of the reference computation."""
        t0 = perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i ^ (i >> 3)
        floats = self._floats
        total = 0.0
        for i in self._index:
            total += floats[i]
        d = {i: i * 0.5 for i in KEYS}
        roots = tuple(sorted(math.sqrt(v) for v in d.values() if v > 1.0))
        json.dumps({"v": roots[:100], "sum": float(np.abs(np.asarray(roots)).sum())})
        return perf_counter() - t0


def at_reference_speed(seconds: float, pass_before: float, pass_after: float,
                       elasticity: float) -> float:
    """A job's time scaled to the reference speed by the passes around it."""
    return seconds * (2 * REF_PASS_S / (pass_before + pass_after)) ** elasticity
