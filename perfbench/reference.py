"""A fixed load that gauges how fast the shared host runs at the moment.

On a shared host the same round of work can take 1.5 times as long in one
minute as in the next, because other tenants load the same cores. The
benchmark times this load before the first round, between rounds and
after the last one, and scales each round's times by the host's speed
around it (see run.py). The load imports nothing from tsclab, so a change
to the program never changes it. It mixes the two kinds of work the
program does: small NumPy vector operations, as in the sampler, and a
pure-Python loop over lists and dicts, as in the simulator. Both stay in
cache and use one thread.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median of ``sample()`` over 40 calls on the reference machine of README.md
# (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0159

# How far the program's times move with the reference's, as a power: a
# round is scaled by (REFERENCE_S / reference time around it) ** SENSITIVITY.
# The load is small and stays in cache, so a busy host slows it more than
# the program. The least-squares slope of log round time against log
# reference time was 0.39 to 0.65 over the rounds of 55 runs of the three
# workloads, and 0.5 gave the smallest run-to-run spread overall on the
# first 25 of them.
SENSITIVITY = 0.5

_RNG = np.random.default_rng(0)
_W1 = _RNG.standard_normal((64, 16))
_W2 = _RNG.standard_normal((40, 64))


def _numpy_part(steps: int = 300) -> float:
    x = np.full(16, 0.1)
    acc = 0.0
    for i in range(steps):
        z = _W2 @ np.tanh(_W1 @ x)
        p = np.exp(z - z.max())
        p /= p.sum()
        k = int(np.searchsorted(np.cumsum(p), 0.37))
        x[i % 16] = p[k]
        acc += p[k]
    return acc


def _python_part(steps: int = 30000) -> int:
    lanes = {}
    queue = []
    for i in range(steps):
        queue.append(i % 97)
        if len(queue) > 50:
            lanes[queue.pop(0)] = i * 0.5
    return len(lanes)


def sample(reps: int = 5) -> float:
    """Median seconds of one pass of the load over ``reps`` passes."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _numpy_part()
        _python_part()
        times.append(perf_counter() - t0)
    return statistics.median(times)
