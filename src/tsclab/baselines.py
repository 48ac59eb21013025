"""Non-learning reference controllers: fixed-time cycling, max pressure,
and a seeded uniform-random control condition.

All three expose ``decide(observation, current_phase, t, topo)`` so the
episode runner can drive them through the same loop as the learned policy.
"""

from __future__ import annotations

import numpy as np

from .sim import Topology


class FixedTimeController:
    """Cycle through phases, ``t_fixed`` seconds each."""

    def __init__(self, t_fixed: float = 10.0):
        if t_fixed <= 0:
            raise ValueError("t_fixed must be > 0")
        self.t_fixed = t_fixed

    def decide(self, observation, current_phase, t, topo: Topology) -> int:
        return int(t // self.t_fixed) % topo.n_phases


class MaxPressureController:
    def decide(self, observation, current_phase, t, topo: Topology) -> int:
        """Phase with the largest total stopped queue over its lanes.

        ``observation`` is :meth:`Intersection.observe`'s (n_lanes, 4) count
        array. Downstream lanes are outside the model, so pressure reduces to
        the stopped count. Ties go to the lowest phase index.
        """
        return int(np.argmax(topo.phase_lanes @ observation[:, 0]))


class RandomController:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def decide(self, observation, current_phase, t, topo: Topology) -> int:
        return int(self.rng.integers(0, topo.n_phases))
