import numpy as np
import pytest

from tsclab.baselines import (
    FixedTimeController,
    MaxPressureController,
    RandomController,
    fixed_time_phase,
    max_pressure_phase,
    random_phase,
)
from tsclab.sim import STREAM_DEMAND, DemandProfile, Intersection, stream_rng


def observation(toy8, loads):
    """Build an observation with given stopped counts per lane."""
    demand = DemandProfile.from_dict({"kind": "schedule", "spawns": []})
    sim = Intersection(toy8, demand, stream_rng(0, STREAM_DEMAND, 0))
    for lane_id, n in loads.items():
        for i in range(n):
            sim._add_vehicle(lane_id, 0.0)
            sim.vehicles[lane_id][i].position = 7.0 * i
            sim.vehicles[lane_id][i].speed = 0.0
    return sim.observe()


class TestFixedTime:
    def test_cycles_through_phases(self):
        seq = [fixed_time_phase(t, 10.0, 8) for t in range(0, 160, 10)]
        assert seq == [0, 1, 2, 3, 4, 5, 6, 7] * 2

    def test_holds_within_period(self):
        assert fixed_time_phase(0.0, 10.0, 8) == 0
        assert fixed_time_phase(9.9, 10.0, 8) == 0
        assert fixed_time_phase(10.0, 10.0, 8) == 1

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            fixed_time_phase(0.0, 0.0, 8)

    def test_controller_wrapper(self, toy8):
        ctl = FixedTimeController(t_fixed=20.0)
        obs = observation(toy8, {})
        assert ctl.decide(obs, 0, 25.0, toy8) == 1


class TestMaxPressure:
    def test_picks_heaviest_phase(self, toy8):
        obs = observation(toy8, {"E_T": 5, "W_T": 4})
        # ETWT (index 4) serves both eastern and western through lanes
        assert max_pressure_phase(obs, toy8) == 4

    def test_tie_goes_to_lowest_index(self, toy8):
        obs = observation(toy8, {"N_T": 2, "S_T": 1, "E_T": 2, "W_T": 1})
        # NTST (0) and ETWT (4) both see pressure 3
        assert max_pressure_phase(obs, toy8) == 0

    def test_empty_network_gives_phase_zero(self, toy8):
        obs = observation(toy8, {})
        assert max_pressure_phase(obs, toy8) == 0

    def test_missing_lane_rejected(self, toy8):
        obs = dict(observation(toy8, {}))
        del obs["N_L"]
        with pytest.raises(KeyError):
            max_pressure_phase(obs, toy8)

    def test_controller_wrapper(self, toy8):
        ctl = MaxPressureController()
        obs = observation(toy8, {"N_L": 3, "S_L": 2})
        assert ctl.decide(obs, 0, 0.0, toy8) == 1  # NLSL


class TestRandom:
    def test_uniform_support_and_repeatability(self, toy8):
        rng1 = np.random.Generator(np.random.PCG64(4))
        rng2 = np.random.Generator(np.random.PCG64(4))
        picks1 = [random_phase(rng1, 8) for _ in range(400)]
        picks2 = [random_phase(rng2, 8) for _ in range(400)]
        assert picks1 == picks2
        assert set(picks1) == set(range(8))

    def test_controller_wrapper(self, toy8):
        ctl = RandomController(np.random.Generator(np.random.PCG64(1)))
        obs = observation(toy8, {})
        picks = {ctl.decide(obs, 0, float(t), toy8) for t in range(100)}
        assert picks <= set(range(8)) and len(picks) > 1
