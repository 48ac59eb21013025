import math
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsclab
from tsclab.config import ExperimentConfig
from tsclab.sim import (
    ARRIVAL_BLOCK_STEPS,
    JAM_SPACING,
    SPEED_STOPPED,
    STREAM_DEMAND,
    DemandProfile,
    Intersection,
    TopologyError,
    build_topology,
    stream_rng,
)


def schedule_sim(topo, spawns, seed=0):
    demand = DemandProfile.from_dict(
        {"kind": "schedule", "spawns": [{"time": t, "lane": lane} for t, lane in spawns]}
    )
    return Intersection(topo, demand, stream_rng(seed, STREAM_DEMAND, 0))


def empty_sim(topo, seed=0):
    return schedule_sim(topo, [], seed)


def run_steps(sim, start, stop):
    """Step ``sim`` from second ``start`` to ``stop``, switching phase every 30 s."""
    for t in range(start, stop):
        if t % 30 == 0:
            sim.set_phase((t // 30) % sim.topo.n_phases)
        sim.step()


class TestTopology:
    def test_presets(self, toy8, toy4):
        assert toy8.n_phases == 8
        assert len(toy8.lanes) == 8
        assert toy4.n_phases == 4
        # every lane covered by at least one phase
        for topo in (toy8, toy4):
            covered = set()
            for ph in topo.phases:
                covered |= set(ph.allowed_lanes)
            assert covered == set(topo.lane_ids)

    def test_phase_table_descriptions(self, toy8):
        table = {p.mnemonic: p.description for p in toy8.phases}
        assert table["NTST"] == "Northern and southern through lanes"
        assert table["ETEL"] == "Eastern through and left-turn lanes"
        assert table["WTWL"] == "Western through and left-turn lanes"

    def test_overrides(self):
        topo = build_topology("toy8", road_length=150.0, yellow_duration=3.0)
        assert topo.yellow_duration == 3.0
        assert all(l.road_length == 150.0 for l in topo.lanes)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_topology("motorway")

    def test_unknown_override_rejected(self):
        with pytest.raises(TopologyError, match="unknown topology overrides"):
            build_topology("toy8", road_lenght=150.0)

    def test_overrides_apply_to_inline_topology(self):
        spec = {
            "lanes": [
                {"lane_id": "A", "approach": "N", "movement": "through", "road_length": 200},
                {"lane_id": "B", "approach": "S", "movement": "left"},
            ],
            "phases": [{"mnemonic": "AA", "allowed_lanes": ["A"]}, {"mnemonic": "BB", "allowed_lanes": ["B"]}],
            "yellow_duration": 4.0,
        }
        assert [lane.road_length for lane in build_topology(spec).lanes] == [200.0, 300.0]
        topo = build_topology(spec, road_length=150.0, yellow_duration=3.0)
        assert [lane.road_length for lane in topo.lanes] == [150.0, 150.0]
        assert topo.yellow_duration == 3.0

    def test_phase_index_out_of_order_rejected(self):
        spec = {
            "lanes": [
                {"lane_id": "A", "approach": "N", "movement": "through"},
                {"lane_id": "B", "approach": "S", "movement": "through"},
            ],
            "phases": [
                {"index": 1, "mnemonic": "AA", "allowed_lanes": ["A"]},
                {"index": 0, "mnemonic": "BB", "allowed_lanes": ["B"]},
            ],
        }
        with pytest.raises(TopologyError, match="out of order"):
            build_topology(spec)

    def test_duplicate_lane_rejected(self, toy8):
        spec = {
            "name": "bad",
            "lanes": [
                {"lane_id": "A", "approach": "N", "movement": "through"},
                {"lane_id": "A", "approach": "S", "movement": "through"},
            ],
            "phases": [
                {"index": 0, "mnemonic": "AA", "description": "a", "allowed_lanes": ["A"]}
            ],
        }
        with pytest.raises(TopologyError):
            build_topology(spec)

    @pytest.mark.parametrize("lanes, phases", [([], []), ([{"lane_id": "A"}], [])])
    def test_empty_topology_rejected(self, lanes, phases):
        with pytest.raises(TopologyError, match="at least one lane and one phase"):
            build_topology({"lanes": lanes, "phases": phases})

    def test_lane_listed_twice_in_a_phase_rejected(self):
        spec = {
            "lanes": [{"lane_id": "A"}, {"lane_id": "B"}],
            "phases": [{"mnemonic": "AA", "allowed_lanes": ["A", "B", "A"]}],
        }
        with pytest.raises(TopologyError, match="AA: a lane is listed twice"):
            build_topology(spec)

    def test_phase_lanes_matrix(self, toy4):
        topo = build_topology("toy4")
        matrix = topo.phase_lanes
        assert matrix.shape == (topo.n_phases, len(topo.lanes)) and matrix.dtype == np.int64
        for phase in topo.phases:
            served = [topo.lane_ids[i] for i in np.flatnonzero(matrix[phase.index])]
            assert sorted(served) == sorted(phase.allowed_lanes)
        assert set(np.unique(matrix)) == {0, 1}
        assert topo.phase_lanes is matrix  # built once
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1
        # not a field: equality and hashing still compare the fields alone
        assert topo == toy4 and hash(topo) == hash(toy4)
        assert "phase_lanes" not in asdict(topo)

    def test_phase_names(self, toy4):
        topo = build_topology("toy4")
        by_mnemonic, needles = names = topo.phase_names
        assert dict(by_mnemonic) == {"NUTRLSUTRL": 0, "NUTLSUTL": 1, "EUTRLWUTRL": 2, "EUTLWUTL": 3}
        # each phase's mnemonic, then its description, in table order
        assert len(needles) == 8 and needles[2:4] == (
            ("nutlsutl", 1), ("northern and southern u-turn, through, and left-turn lanes", 1)
        )
        assert topo.phase_names is names  # built once
        with pytest.raises(TypeError):
            by_mnemonic["X"] = 0
        assert topo == toy4 and "phase_names" not in asdict(topo)

    def test_uncovered_lane_rejected(self):
        spec = {
            "name": "bad",
            "lanes": [
                {"lane_id": "A", "approach": "N", "movement": "through"},
                {"lane_id": "B", "approach": "S", "movement": "through"},
            ],
            "phases": [
                {"index": 0, "mnemonic": "AA", "description": "a", "allowed_lanes": ["A"]}
            ],
        }
        with pytest.raises(TopologyError):
            build_topology(spec)


class TestDynamics:
    def test_single_vehicle_crossing_time(self, toy8):
        # spawned at t=0, 300 m at 10 m/s, head can depart once it reaches
        # the stop line; it enters during step 1 so it arrives at t=31
        sim = schedule_sim(toy8, [(0.0, "N_T")])
        for _ in range(40):
            sim.step()
        assert len(sim.completed) == 1
        veh = sim.completed[0]
        assert veh.completion_time == 31.0
        assert veh.spawn_time == 0.0

    def test_red_lane_blocks_departure(self, toy8):
        # E_T is not in phase 0 (NTST): the vehicle queues at the line
        sim = schedule_sim(toy8, [(0.0, "E_T")])
        for _ in range(60):
            sim.step()
        assert len(sim.completed) == 0
        veh = sim.vehicles["E_T"][0]
        assert veh.position == 0.0
        assert veh.speed < 0.1

    def test_departure_headway_rate(self, toy8):
        # five vehicles dropped right at the line on a served lane leave
        # one every saturation_headway seconds, at most one per step
        sim = schedule_sim(toy8, [])
        for i in range(5):
            sim._add_vehicle("N_T", 0.0)
            sim.vehicles["N_T"][i].position = float(i)  # essentially at the line
            sim.vehicles["N_T"][i].speed = 0.0
        counts = []
        for _ in range(12):
            before = len(sim.completed)
            sim.step()
            counts.append(len(sim.completed) - before)
        assert max(counts) <= 1
        assert len(sim.completed) == 5
        times = [v.completion_time for v in sim.completed]
        gaps = np.diff(times)
        assert np.all(gaps >= 2.0)

    def test_jam_spacing_holds_queue_apart(self, toy8):
        sim = schedule_sim(toy8, [])
        for i in range(4):
            sim._add_vehicle("E_T", 0.0)  # red lane under phase 0
            sim.vehicles["E_T"][i].position = 264.0 + 12.0 * i  # front first
        for _ in range(50):
            sim.step()
        pos = sorted(v.position for v in sim.vehicles["E_T"])
        assert pos[0] == 0.0
        for a, b in zip(pos, pos[1:]):
            assert b - a >= JAM_SPACING - 1e-9

    def test_yellow_is_five_unserved_steps(self, toy8):
        # a ready vehicle on the newly requested phase's lane cannot leave
        # during the 5 yellow steps and departs on the first green step
        sim = schedule_sim(toy8, [])
        sim._add_vehicle("E_T", 0.0)
        sim.vehicles["E_T"][0].position = 0.5
        sim.vehicles["E_T"][0].speed = 0.0
        sim.set_phase(4)  # ETWT serves E_T after the changeover
        assert sim.yellow_remaining == 5.0
        for expect_served in (False, False, False, False, False, True):
            sim.step()
            if expect_served:
                assert len(sim.completed) == 1
                assert sim.completed[0].completion_time == 6.0
            else:
                assert len(sim.completed) == 0
        assert sim.active_phase == 4
        assert sim.pending_phase is None

    def test_same_phase_request_is_noop(self, toy8):
        sim = empty_sim(toy8)
        sim.set_phase(0)
        assert sim.yellow_remaining == 0.0
        assert sim.pending_phase is None

    def test_yellow_blocks_old_phase_too(self, toy8):
        sim = schedule_sim(toy8, [])
        sim._add_vehicle("N_T", 0.0)  # served under current phase 0
        sim.vehicles["N_T"][0].position = 0.5
        sim.vehicles["N_T"][0].speed = 0.0
        sim.set_phase(4)
        for _ in range(5):
            sim.step()
        assert len(sim.completed) == 0  # no lane is served during yellow

    def test_phase_bounds(self, toy8):
        sim = empty_sim(toy8)
        with pytest.raises(ValueError):
            sim.set_phase(8)
        with pytest.raises(ValueError):
            sim.set_phase(-1)

    def test_conservation_under_poisson_load(self, toy8):
        demand = DemandProfile.from_dict({"kind": "poisson", "base_rate": 0.1})
        sim = Intersection(toy8, demand, stream_rng(3, STREAM_DEMAND, 0))
        for t in range(600):
            if t % 40 == 0:
                sim.set_phase((t // 40) % 8)
            sim.step()
            assert sim.conservation_ok()
        assert sim.injected_count > 0

    def test_zero_yellow_switches_at_once(self):
        topo = build_topology("toy8", yellow_duration=0.0)
        sim = schedule_sim(topo, [])
        sim._add_vehicle("E_T", 0.0)
        sim.vehicles["E_T"][0].position = 0.5
        sim.vehicles["E_T"][0].speed = 0.0
        sim.set_phase(4)  # ETWT serves E_T
        assert sim.active_phase == 4 and sim.pending_phase is None
        sim.step()
        assert len(sim.completed) == 1

    def test_conservation_violation_raises_under_optimize(self):
        """The check is code, not an assert: it still raises under python -O."""
        code = textwrap.dedent(
            """
            from tsclab.sim import STREAM_DEMAND, DemandProfile, Intersection, build_topology, stream_rng
            spawns = [{"time": 0.0, "lane": "E_T"}, {"time": 0.0, "lane": "E_T"}]
            demand = DemandProfile.from_dict({"kind": "schedule", "spawns": spawns})
            sim = Intersection(build_topology("toy8"), demand, stream_rng(0, STREAM_DEMAND, 0))
            sim.step()
            del sim.vehicles["E_T"][0]
            try:
                sim.step()
            except RuntimeError as exc:
                print("raised:", exc)
            """
        )
        src = str(Path(tsclab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.startswith("raised: vehicle conservation violated at t=2")


LANES8 = [f"{a}_{m}" for a in "NSEW" for m in "TL"]


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**16),
    yellow=st.sampled_from([0.0, 2.0, 5.0]),
    switches=st.dictionaries(st.integers(0, 299), st.integers(0, 7), max_size=30),
    spawns=st.lists(st.tuples(st.integers(0, 299), st.sampled_from(LANES8)), max_size=40),
)
def test_lanes_stay_front_first(rate, seed, yellow, switches, spawns):
    """Each lane lists its vehicles front first: positions never decrease
    along the list after any step, so the step needs no sort."""
    topo = build_topology("toy8", yellow_duration=yellow)
    demand = DemandProfile(
        rates={lid: rate for lid in LANES8},
        spawns=sorted((float(t), lid) for t, lid in spawns),
    )
    sim = Intersection(topo, demand, stream_rng(seed, STREAM_DEMAND, 0))
    for t in range(300):
        if t in switches:
            sim.set_phase(switches[t])
        sim.step()
        for lane in sim.vehicles.values():
            assert all(a.position <= b.position for a, b in zip(lane, lane[1:]))


def reference_step(sim):
    """One step as two plain passes: move every lane with ``max``/``min``,
    draw arrivals lane by lane through ``rate_at``, then count the queue."""
    t_next = sim.time + 1.0
    served = ()
    if sim.yellow_remaining > 0:
        sim.yellow_remaining -= 1.0
        if sim.yellow_remaining <= 1e-9:
            sim.yellow_remaining = 0.0
            if sim.pending_phase is not None:
                sim.active_phase, sim.pending_phase = sim.pending_phase, None
    else:
        served = sim.topo.phases[sim.active_phase].allowed_lanes
    for lane in sim.topo.lanes:
        survivors, front_limit = [], 0.0
        for veh in sim.vehicles[lane.lane_id]:
            candidate = veh.position - lane.free_flow_speed
            if (
                not survivors
                and candidate <= 0.0
                and lane.lane_id in served
                and t_next - sim._last_departure[lane.lane_id] >= lane.saturation_headway
            ):
                veh.completion_time, veh.position, veh.speed = t_next, 0.0, lane.free_flow_speed
                sim._last_departure[lane.lane_id] = t_next
                sim.completed.append(veh)
                continue
            new_pos = min(max(candidate, front_limit), veh.position)
            veh.speed, veh.position = veh.position - new_pos, new_pos
            survivors.append(veh)
            front_limit = new_pos + JAM_SPACING
        sim.vehicles[lane.lane_id] = survivors
    spawns = sim.demand.spawns
    while sim._spawn_cursor < len(spawns) and spawns[sim._spawn_cursor][0] <= t_next:
        when, lane_id = spawns[sim._spawn_cursor]
        if when > sim.time or sim.time == when == 0.0:
            sim._add_vehicle(lane_id, when)
        sim._spawn_cursor += 1
    for lid in sim.topo.lane_ids:
        rate = sim.demand.rate_at(lid, sim.time)
        if rate > 0:
            for _ in range(int(sim.rng.poisson(rate))):
                sim._add_vehicle(lid, t_next)
    sim.time = t_next
    stopped = sum(v.speed < SPEED_STOPPED for vs in sim.vehicles.values() for v in vs)
    return stopped / len(sim.topo.lanes)


def _vehicles(sim):
    return [(v.vid, v.lane, v.position, v.speed) for vs in sim.vehicles.values() for v in vs]


_EDGE = st.one_of(st.integers(0, 300).map(float), st.floats(0.0, 300.0))


@settings(max_examples=40, deadline=None)
@given(
    # 12.0 takes NumPy's other Poisson algorithm (PTRS, for rates >= 10)
    rates=st.just([]) | st.lists(st.sampled_from([0.0, 0.4, 12.0]) | st.floats(0.0, 0.4), min_size=8, max_size=8),
    surges=st.lists(
        st.tuples(_EDGE, _EDGE, st.dictionaries(st.sampled_from(LANES8), st.floats(0.0, 0.4))),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**16),
    yellow=st.sampled_from([0.0, 2.0, 5.0]),
    free_flow_speed=st.sampled_from([0.05, 10.0]),
    switches=st.dictionaries(st.integers(0, 299), st.integers(0, 7), max_size=30),
    spawns=st.lists(st.tuples(st.integers(0, 299), st.sampled_from(LANES8)), max_size=40),
)
def test_fused_step_matches_two_pass_reference(rates, surges, seed, yellow, free_flow_speed, switches, spawns):
    """The step's own queue count, its cached arrival rates and its lean lane
    update match a two-pass reference: the same queue and vehicles after
    every step, also on a fork taken mid-surge. The arrivals are drawn a
    block of steps ahead, so the live generator runs ahead of the
    reference's until the block is used up, and then matches it."""
    topo = build_topology("toy8", yellow_duration=yellow, free_flow_speed=free_flow_speed)
    surges = [(min(a, b), max(a, b), lane_rates) for a, b, lane_rates in surges]

    def new_sim():
        demand = DemandProfile(
            rates=dict(zip(LANES8, rates)),
            surges=surges,
            spawns=sorted([(0.0, "N_T")] + [(float(t), lid) for t, lid in spawns]),
        )
        return Intersection(topo, demand, stream_rng(seed, STREAM_DEMAND, 0))

    sim, ref = new_sim(), new_sim()
    start, end, _ = surges[0]
    snapshot_at = min(max(int((start + end) / 2), 1), 299)
    forked = None
    for t in range(300):
        if t == snapshot_at:
            forked = sim.fork()
        for s in (sim, ref, forked):
            if s is not None and t in switches:
                s.set_phase(switches[t])
        queue = sim.step()
        assert queue == sim.queue_length()
        assert queue == reference_step(ref)
        assert _vehicles(sim) == _vehicles(ref)
        if sim._block_row == len(sim._block):
            assert sim.rng.bit_generator.state == ref.rng.bit_generator.state
        if forked is not None:
            assert forked.step() == queue
            assert _vehicles(forked) == _vehicles(sim)
            assert forked.rng.bit_generator.state == sim.rng.bit_generator.state
    assert sim.injected_count == ref.injected_count
    assert asdict(forked.finalize_metrics()) == asdict(sim.finalize_metrics())


def _step_with_reference(sim, ref, steps, switches=None):
    """Step ``sim`` and ``ref`` (by :func:`reference_step`) ``steps`` times, requesting
    ``switches[k]`` before step k; the queue and every vehicle's id, lane, position
    and speed must agree after each step."""
    for k in range(steps):
        if switches and k in switches:
            sim.set_phase(switches[k])
            ref.set_phase(switches[k])
        queue = sim.step()
        assert queue == reference_step(ref) == sim.queue_length()
        assert _vehicles(sim) == _vehicles(ref)


class TestSettledPrefix:
    """An unserved lane's pass starts behind the vehicles that did not move
    in the last step; these check that the skip leaves every step as the
    two-pass reference computes it."""

    @pytest.mark.parametrize("free_flow_speed", [10.0, 0.05])
    def test_jammed_red_lanes_then_served(self, free_flow_speed):
        """Phase 0 is held until the red lanes jam, then each other phase is
        served in turn, each change through a 5 s yellow."""
        topo = build_topology("toy8", free_flow_speed=free_flow_speed)

        def new_sim():
            return Intersection(topo, DemandProfile(base_rate=0.3), stream_rng(11, STREAM_DEMAND, 0))

        sim, ref = new_sim(), new_sim()
        _step_with_reference(sim, ref, 400)
        if free_flow_speed == 10.0:  # at 0.05 m/s no vehicle reaches the stop line in 400 s
            assert min(sim._settled[lid] for lid in ("E_T", "W_T", "N_L", "S_L")) >= 20
        _step_with_reference(sim, ref, 400, {k * 50: k % 8 for k in range(1, 8)})

    def test_fork_of_a_jammed_intersection(self, toy8):
        """A fork carries the large settled prefixes of an intersection held
        on one phase until its other lanes jam, and steps on under phase
        switches as the two-pass reference steps another fork."""
        jammed = Intersection(toy8, DemandProfile(base_rate=0.05), stream_rng(4, STREAM_DEMAND, 0))
        for _ in range(2 * ARRIVAL_BLOCK_STEPS):  # phase 0 all along: every other lane piles up
            jammed.step()
        assert min(jammed._settled[lid] for lid in ("E_T", "W_T", "N_L", "S_L")) >= 50
        # the drawn block is used up, so the reference's draws start from the live generator
        assert jammed._block_row == len(jammed._block)
        _step_with_reference(jammed.fork(), jammed.fork(), 200, {k * 30: (k + 3) % 8 for k in range(7)})


class TestObserve:
    def test_segment_boundaries(self, toy8):
        sim = schedule_sim(toy8, [])
        # moving vehicles (speed above the stopped cutoff) at key positions
        for pos in (30.0, 30.1, 99.0, 99.1, 250.0):
            sim._add_vehicle("W_T", 0.0)
            sim.vehicles["W_T"][-1].position = pos
            sim.vehicles["W_T"][-1].speed = 10.0
        obs = sim.observe()
        assert obs.shape == (len(toy8.lanes), 4) and obs.dtype == np.int64
        # road 300: columns stopped, moving <= 30, <= 99, beyond
        assert obs[toy8.lane_ids.index("W_T")].tolist() == [0, 1, 2, 2]
        assert obs.sum() == 5

    def test_stopped_dominates_position(self, toy8):
        sim = schedule_sim(toy8, [])
        sim._add_vehicle("W_T", 0.0)
        sim.vehicles["W_T"][0].position = 250.0
        sim.vehicles["W_T"][0].speed = 0.05
        obs = sim.observe()
        assert obs[toy8.lane_ids.index("W_T")].tolist() == [1, 0, 0, 0]

    def test_queue_length_is_stopped_per_lane(self, toy8):
        sim = schedule_sim(toy8, [])
        for i in range(4):
            sim._add_vehicle("E_L", 0.0)
            sim.vehicles["E_L"][i].position = 10.0 * i
            sim.vehicles["E_L"][i].speed = 0.0
        assert sim.queue_length() == pytest.approx(4 / 8)


class TestDemand:
    def test_poisson_seeded_repeatable(self, toy8):
        runs = []
        for _ in range(2):
            demand = DemandProfile.from_dict({"kind": "poisson", "base_rate": 0.2})
            sim = Intersection(toy8, demand, stream_rng(5, STREAM_DEMAND, 1))
            for _ in range(100):
                sim.step()
            runs.append(sim.injected_count)
        assert runs[0] == runs[1] and runs[0] > 0

    def test_episode_changes_stream(self, toy8):
        counts = []
        for ep in (0, 1):
            demand = DemandProfile.from_dict({"kind": "poisson", "base_rate": 0.2})
            sim = Intersection(toy8, demand, stream_rng(5, STREAM_DEMAND, ep))
            for _ in range(100):
                sim.step()
            counts.append(sim.injected_count)
        assert counts[0] != counts[1]

    def test_arrivals_drawn_a_segment_block_per_call(self, toy8):
        """A toy8 episode of the reference demand calls poisson a few times,
        not once per lane and step (28 800 calls)."""

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.poisson_calls = rng, 0

            def poisson(self, *args, **kwargs):
                self.poisson_calls += 1
                return self.rng.poisson(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        demand = ExperimentConfig.from_yaml(Path(__file__).resolve().parents[1] / "configs" / "toy8.yaml").demand
        sim = Intersection(toy8, DemandProfile.from_dict(demand), CountingRng(stream_rng(0, STREAM_DEMAND, 0)))
        run_steps(sim, 0, 3600)
        assert sim.injected_count > 0
        assert 0 < sim.rng.poisson_calls < 10

    def test_surge_window(self, toy8):
        demand = DemandProfile.from_dict(
            {
                "kind": "poisson",
                "base_rate": 0.0,
                "surges": [{"start": 10.0, "end": 20.0, "rate": 5.0, "lanes": ["N_T"]}],
            }
        )
        assert demand.rate_at("N_T", 5.0) == 0.0
        assert demand.rate_at("N_T", 10.0) == 5.0
        assert demand.rate_at("N_T", 19.9) == 5.0
        assert demand.rate_at("N_T", 20.0) == 0.0
        assert demand.rate_at("S_T", 15.0) == 0.0

    def test_surges_alone_spawn_inside_their_window(self, toy8):
        demand = DemandProfile.from_dict(
            {"kind": "poisson", "surges": [{"start": 20, "end": 60, "rate": 0.5, "lanes": ["N_T", "S_T"]}]}
        )
        sim = Intersection(toy8, demand, stream_rng(3, STREAM_DEMAND, 0))
        for _ in range(100):
            sim.step()
        spawned = sim.completed + [v for vs in sim.vehicles.values() for v in vs]
        assert sim.injected_count == len(spawned) > 0
        assert {v.lane for v in spawned} == {"N_T", "S_T"}
        # a step from t draws with rate_at(t) and spawns at t + 1
        assert all(20 < v.spawn_time <= 60 for v in spawned)

    def test_schedule_spawn_window(self, toy8):
        # spawn at t=3.5 lands in the step ending at t=4
        sim = schedule_sim(toy8, [(3.5, "N_T")])
        for _ in range(3):
            sim.step()
        assert sim.injected_count == 0
        sim.step()
        assert sim.injected_count == 1
        veh = sim.vehicles["N_T"][0]
        assert veh.position == 300.0
        assert veh.speed == 10.0

    def test_unknown_lane_rejected(self, toy8):
        demand = DemandProfile.from_dict(
            {"kind": "schedule", "spawns": [{"time": 1.0, "lane": "NOPE"}]}
        )
        with pytest.raises(ValueError):
            Intersection(toy8, demand, stream_rng(0, STREAM_DEMAND, 0))

    def test_one_profile_serves_toy8_then_toy4(self, toy8, toy4):
        """The simulator only reads its demand, so one parsed profile runs on
        any topology that has the lanes it names (E_T and W_T are in both)."""
        demand = DemandProfile.from_dict({"kind": "poisson", "base_rate": 0.02, "rates": {"E_T": 0.15, "W_T": 0.15}})
        for topo in (toy8, toy4):
            sim = Intersection(topo, demand, stream_rng(0, STREAM_DEMAND, 0))
            run_steps(sim, 0, 100)
            assert sim.injected_count > 0
            assert demand.rates == {"E_T": 0.15, "W_T": 0.15}
            assert {lid: demand.rate_at(lid, 0.0) for lid in topo.lane_ids} == {
                lid: 0.15 if lid in ("E_T", "W_T") else 0.02 for lid in topo.lane_ids
            }

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            DemandProfile.from_dict({"kind": "tidal"})

    @staticmethod
    def _demand_with(key, rate):
        """A Poisson spec whose ``key`` rate is ``rate``; returns (spec, the names the error must give)."""
        if key == "base_rate":
            return {"base_rate": rate}, ["base_rate"]
        if key == "rates":
            return {"rates": {"N_T": rate}}, ["rates", "'N_T'"]
        if key == "surge rate":
            return {"surges": [{"start": 0, "end": 9, "rate": rate, "lanes": ["E_L"]}]}, ["surges[0].rate", "'E_L'"]
        return {"surges": [{"start": 0, "end": 9, "rates": {"W_T": rate}}]}, ["surges[0].rates", "'W_T'"]

    @pytest.mark.parametrize("rate", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["base_rate", "rates", "surge rate", "surge rates"])
    def test_bad_rate_rejected(self, key, rate):
        spec, names = self._demand_with(key, rate)
        with pytest.raises(ValueError, match="finite arrival rate >= 0") as info:
            DemandProfile.from_dict({"kind": "poisson", **spec})
        for name in names:
            assert name in str(info.value)

    @pytest.mark.parametrize("key", ["base_rate", "rates", "surge rate", "surge rates"])
    def test_zero_rate_accepted(self, toy8, key):
        spec, _ = self._demand_with(key, 0)
        demand = DemandProfile.from_dict({"kind": "poisson", **spec})
        demand.check_lanes(toy8)
        assert all(demand.rate_at(lid, 5.0) == 0.0 for lid in toy8.lane_ids)


class TestMetrics:
    def test_exact_single_vehicle(self, toy8):
        sim = schedule_sim(toy8, [(0.0, "N_T")])
        for _ in range(40):
            sim.step()
        m = sim.finalize_metrics()
        assert m.travel_time == 31.0
        assert m.delay_seconds == 1.0  # free-flow time is 30 s
        assert m.delay_ratio == pytest.approx(1.0 / 31.0)
        assert m.throughput == 1

    def test_no_completions_gives_nan(self, toy8):
        sim = empty_sim(toy8)
        sim.step()
        m = sim.finalize_metrics()
        assert math.isnan(m.travel_time)
        assert math.isnan(m.delay_seconds)
        assert m.throughput == 0
        assert m.queue_length == 0.0

    def test_as_dict_keys(self, toy8):
        sim = empty_sim(toy8)
        sim.step()
        d = asdict(sim.finalize_metrics())
        assert set(d) == {"travel_time", "queue_length", "delay_seconds", "delay_ratio", "throughput"}


def _state(sim):
    """Everything a step reads or writes, apart from the topology and the demand."""
    return (
        sim.time, sim.active_phase, sim.pending_phase, sim.yellow_remaining, sim.injected_count, sim._spawn_cursor,
        {lid: [asdict(v) for v in vs] for lid, vs in sim.vehicles.items()},
        [asdict(v) for v in sim.completed],
        dict(sim._last_departure), dict(sim._settled), list(sim._queue_samples), sim.rng.bit_generator.state,
    )


class TestFork:
    def test_fork_continues_identically(self, toy8):
        demand_dict = {
            "kind": "poisson",
            "base_rate": 0.1,
            "surges": [{"start": 50.0, "end": 150.0, "rate": 0.5, "lanes": ["N_T", "S_T"]}],
        }
        simA = Intersection(toy8, DemandProfile.from_dict(demand_dict), stream_rng(9, STREAM_DEMAND, 0))
        for t in range(200):
            if t % 30 == 0:
                simA.set_phase((t // 30) % 8)
            simA.step()
        simB = simA.fork()
        assert _state(simB) == _state(simA)

        for t in range(200, 320):
            if t % 30 == 0:
                simA.set_phase((t // 30) % 8)
                simB.set_phase((t // 30) % 8)
            simA.step()
            simB.step()
            assert simA.queue_length() == simB.queue_length()
            assert simA.injected_count == simB.injected_count
        assert _state(simB) == _state(simA)
        assert asdict(simA.finalize_metrics()) == asdict(simB.finalize_metrics())

    def test_fork_inside_a_block_of_the_open_last_segment(self, toy8):
        """A fork taken a block cap and more into the last surge-free segment,
        mid-block, steps on exactly as the run goes on uninterrupted."""
        demand = {"kind": "poisson", "base_rate": 0.1, "surges": [{"start": 0.0, "end": 40.5, "rate": 0.3, "lanes": ["E_L"]}]}
        cut, stop = 41 + ARRIVAL_BLOCK_STEPS + 37, 41 + 2 * ARRIVAL_BLOCK_STEPS + 50
        whole = Intersection(toy8, DemandProfile.from_dict(demand), stream_rng(4, STREAM_DEMAND, 0))
        run_steps(whole, 0, cut)
        assert 0 < whole._block_row < len(whole._block)
        forked = whole.fork()
        run_steps(whole, cut, stop)
        run_steps(forked, cut, stop)
        assert _state(forked) == _state(whole)
        assert asdict(forked.finalize_metrics()) == asdict(whole.finalize_metrics())

    def test_stepping_a_fork_leaves_the_original_unchanged(self, toy8):
        """A fork stepped under other phases, across a block boundary, changes
        nothing of the intersection it was taken from, and the other way round."""
        sim = Intersection(toy8, DemandProfile(base_rate=0.2), stream_rng(6, STREAM_DEMAND, 0))
        run_steps(sim, 0, ARRIVAL_BLOCK_STEPS - 20)
        before = _state(sim)
        forked = sim.fork()
        for k in range(60):
            if k % 10 == 0:
                forked.set_phase((k // 10 + 5) % 8)
            forked.step()
        assert _state(sim) == before
        after = _state(forked)
        run_steps(sim, ARRIVAL_BLOCK_STEPS - 20, ARRIVAL_BLOCK_STEPS + 40)
        assert _state(forked) == after
