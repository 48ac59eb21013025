"""Deterministic queue-based single-intersection microsimulator.

The model is a point-queue approximation: vehicles travel at free-flow
speed until they hit the stop line or the tail of the standing queue,
where they stop instantly. Departures across the stop line happen at most
once per saturation headway per lane while the lane's phase is green.
Phase changes insert a fixed all-red yellow interval during which no lane
is served.

All dynamics advance in whole 1 s steps and are fully
deterministic given the demand seed, which makes episode outputs
bit-reproducible.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import check_float, check_int, check_keys, check_list

SPEED_STOPPED = 0.1  # m/s; below this a vehicle counts as queued
JAM_SPACING = 7.0  # m between stopped vehicles, gives queues physical extent
ARRIVAL_BLOCK_STEPS = 600  # most steps of Poisson arrivals drawn in one generator call

# Demand stream ids used to derive independent RNG streams from one seed.
STREAM_DEMAND = 0
STREAM_SHUFFLE = 1
STREAM_CONTROLLER = 2
STREAM_INIT = 3


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of stream ids ``stream`` under ``seed``, e.g. (STREAM_DEMAND, episode)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


class TopologyError(ValueError):
    """Raised when a topology description violates a structural invariant."""


@dataclass(frozen=True)
class Lane:
    lane_id: str
    approach: str
    movement: str  # through | left | right | u-turn
    road_length: float = 300.0
    free_flow_speed: float = 10.0
    saturation_headway: float = 2.0


@dataclass(frozen=True)
class PhaseSpec:
    index: int
    mnemonic: str
    description: str
    allowed_lanes: Tuple[str, ...]


@dataclass(frozen=True)
class Topology:
    name: str
    lanes: Tuple[Lane, ...]
    phases: Tuple[PhaseSpec, ...]
    yellow_duration: float = 5.0

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def lane_ids(self) -> Tuple[str, ...]:
        return tuple(lane.lane_id for lane in self.lanes)

    @cached_property
    def phase_lanes(self) -> np.ndarray:
        """(n_phases, n_lanes) 0/1 matrix of the lanes each phase serves, in ``lanes`` order;
        ``phase_lanes @ observation`` sums an observation per phase."""
        matrix = np.array([[lid in p.allowed_lanes for lid in self.lane_ids] for p in self.phases], dtype=np.int64)
        matrix.flags.writeable = False  # one array serves every caller
        return matrix

    @cached_property
    def phase_names(self) -> Tuple[Mapping[str, int], Tuple[Tuple[str, int], ...]]:
        """How response text names a phase: a read-only map of each upper-case mnemonic to its
        phase index, and (lower-case needle, phase index) for each phase's mnemonic and then
        description, in table order."""
        by_mnemonic = MappingProxyType({p.mnemonic.upper(): p.index for p in self.phases})
        needles = tuple((name.lower(), p.index) for p in self.phases for name in (p.mnemonic, p.description))
        return by_mnemonic, needles


_MOVEMENTS = ("through", "left", "right", "u-turn")
_GEOMETRY = ("road_length", "free_flow_speed", "saturation_headway")
_OVERRIDES = (*_GEOMETRY, "yellow_duration")
# an inline topology spec, each of its lanes and each of its phases take the fields of these as keys
_TOPOLOGY_KEYS, _LANE_KEYS, _PHASE_KEYS = ([f.name for f in fields(cls)] for cls in (Topology, Lane, PhaseSpec))

TOY8_PHASES = (
    ("NTST", "Northern and southern through lanes", ("N_T", "S_T")),
    ("NLSL", "Northern and southern left-turn lanes", ("N_L", "S_L")),
    ("NTNL", "Northern through and left-turn lanes", ("N_T", "N_L")),
    ("STSL", "Southern through and left-turn lanes", ("S_T", "S_L")),
    ("ETWT", "Eastern and western through lanes", ("E_T", "W_T")),
    ("ELWL", "Eastern and western left-turn lanes", ("E_L", "W_L")),
    ("ETEL", "Eastern through and left-turn lanes", ("E_T", "E_L")),
    ("WTWL", "Western through and left-turn lanes", ("W_T", "W_L")),
)

TOY4_PHASES = (
    (
        "NUTRLSUTRL",
        "Northern and southern U-turn, through, right-turn and left-turn lanes",
        ("N_T", "N_R", "S_T", "S_R"),
    ),
    (
        "NUTLSUTL",
        "Northern and southern U-turn, through, and left-turn lanes",
        ("N_T", "S_T"),
    ),
    (
        "EUTRLWUTRL",
        "Eastern and western U-turn, through, right-turn and left-turn lanes",
        ("E_T", "E_R", "W_T", "W_R"),
    ),
    (
        "EUTLWUTL",
        "Eastern and western U-turn, through, and left-turn lanes",
        ("E_T", "W_T"),
    ),
)


def _validate_topology(topo: Topology) -> Topology:
    if not topo.lanes or not topo.phases:
        raise TopologyError("a topology needs at least one lane and one phase")
    lane_ids = [lane.lane_id for lane in topo.lanes]
    if len(set(lane_ids)) != len(lane_ids):
        raise TopologyError("duplicate lane ids")
    for lane in topo.lanes:
        if lane.movement not in _MOVEMENTS:
            raise TopologyError(f"lane {lane.lane_id}: unknown movement {lane.movement!r}")
        for name in _GEOMETRY:  # in (0, inf); NaN and bools fail
            check_float(f"lane {lane.lane_id}: {name}", getattr(lane, name), 0.0, strict=True)
    check_float("yellow_duration", topo.yellow_duration, 0.0)
    mnemonics = [p.mnemonic for p in topo.phases]
    if len(set(mnemonics)) != len(mnemonics):
        raise TopologyError("phase mnemonics must be unique")
    covered = set()
    for i, phase in enumerate(topo.phases):
        if phase.index != i:
            raise TopologyError(f"phase {phase.mnemonic}: index {phase.index} out of order")
        if not phase.mnemonic:
            raise TopologyError("phase mnemonic must be nonempty")
        if not phase.allowed_lanes:
            raise TopologyError(f"phase {phase.mnemonic}: allowed_lanes is empty")
        if len(set(phase.allowed_lanes)) != len(phase.allowed_lanes):
            raise TopologyError(f"phase {phase.mnemonic}: a lane is listed twice")
        for lid in phase.allowed_lanes:
            if lid not in lane_ids:
                raise TopologyError(f"phase {phase.mnemonic}: unknown lane {lid!r}")
            covered.add(lid)
    missing = set(lane_ids) - covered
    if missing:
        raise TopologyError(f"lanes not referenced by any phase: {sorted(missing)}")
    return topo


# preset name -> inline spec; build_topology builds both kinds the same way
PRESETS = {
    name: {
        "name": name,
        "lanes": [
            {"lane_id": f"{a}_{m}", "approach": a, "movement": {"T": "through", "L": "left", "R": "right"}[m]}
            for a in "NSEW"
            for m in movements
        ],
        "phases": [{"mnemonic": m, "description": d, "allowed_lanes": al} for m, d, al in table],
    }
    for name, movements, table in (("toy8", "TL", TOY8_PHASES), ("toy4", "TR", TOY4_PHASES))
}


def _floats(keys: Sequence[str], *layers: dict) -> dict:
    """The ``keys`` set in any layer, numbers as floats; later layers win.

    Anything else, a bool too, is kept as given for ``_validate_topology`` to refuse.
    """
    return {
        k: float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else v
        for layer in layers
        for k, v in layer.items()
        if k in keys
    }


def _lane_ids(name: str, value) -> Tuple[str, ...]:
    """``value``, a list of lane ids, as a tuple of strings; anything else, a string too, raises ValueError."""
    check_list(name, value)
    return tuple(str(lid) for lid in value)


def build_topology(preset="toy8", **overrides) -> Topology:
    """Build a validated topology from a preset name or an explicit dict.

    ``preset`` may be "toy8" (8 two-movement phases on 4 approaches),
    "toy4" (4 combined-movement phases), or a dict with keys ``lanes``
    (list of dicts with lane_id/approach/movement and optional geometry),
    ``phases`` (list of dicts with mnemonic/description/allowed_lanes and
    an optional ``index`` that must equal the phase's position) and
    optional ``name`` and ``yellow_duration``; any other key, in the dict
    or in a lane or phase, raises ValueError, as does a phase ``index``
    that is no integer or ``allowed_lanes`` that is no list. Keyword
    overrides (road_length, free_flow_speed, saturation_headway,
    yellow_duration) apply uniformly to every lane of any topology; other
    keys raise :class:`TopologyError`. Unset geometry takes the
    :class:`Lane` and :class:`Topology` defaults.
    """
    unknown = set(overrides) - set(_OVERRIDES)
    if unknown:
        raise TopologyError(f"unknown topology overrides {sorted(unknown)}; allowed: {list(_OVERRIDES)}")
    if not isinstance(preset, dict):
        if not isinstance(preset, str) or preset not in PRESETS:
            raise TopologyError(f"unknown topology preset {preset!r}")
        preset = PRESETS[preset]
    check_keys("topology", preset, _TOPOLOGY_KEYS, required=("lanes", "phases"))
    check_list("topology.lanes", preset["lanes"])
    check_list("topology.phases", preset["phases"])
    for i, entry in enumerate(preset["lanes"]):
        check_keys(f"topology.lanes[{i}]", entry, _LANE_KEYS, required=("lane_id",))
    for i, entry in enumerate(preset["phases"]):
        check_keys(f"topology.phases[{i}]", entry, _PHASE_KEYS, required=("mnemonic",))
        check_int(f"topology.phases[{i}].index", entry.get("index", i))
    lanes = tuple(
        Lane(
            lane_id=str(entry["lane_id"]),
            approach=str(entry.get("approach", "?")),
            movement=str(entry.get("movement", "through")),
            **_floats(_GEOMETRY, entry, overrides),
        )
        for entry in preset["lanes"]
    )
    phases = tuple(
        PhaseSpec(
            index=int(entry.get("index", i)),
            mnemonic=str(entry["mnemonic"]),
            description=str(entry.get("description", entry["mnemonic"])),
            allowed_lanes=_lane_ids(f"topology.phases[{i}].allowed_lanes", entry.get("allowed_lanes", ())),
        )
        for i, entry in enumerate(preset["phases"])
    )
    topo = Topology(
        name=str(preset.get("name", "custom")),
        lanes=lanes,
        phases=phases,
        **_floats(("yellow_duration",), preset, overrides),
    )
    return _validate_topology(topo)


@dataclass
class Vehicle:
    vid: int
    lane: str
    position: float  # meters from the stop line, decreasing toward 0
    speed: float
    spawn_time: float
    completion_time: Optional[float] = None


# the keys of a demand spec of each kind
_DEMAND_KEYS = {"poisson": ("kind", "rates", "base_rate", "surges"), "schedule": ("kind", "spawns")}


@dataclass
class DemandProfile:
    """Per-lane arrival schedule; the simulator only reads it.

    Either Poisson rates (``rates`` maps lane id -> vehicles/s, and
    ``base_rate`` is the rate of every lane it does not name; ``surges``, a
    list of (start, end, {lane: rate}) windows, override either inside
    [start, end)), or an explicit ``spawns`` list of (time, lane) pairs.
    Poisson draws consume the demand RNG stream in a fixed lane order, so
    runs are seed-exact. One profile serves any topology that has the
    lanes it names.
    """

    rates: Dict[str, float] = field(default_factory=dict)
    surges: List[Tuple[float, float, Dict[str, float]]] = field(default_factory=list)
    spawns: List[Tuple[float, str]] = field(default_factory=list)
    base_rate: float = 0.0

    def rate_at(self, lane_id: str, t: float) -> float:
        rate = self.rates.get(lane_id, self.base_rate)
        for start, end, lane_rates in self.surges:
            if start <= t < end and lane_id in lane_rates:
                rate = lane_rates[lane_id]
        return rate

    @staticmethod
    def from_dict(spec: dict) -> "DemandProfile":
        check_keys("demand", spec)  # a mapping; which keys it may hold depends on its kind
        kind = spec.get("kind", "poisson")
        if not isinstance(kind, str) or kind not in _DEMAND_KEYS:
            raise ValueError(f"unknown demand kind {kind!r}")
        check_keys("demand", spec, _DEMAND_KEYS[kind])
        if kind == "schedule":
            spawns, entries = [], spec.get("spawns", [])
            check_list("demand.spawns", entries)
            for i, s in enumerate(entries):
                check_keys(f"demand.spawns[{i}]", s, ("time", "lane"), required=("time", "lane"))
                check_float(f"demand.spawns[{i}].time", s["time"], 0.0)
                spawns.append((float(s["time"]), str(s["lane"])))
            spawns.sort(key=lambda p: p[0])
            return DemandProfile(spawns=spawns)
        rates = spec.get("rates", {})
        check_keys("demand.rates", rates)  # keyed by lane id, which check_lanes checks
        rates = {str(k): _arrival_rate(v, f"rates[{str(k)!r}]") for k, v in rates.items()}
        base = spec.get("base_rate")
        base = 0.0 if base is None else _arrival_rate(base, "base_rate (every lane)")
        surges, entries = [], spec.get("surges", [])
        check_list("demand.surges", entries)
        for i, s in enumerate(entries):
            where = f"demand.surges[{i}]"
            check_keys(where, s, ("start", "end", "rates", "rate", "lanes"), required=("start", "end"))
            check_keys(f"{where}.rates", s.get("rates", {}))
            lane_rates = {
                str(k): _arrival_rate(v, f"surges[{i}].rates[{str(k)!r}]")
                for k, v in s.get("rates", {}).items()
            }
            if ("rate" in s) != ("lanes" in s):  # one alone would add no arrivals
                raise ValueError(f"{where}: rate and lanes must be given together")
            if "rate" in s:
                lanes = _lane_ids(f"{where}.lanes", s["lanes"])
                rate = _arrival_rate(s["rate"], f"surges[{i}].rate (lanes {list(lanes)})")
                lane_rates.update(dict.fromkeys(lanes, rate))
            for key in ("start", "end"):  # a bool or a string is no time
                if isinstance(s[key], bool) or not isinstance(s[key], numbers.Real):
                    raise ValueError(f"{where}.{key} must be a number, got {s[key]!r}")
            start, end = float(s["start"]), float(s["end"])
            if not start < end:  # also fails for nan; an open end (inf) is fine
                raise ValueError(f"{where} must have start < end, got {s['start']!r} and {s['end']!r}")
            surges.append((start, end, lane_rates))
        return DemandProfile(rates=rates, surges=surges, base_rate=base)

    def check_lanes(self, topo: Topology) -> None:
        """Refuse a demand that names a lane ``topo`` does not have."""
        referenced = set(self.rates)
        referenced.update(lid for _, lid in self.spawns)
        for _, _, lane_rates in self.surges:
            referenced.update(lane_rates)
        unknown = referenced - set(topo.lane_ids)
        if unknown:
            raise ValueError(f"demand references unknown lanes: {sorted(unknown)}")


def _arrival_rate(value, key: str) -> float:
    """``value`` as vehicles/s; ``key`` names it in the error for a rate that is no number, a bool,
    negative or non-finite."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 <= value < math.inf):
        raise ValueError(f"demand.{key} must be a finite arrival rate >= 0, got {value!r}")
    return float(value)


class Intersection:
    """Mutable simulation state stepped at 1-second resolution."""

    def __init__(self, topo: Topology, demand: DemandProfile, rng: np.random.Generator):
        demand.check_lanes(topo)
        self.topo = topo
        self.demand = demand
        self.rng = rng
        self.time = 0.0
        self.active_phase = 0
        self.pending_phase: Optional[int] = None
        self.yellow_remaining = 0.0
        self.vehicles: Dict[str, List[Vehicle]] = {lid: [] for lid in topo.lane_ids}
        self.completed: List[Vehicle] = []
        self.injected_count = 0  # also the id of the next vehicle
        self._last_departure: Dict[str, float] = {lid: -math.inf for lid in topo.lane_ids}
        # per lane, how many front vehicles did not move in the last step
        self._settled: Dict[str, int] = dict.fromkeys(topo.lane_ids, 0)
        self._spawn_cursor = 0
        self._queue_samples: List[float] = []
        self._lanes: Dict[str, Lane] = {lane.lane_id: lane for lane in topo.lanes}
        self._served = [frozenset(phase.allowed_lanes) for phase in topo.phases]
        # (lane id, rate) of the lanes with a positive arrival rate for t in _arrivals_span
        self._arrivals: List[Tuple[str, float]] = []
        self._arrivals_span = (math.inf, -math.inf)  # empty, so the first step fills it
        self._block: List[List[str]] = []  # one row per step: the lane id of each arrival, in _arrivals order
        self._block_row = 0  # rows of _block used by the steps taken

    # -- control ---------------------------------------------------------

    def set_phase(self, phase_idx: int) -> None:
        if not 0 <= phase_idx < self.topo.n_phases:
            raise ValueError(f"phase index {phase_idx} out of range [0, {self.topo.n_phases})")
        if phase_idx == self.active_phase:
            return
        if self.topo.yellow_duration <= 0:  # no changeover interval: switch at once
            self.active_phase = phase_idx
            return
        self.pending_phase = phase_idx
        self.yellow_remaining = self.topo.yellow_duration

    # -- dynamics --------------------------------------------------------

    def step(self) -> float:
        """Advance one second; returns the queue length sampled after it.

        One pass over the vehicles that can move moves them and counts the
        stopped ones, so the sample equals :meth:`queue_length` without a
        second pass.
        """
        t_next = self.time + 1.0

        if self.yellow_remaining > 0:
            served_lanes = frozenset()
            self.yellow_remaining -= 1.0
            if self.yellow_remaining <= 1e-9:
                self.yellow_remaining = 0.0
                if self.pending_phase is not None:
                    self.active_phase = self.pending_phase
                    self.pending_phase = None
        else:
            served_lanes = self._served[self.active_phase]

        stopped = 0
        for lane in self.topo.lanes:
            stopped += self._advance_lane(lane, lane.lane_id in served_lanes, t_next)

        stopped += self._spawn(t_next)
        self.time = t_next
        if not self.conservation_ok():
            raise RuntimeError(
                f"vehicle conservation violated at t={t_next:g}: {self.injected_count} injected, "
                f"{self.in_network()} in the network, {len(self.completed)} completed"
            )
        queue = stopped / len(self.topo.lanes)
        self._queue_samples.append(queue)
        return queue

    def _advance_lane(self, lane: Lane, served: bool, t_next: float) -> int:
        """Move one lane's vehicles; returns how many end the step stopped.

        A vehicle's update reads only its position, the lane's speed and its
        front limit, the closest position its leader leaves it (0.0 for the
        front vehicle). So if a vehicle and its leader did not move in the
        last step and the lane has no departure, the vehicle gets the same
        inputs again and so the same position and speed 0.0. By induction
        from the front, the ``_settled`` front vehicles that did not move in
        the last step stay as they are on an unserved lane, and its pass
        starts behind them. A served lane's front vehicle may depart, so its
        pass starts at the front, and every pass counts the prefix anew.
        """
        lane_id = lane.lane_id
        queue = self.vehicles[lane_id]  # front first: vehicles join only at the back
        if not queue:
            return 0
        speed = lane.free_flow_speed
        start = 0 if served else self._settled[lane_id]
        # closest position the next vehicle may occupy
        front_limit = queue[start - 1].position + JAM_SPACING if start else 0.0
        if (
            served
            and queue[0].position - speed <= 0.0
            and t_next - self._last_departure[lane_id] >= lane.saturation_headway
        ):  # the headway is > 0, so at most one vehicle departs per step
            veh = queue.pop(0)
            veh.completion_time = t_next
            veh.position = 0.0
            veh.speed = speed
            self._last_departure[lane_id] = t_next
            self.completed.append(veh)
        stopped = settled = start
        moving = False  # whether a vehicle of this pass has moved yet
        for veh in queue[start:]:
            position = veh.position
            candidate = position - speed
            # max(candidate, front_limit), then min(., position): on a tie the
            # two picks are equal floats, and no -0.0 can arise here
            new_pos = candidate if candidate > front_limit else front_limit
            if new_pos > position:  # never move backwards
                new_pos = position
            veh.speed = moved = position - new_pos  # per 1 s step
            veh.position = new_pos
            if moved < SPEED_STOPPED:
                stopped += 1
            if not moving:
                # not moved < SPEED_STOPPED: a crawl at free_flow_speed 0.05 counts as stopped but moves
                if new_pos == position:
                    settled += 1
                else:
                    moving = True
            front_limit = new_pos + JAM_SPACING
        self._settled[lane_id] = settled
        return stopped

    def _spawn(self, t_next: float) -> int:
        """Add the arrivals of (t, t + 1]; returns how many of them count as stopped."""
        stopped = 0
        # Explicit schedule entries falling in (t, t + 1].
        spawns = self.demand.spawns
        while self._spawn_cursor < len(spawns):
            when, lane_id = spawns[self._spawn_cursor]
            if when > t_next:
                break
            if when > self.time or (self.time == 0.0 and when == 0.0):
                stopped += self._add_vehicle(lane_id, when)
            self._spawn_cursor += 1
        # Poisson arrivals of the lanes with a positive rate, one block row per step.
        lo, hi = self._arrivals_span
        if not lo <= self.time < hi:
            self._cache_arrivals(self.time)
            hi = self._arrivals_span[1]
        if not self._arrivals:
            return stopped
        if self._block_row == len(self._block):
            self._draw_block(math.ceil(min(hi - self.time, ARRIVAL_BLOCK_STEPS)))
        row = self._block[self._block_row]
        self._block_row += 1
        for lane_id in row:
            stopped += self._add_vehicle(lane_id, t_next)
        return stopped

    def _draw_block(self, n_steps: int) -> None:
        """Draw the arrivals of the next ``n_steps`` steps, all in the cached span.

        The generator fills the (step, lane) array of counts in C order with
        the routine a scalar draw uses, so the counts and the generator state
        after them equal those of one draw per step and lane in lane order.
        Each step's row of counts becomes the lane id of each arrival, in
        lane order with repeats.
        """
        lane_ids, rates = zip(*self._arrivals)
        counts = self.rng.poisson(rates, size=(n_steps, len(rates)))
        arrivals = np.repeat(np.tile(np.array(lane_ids, dtype=object), n_steps), counts.ravel()).tolist()
        ends = np.cumsum(counts.sum(axis=1)).tolist()
        self._block = [arrivals[lo:hi] for lo, hi in zip([0, *ends], ends)]
        self._block_row = 0

    def _cache_arrivals(self, t: float) -> None:
        """Cache the lanes whose ``rate_at(lane, t)`` is positive, with their rates.

        Rates change only at surge edges, so the cache holds on the span
        between the edges around ``t``; nothing else writes to the demand.
        A block is drawn for at most the steps left in the span, so it is
        used up by now; it is dropped with the old rates.
        """
        self._block, self._block_row = [], 0
        edges = [edge for start, end, _ in self.demand.surges for edge in (start, end)]
        self._arrivals_span = (
            max((e for e in edges if e <= t), default=-math.inf),
            min((e for e in edges if e > t), default=math.inf),
        )
        rates = [(lid, self.demand.rate_at(lid, t)) for lid in self.topo.lane_ids]
        self._arrivals = [(lid, r) for lid, r in rates if not r <= 0]  # a NaN rate reaches poisson

    def _add_vehicle(self, lane_id: str, when: float) -> bool:
        """Put a vehicle at the back of ``lane_id``; returns whether it counts as stopped."""
        lane = self._lanes[lane_id]
        veh = Vehicle(
            vid=self.injected_count,
            lane=lane_id,
            position=lane.road_length,
            speed=lane.free_flow_speed,
            spawn_time=when,
        )
        self.injected_count += 1
        self.vehicles[lane_id].append(veh)
        return veh.speed < SPEED_STOPPED

    # -- observation -----------------------------------------------------

    def observe(self) -> np.ndarray:
        """Per-lane counts, int64 (n_lanes, 4) in ``topo.lanes`` order: stopped, then
        moving within 10% of the road from the stop line, within 33%, and beyond."""
        rows = []
        for lane in self.topo.lanes:
            early = seg1 = seg2 = seg3 = 0
            b1 = 0.10 * lane.road_length
            b2 = 0.33 * lane.road_length
            for veh in self.vehicles[lane.lane_id]:
                if veh.speed < SPEED_STOPPED:
                    early += 1
                elif veh.position <= b1:
                    seg1 += 1
                elif veh.position <= b2:
                    seg2 += 1
                else:
                    seg3 += 1
            rows.append((early, seg1, seg2, seg3))
        return np.array(rows, dtype=np.int64)

    def queue_length(self) -> float:
        stopped = sum(
            1
            for lane_vehicles in self.vehicles.values()
            for veh in lane_vehicles
            if veh.speed < SPEED_STOPPED
        )
        return stopped / len(self.topo.lanes)

    def in_network(self) -> int:
        return sum(map(len, self.vehicles.values()))

    def conservation_ok(self) -> bool:
        return self.injected_count == self.in_network() + len(self.completed)

    # -- metrics ---------------------------------------------------------

    def finalize_metrics(self) -> "Metrics":
        """The episode's metrics; the means over completed vehicles are nan when none completed."""

        def mean(values) -> float:
            return float(np.mean(values)) if values else math.nan

        travel = []
        delays = []
        ratios = []
        for veh in self.completed:
            lane = self._lanes[veh.lane]
            actual = veh.completion_time - veh.spawn_time
            free = lane.road_length / lane.free_flow_speed
            travel.append(actual)
            delays.append(actual - free)
            ratios.append((actual - free) / actual if actual > 0 else 0.0)
        return Metrics(
            travel_time=mean(travel),
            queue_length=float(np.mean(self._queue_samples)) if self._queue_samples else 0.0,
            delay_seconds=mean(delays),
            delay_ratio=mean(ratios),
            throughput=len(self.completed),
        )

    # -- fork ------------------------------------------------------------

    def fork(self) -> "Intersection":
        """An independent intersection that steps exactly as this one would from here.

        It copies what a step changes in place: each lane's vehicle list and
        its vehicles, the list of completed vehicles, ``_last_departure``,
        ``_settled``, ``_queue_samples`` and the generator with its live state.
        It shares the rest: the read-only topology and demand, ``_lanes`` and
        ``_served``, the completed vehicles (nothing changes a vehicle after it
        departs), and ``_arrivals`` and ``_block``, which a step replaces when
        they change and never changes in place. A field added later that a
        step changes in place must be copied here too.
        """
        twin = copy.copy(self)
        twin.vehicles = {lid: [Vehicle(**vars(veh)) for veh in queue] for lid, queue in self.vehicles.items()}
        twin.completed = list(self.completed)
        twin._last_departure = dict(self._last_departure)
        twin._settled = dict(self._settled)
        twin._queue_samples = list(self._queue_samples)
        twin.rng = copy.deepcopy(self.rng)
        return twin


@dataclass(frozen=True)
class Metrics:
    travel_time: float
    queue_length: float
    delay_seconds: float
    delay_ratio: float
    throughput: int
