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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SPEED_STOPPED = 0.1  # m/s; below this a vehicle counts as queued
JAM_SPACING = 7.0  # m between stopped vehicles, gives queues physical extent

# Demand stream ids used to derive independent RNG streams from one seed.
STREAM_DEMAND = 0
STREAM_SHUFFLE = 1
STREAM_CONTROLLER = 2
STREAM_INIT = 3
STREAM_HOLDOUT = 4


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


_MOVEMENTS = ("through", "left", "right", "u-turn")

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
    lane_ids = [lane.lane_id for lane in topo.lanes]
    if len(set(lane_ids)) != len(lane_ids):
        raise TopologyError("duplicate lane ids")
    for lane in topo.lanes:
        if lane.movement not in _MOVEMENTS:
            raise TopologyError(f"lane {lane.lane_id}: unknown movement {lane.movement!r}")
        if lane.road_length <= 0:
            raise TopologyError(f"lane {lane.lane_id}: road_length must be > 0")
        if lane.free_flow_speed <= 0:
            raise TopologyError(f"lane {lane.lane_id}: free_flow_speed must be > 0")
        if lane.saturation_headway <= 0:
            raise TopologyError(f"lane {lane.lane_id}: saturation_headway must be > 0")
    if topo.yellow_duration < 0:
        raise TopologyError("yellow_duration must be >= 0")
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
_GEOMETRY = ("road_length", "free_flow_speed", "saturation_headway")
_OVERRIDES = (*_GEOMETRY, "yellow_duration")


def _floats(keys: Sequence[str], *layers: dict) -> dict:
    """The ``keys`` set in any layer, as floats; later layers win."""
    return {k: float(v) for layer in layers for k, v in layer.items() if k in keys}


def build_topology(preset="toy8", **overrides) -> Topology:
    """Build a validated topology from a preset name or an explicit dict.

    ``preset`` may be "toy8" (8 two-movement phases on 4 approaches),
    "toy4" (4 combined-movement phases), or a dict with keys ``lanes``
    (list of dicts with lane_id/approach/movement and optional geometry),
    ``phases`` (list of dicts with mnemonic/description/allowed_lanes and
    an optional ``index`` that must equal the phase's position) and
    optional ``name`` and ``yellow_duration``. Keyword overrides
    (road_length, free_flow_speed, saturation_headway, yellow_duration)
    apply uniformly to every lane of any topology; other keys raise
    :class:`TopologyError`. Unset geometry takes the :class:`Lane` and
    :class:`Topology` defaults.
    """
    unknown = set(overrides) - set(_OVERRIDES)
    if unknown:
        raise TopologyError(f"unknown topology overrides {sorted(unknown)}; allowed: {list(_OVERRIDES)}")
    if not isinstance(preset, dict):
        if preset not in PRESETS:
            raise TopologyError(f"unknown topology preset {preset!r}")
        preset = PRESETS[preset]
    lanes = tuple(
        Lane(
            lane_id=str(entry["lane_id"]),
            approach=str(entry.get("approach", "?")),
            movement=str(entry.get("movement", "through")),
            **_floats(_GEOMETRY, entry, overrides),
        )
        for entry in preset.get("lanes", [])
    )
    phases = tuple(
        PhaseSpec(
            index=int(entry.get("index", i)),
            mnemonic=str(entry["mnemonic"]),
            description=str(entry.get("description", entry["mnemonic"])),
            allowed_lanes=tuple(entry.get("allowed_lanes", ())),
        )
        for i, entry in enumerate(preset.get("phases", []))
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


@dataclass
class DemandProfile:
    """Per-lane arrival schedule.

    Either Poisson rates (``rates`` maps lane id -> vehicles/s, optionally
    reshaped by ``surges``: a list of (start, end, {lane: rate}) windows
    that override the base rate inside [start, end)), or an explicit
    ``spawns`` list of (time, lane) pairs. Poisson draws consume the
    demand RNG stream in a fixed lane order, so runs are seed-exact.
    """

    rates: Dict[str, float] = field(default_factory=dict)
    surges: List[Tuple[float, float, Dict[str, float]]] = field(default_factory=list)
    spawns: List[Tuple[float, str]] = field(default_factory=list)
    base_rate: Optional[float] = None

    def rate_at(self, lane_id: str, t: float) -> float:
        rate = self.rates.get(lane_id, 0.0)
        for start, end, lane_rates in self.surges:
            if start <= t < end and lane_id in lane_rates:
                rate = lane_rates[lane_id]
        return rate

    @staticmethod
    def from_dict(spec: dict) -> "DemandProfile":
        kind = spec.get("kind", "poisson")
        if kind == "schedule":
            spawns = [(float(s["time"]), str(s["lane"])) for s in spec.get("spawns", [])]
            spawns.sort(key=lambda p: p[0])
            return DemandProfile(spawns=spawns)
        if kind != "poisson":
            raise ValueError(f"unknown demand kind {kind!r}")
        rates = {str(k): _arrival_rate(v, f"rates[{str(k)!r}]") for k, v in spec.get("rates", {}).items()}
        base = spec.get("base_rate")
        if base is not None:
            base = _arrival_rate(base, "base_rate (every lane)")
        surges = []
        for i, s in enumerate(spec.get("surges", [])):
            lane_rates = {
                str(k): _arrival_rate(v, f"surges[{i}].rates[{str(k)!r}]")
                for k, v in s.get("rates", {}).items()
            }
            if "rate" in s:
                lanes = [str(lid) for lid in s.get("lanes", [])]
                rate = _arrival_rate(s["rate"], f"surges[{i}].rate (lanes {lanes})")
                for lid in lanes:
                    lane_rates[lid] = rate
            surges.append((float(s["start"]), float(s["end"]), lane_rates))
        return DemandProfile(rates=rates, surges=surges, base_rate=base)

    def resolve_lanes(self, topo: Topology) -> None:
        """Validate lane references and fill in the base rate."""
        known = set(topo.lane_ids)
        referenced = set(self.rates)
        referenced.update(lid for _, lid in self.spawns)
        for _, _, lane_rates in self.surges:
            referenced.update(lane_rates)
        unknown = referenced - known
        if unknown:
            raise ValueError(f"demand references unknown lanes: {sorted(unknown)}")
        if self.base_rate is not None:
            for lid in topo.lane_ids:
                self.rates.setdefault(lid, self.base_rate)


def _arrival_rate(value, key: str) -> float:
    """``value`` as vehicles/s; ``key`` names it in the error for a negative or non-finite rate."""
    rate = float(value)
    if not 0.0 <= rate < math.inf:  # also rejects nan
        raise ValueError(f"demand {key} must be a finite arrival rate >= 0, got {value!r}")
    return rate


class Intersection:
    """Mutable simulation state stepped at 1-second resolution."""

    def __init__(self, topo: Topology, demand: DemandProfile, rng: np.random.Generator):
        demand.resolve_lanes(topo)
        self.topo = topo
        self.demand = demand
        self.rng = rng
        self.time = 0.0
        self.active_phase = 0
        self.pending_phase: Optional[int] = None
        self.yellow_remaining = 0.0
        self.vehicles: Dict[str, List[Vehicle]] = {lid: [] for lid in topo.lane_ids}
        self.completed: List[Vehicle] = []
        self.injected_count = 0
        self._next_vid = 0
        self._last_departure: Dict[str, float] = {lid: -math.inf for lid in topo.lane_ids}
        self._spawn_cursor = 0
        self._queue_samples: List[float] = []
        self._lanes: Dict[str, Lane] = {lane.lane_id: lane for lane in topo.lanes}
        self._served = [frozenset(phase.allowed_lanes) for phase in topo.phases]
        # (lane id, rate) of the lanes with a positive arrival rate for t in _arrivals_span
        self._arrivals: List[Tuple[str, float]] = []
        self._arrivals_span = (math.inf, -math.inf)  # empty, so the first step fills it

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

        One pass over the vehicles moves them and counts the stopped ones,
        so the sample equals :meth:`queue_length` without a second pass.
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
        """Move one lane's vehicles; returns how many end the step stopped."""
        queue = self.vehicles[lane.lane_id]  # front first: vehicles join only at the back
        if not queue:
            return 0
        speed = lane.free_flow_speed
        survivors: List[Vehicle] = []
        stopped = 0
        front_limit = 0.0  # closest position the next vehicle may occupy
        for veh in queue:
            position = veh.position
            candidate = position - speed
            if not survivors and candidate <= 0.0 and served:
                if t_next - self._last_departure[lane.lane_id] >= lane.saturation_headway:
                    veh.completion_time = t_next
                    veh.position = 0.0
                    veh.speed = speed
                    self._last_departure[lane.lane_id] = t_next
                    self.completed.append(veh)
                    continue
            # max(candidate, front_limit), then min(., position): on a tie the
            # two picks are equal floats, and no -0.0 can arise here
            new_pos = candidate if candidate > front_limit else front_limit
            if new_pos > position:  # never move backwards
                new_pos = position
            veh.speed = moved = position - new_pos  # per 1 s step
            veh.position = new_pos
            survivors.append(veh)
            if moved < SPEED_STOPPED:
                stopped += 1
            front_limit = new_pos + JAM_SPACING
        queue[:] = survivors
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
        # Poisson arrivals, one draw per lane with a positive rate, in lane order.
        lo, hi = self._arrivals_span
        if not lo <= self.time < hi:
            self._cache_arrivals(self.time)
        poisson = self.rng.poisson
        for lane_id, rate in self._arrivals:
            for _ in range(int(poisson(rate))):
                stopped += self._add_vehicle(lane_id, t_next)
        return stopped

    def _cache_arrivals(self, t: float) -> None:
        """Cache the lanes whose ``rate_at(lane, t)`` is positive, with their rates.

        Rates change only at surge edges, so the cache holds on the span
        between the edges around ``t``; nothing else writes to the demand.
        """
        edges = [edge for start, end, _ in self.demand.surges for edge in (start, end)]
        self._arrivals_span = (
            max((e for e in edges if e <= t), default=-math.inf),
            min((e for e in edges if e > t), default=math.inf),
        )
        rates = [(lid, self.demand.rate_at(lid, t)) for lid in self.topo.lane_ids]
        # without base rates there are no draws, surges or not; a NaN rate reaches poisson
        self._arrivals = [(lid, r) for lid, r in rates if not r <= 0] if self.demand.rates else []

    def _add_vehicle(self, lane_id: str, when: float) -> bool:
        """Put a vehicle at the back of ``lane_id``; returns whether it counts as stopped."""
        lane = self._lanes[lane_id]
        veh = Vehicle(
            vid=self._next_vid,
            lane=lane_id,
            position=lane.road_length,
            speed=lane.free_flow_speed,
            spawn_time=when,
        )
        self._next_vid += 1
        self.injected_count += 1
        self.vehicles[lane_id].append(veh)
        return veh.speed < SPEED_STOPPED

    # -- observation -----------------------------------------------------

    def observe(self) -> Dict[str, "LaneObservation"]:
        out = {}
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
            out[lane.lane_id] = LaneObservation(early, seg1, seg2, seg3)
        return out

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
        if not self.completed:
            return Metrics(
                travel_time=math.nan,
                queue_length=float(np.mean(self._queue_samples)) if self._queue_samples else 0.0,
                delay_seconds=math.nan,
                delay_ratio=math.nan,
                throughput=0,
            )
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
            travel_time=float(np.mean(travel)),
            queue_length=float(np.mean(self._queue_samples)) if self._queue_samples else 0.0,
            delay_seconds=float(np.mean(delays)),
            delay_ratio=float(np.mean(ratios)),
            throughput=len(self.completed),
        )

    # -- serialization (resumable checkpoints) ---------------------------

    def state_dict(self) -> dict:
        def pack(veh: Vehicle) -> list:
            return [veh.vid, veh.lane, veh.position, veh.speed, veh.spawn_time, veh.completion_time]

        return {
            "time": self.time,
            "active_phase": self.active_phase,
            "pending_phase": self.pending_phase,
            "yellow_remaining": self.yellow_remaining,
            "vehicles": {lid: [pack(v) for v in vs] for lid, vs in self.vehicles.items()},
            "completed": [pack(v) for v in self.completed],
            "injected_count": self.injected_count,
            "next_vid": self._next_vid,
            "last_departure": {
                lid: (None if math.isinf(t) else t) for lid, t in self._last_departure.items()
            },
            "spawn_cursor": self._spawn_cursor,
            "queue_samples": list(self._queue_samples),
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        def unpack(row: list) -> Vehicle:
            return Vehicle(
                vid=int(row[0]),
                lane=row[1],
                position=float(row[2]),
                speed=float(row[3]),
                spawn_time=float(row[4]),
                completion_time=None if row[5] is None else float(row[5]),
            )

        self.time = float(state["time"])
        self.active_phase = int(state["active_phase"])
        self.pending_phase = None if state["pending_phase"] is None else int(state["pending_phase"])
        self.yellow_remaining = float(state["yellow_remaining"])
        self.vehicles = {lid: [unpack(r) for r in rows] for lid, rows in state["vehicles"].items()}
        self.completed = [unpack(r) for r in state["completed"]]
        self.injected_count = int(state["injected_count"])
        self._next_vid = int(state["next_vid"])
        self._last_departure = {
            lid: (-math.inf if t is None else float(t)) for lid, t in state["last_departure"].items()
        }
        self._spawn_cursor = int(state["spawn_cursor"])
        self._queue_samples = [float(q) for q in state["queue_samples"]]
        self.rng.bit_generator.state = state["rng_state"]


@dataclass(frozen=True)
class LaneObservation:
    early_queued: int
    seg1: int
    seg2: int
    seg3: int

    @property
    def total(self) -> int:
        return self.early_queued + self.seg1 + self.seg2 + self.seg3


@dataclass(frozen=True)
class Metrics:
    travel_time: float
    queue_length: float
    delay_seconds: float
    delay_ratio: float
    throughput: int
