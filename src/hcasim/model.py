"""Shared domain types for the three-level traffic model.

Level 1 tracks individual vehicles on lane cells, level 2 tracks per-lane
(occupancy, backlog, signal) triples, level 3 tracks per-intersection phase
state.  Topology objects are immutable after construction; the mutable
simulation state lives in :class:`Level1State` and small per-step arrays
owned by the engine.

Geometry conventions:

* A lane of ``length`` L has drivable cells ``0 .. L-1``.  Its stop line
  (``signal_cell``) sits at index L, one past the last cell, so a vehicle on
  the final cell is at distance 1 from the signal.  The stop line is derived
  from ``length``, never stored, and a network-exit lane's end is also where
  its vehicles leave the network.
* Intersections are not drivable: a vehicle crossing on green moves directly
  from the final cell of its inbound lane onto the first cells of the chosen
  successor lane.
* Units: 1 cell = 7.5 m, 1 step = 1 s.  A 300 m block is 40 cells and a top
  speed of 2 cells/step is 54 km/h.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class ConfigError(ValueError):
    """Invalid configuration or topology input."""


class SimulationError(RuntimeError):
    """Internal invariant violated while stepping (a bug, not a data issue)."""


@dataclass(frozen=True)
class LaneDescriptor:
    """One unidirectional lane segment.

    ``exits`` maps successor lane ids to turn probabilities (the set of lanes
    a vehicle can continue onto after crossing the downstream intersection).
    It is stored as an ordered tuple of ``(lane_id, probability)`` pairs so
    the descriptor stays hashable and iteration order is deterministic.
    """

    length: int
    upstream: int | None      # feeding intersection id, None at a network entry
    downstream: int | None    # receiving intersection id, None at a network exit
    exits: tuple[tuple[int, float], ...] = ()

    @property
    def signal_cell(self) -> int:
        """The stop line, one past the last cell."""
        return self.length


@dataclass(frozen=True)
class IntersectionDescriptor:
    """One signalized intersection.

    ``phases`` lists the lane-id sets that receive green together; exactly one
    phase is active at a time.  ``neighbors`` holds the upstream intersections
    vehicles arrive from, with the free-flow travel time (steps) from each.
    ``compatibility`` contains ``(neighbor_id, neighbor_phase, own_phase)``
    triples: running ``own_phase`` gives green to traffic that the neighbor
    released while running ``neighbor_phase``.
    """

    inbound_lanes: tuple[int, ...]
    phases: tuple[tuple[int, ...], ...]
    neighbors: tuple[tuple[int, int], ...] = ()
    compatibility: frozenset[tuple[int, int, int]] = frozenset()

    @cached_property
    def coordination_table(self) -> tuple[tuple[int, int, dict[int, tuple[int, ...]]], ...]:
        """``(neighbor, travel, {neighbor_phase: own phases})`` per neighbor.

        ``compatibility`` regrouped in one pass, so the own phases a
        neighbor's running phase feeds are a single lookup away.  Neighbors
        that feed no phase, and triples naming no phase of this node, are
        left out: they can never raise a priority.  Built on first use and
        cached on the descriptor.
        """
        feeds: dict[int, dict[int, list[int]]] = {}
        for nbr, nbr_phase, own in self.compatibility:
            if 0 <= own < len(self.phases):
                feeds.setdefault(nbr, {}).setdefault(nbr_phase, []).append(own)
        return tuple(
            (nbr, travel, {k: tuple(v) for k, v in feeds[nbr].items()})
            for nbr, travel in self.neighbors
            if nbr in feeds
        )


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable road network: lanes, intersections and entry points.

    ``entry_points`` is an ordered tuple of ``(lane_id, cell)`` pairs; the
    order defines how per-entry intensities in :class:`SimConfig` line up.
    """

    lanes: tuple[LaneDescriptor, ...]
    intersections: tuple[IntersectionDescriptor, ...]
    entry_points: tuple[tuple[int, int], ...]

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def n_intersections(self) -> int:
        return len(self.intersections)


@dataclass(slots=True)
class Vehicle:
    """One vehicle record; it leaves the network past the end of an exit lane."""

    id: int
    lane: int
    cell: int
    speed: int


class Level1State:
    """Vehicle-level state: one position-sorted vehicle list per lane.

    Lists are kept sorted by cell in ascending order; the last element of a
    list is the lane's front vehicle.
    """

    __slots__ = ("lane_vehicles", "lane_lengths")

    def __init__(self, lane_lengths: list[int]):
        self.lane_lengths = list(lane_lengths)
        self.lane_vehicles: list[list[Vehicle]] = [[] for _ in lane_lengths]

    @classmethod
    def empty(cls, topology: NetworkTopology) -> "Level1State":
        return cls([lane.length for lane in topology.lanes])

    def vehicles(self) -> Iterator[Vehicle]:
        """All vehicle records, in (lane, ascending cell) order."""
        for lst in self.lane_vehicles:
            yield from lst

    @property
    def vehicle_count(self) -> int:
        return sum(len(lst) for lst in self.lane_vehicles)


@dataclass(frozen=True)
class IntersectionState:
    """Intersection-level state: active phase index and steps since activation."""

    pi: int
    tau: int


_STRATEGIES = ("backpressure", "hca", "fixed_time")


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulation run.

    ``entry_intensities`` optionally overrides the per-entry arrival
    probability; a ``None`` slot (or a ``None`` tuple) means "use ``q``".
    ``stop_window`` restricts stop-delay counting to the last N cells of each
    lane (None counts network-wide).  ``fixed_time_split`` gives per-phase
    green durations for the fixed_time strategy.
    """

    topology: NetworkTopology
    v_max: int = 2
    p: float = 0.2
    alpha: float = 1.0
    q: float = 0.1
    entry_intensities: tuple[float | None, ...] | None = None
    horizon: int = 3600
    seed: int = 0
    strategy: str = "hca"
    min_green: int = 0
    stop_window: int | None = None
    fixed_time_split: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.v_max < 1:
            raise ConfigError(f"v_max={self.v_max}: must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p={self.p}: probability out of range [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"q={self.q}: probability out of range [0, 1]")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ConfigError(f"alpha={self.alpha}: must be >= 0 and finite")
        if self.horizon < 1:
            raise ConfigError(f"horizon={self.horizon}: must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed}: must be >= 0")
        if self.min_green < 0:
            raise ConfigError(f"min_green={self.min_green}: must be >= 0")
        if self.stop_window is not None and self.stop_window < 1:
            raise ConfigError(f"stop_window={self.stop_window}: must be >= 1")
        if self.strategy not in _STRATEGIES:
            raise ConfigError(
                f"strategy={self.strategy!r}: expected one of {', '.join(_STRATEGIES)}"
            )
        for i, x in enumerate(self.resolved_intensities()):
            if not 0.0 <= x <= 1.0:
                raise ConfigError(
                    f"entry {i} intensity {x}: probability out of range [0, 1]"
                )
        if self.strategy == "fixed_time":
            split = self.fixed_time_split
            if not split or any(s < 0 for s in split) or sum(split) == 0:
                raise ConfigError(
                    "fixed_time strategy needs a fixed_time_split with a positive total"
                )

    def resolved_intensities(self) -> tuple[float, ...]:
        """Per-entry arrival probabilities with ``q`` filled into None slots."""
        entries = self.topology.entry_points
        if self.entry_intensities is None:
            return tuple(self.q for _ in entries)
        if len(self.entry_intensities) != len(entries):
            raise ConfigError(
                f"entry_intensities has {len(self.entry_intensities)} values "
                f"for {len(entries)} entry points"
            )
        return tuple(self.q if x is None else x for x in self.entry_intensities)

    def effective_alpha(self) -> float:
        """Coordination weight after strategy resolution (backpressure pins 0)."""
        return 0.0 if self.strategy == "backpressure" else self.alpha


def topology_digest(topology: NetworkTopology) -> str:
    """Short stable hash of the network structure."""
    parts: list[str] = []
    for i, lane in enumerate(topology.lanes):
        parts.append(
            f"L{i}:{lane.length},{lane.upstream},{lane.downstream},"
            f"{lane.signal_cell},{sorted(lane.exits)!r}"
        )
    for i, node in enumerate(topology.intersections):
        parts.append(
            f"I{i}:{node.inbound_lanes!r},{node.phases!r},"
            f"{sorted(node.neighbors)!r},{sorted(node.compatibility)!r}"
        )
    parts.append(f"E:{topology.entry_points!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def config_digest(config: SimConfig) -> str:
    """Short stable hash of the dynamics a config produces.

    Computed over the strategy-resolved behavior, so ``backpressure`` and
    ``hca`` with alpha=0 digest identically (they are the same controller).
    The seed is excluded; it is recorded separately in run provenance.
    """
    if config.strategy == "fixed_time":
        controller = f"fixed:{config.fixed_time_split!r}"
    else:
        controller = f"adaptive:{config.effective_alpha()!r},{config.min_green}"
    blob = "|".join(
        [
            topology_digest(config.topology),
            f"v_max={config.v_max}",
            f"p={config.p!r}",
            f"q={config.resolved_intensities()!r}",
            f"horizon={config.horizon}",
            f"stop_window={config.stop_window}",
            controller,
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def validate_topology(topology: NetworkTopology) -> list[str]:
    """Check every structural invariant; returns violations (empty if valid).

    Violations are data, not exceptions: callers that require a valid network
    (the engine, the CLI) raise :class:`ConfigError` on a non-empty report.
    """
    report: list[str] = []
    n_lanes = len(topology.lanes)
    n_nodes = len(topology.intersections)

    def lane_ok(i: int) -> bool:
        return 0 <= i < n_lanes

    for li, lane in enumerate(topology.lanes):
        if lane.length < 1:
            report.append(f"lane {li}: length {lane.length} < 1")
            continue
        if lane.upstream is not None and not 0 <= lane.upstream < n_nodes:
            report.append(f"lane {li}: upstream intersection {lane.upstream} does not exist")
        if lane.downstream is not None and not 0 <= lane.downstream < n_nodes:
            report.append(f"lane {li}: downstream intersection {lane.downstream} does not exist")
        if lane.exits:
            total = sum(w for _, w in lane.exits)
            if abs(total - 1.0) > 1e-9:
                report.append(f"lane {li}: exit probabilities sum to {total}, not 1")
            for target, w in lane.exits:
                if not lane_ok(target):
                    report.append(f"lane {li}: exit target lane {target} does not exist")
                elif (
                    w > 0.0
                    and lane.downstream is not None
                    and topology.lanes[target].upstream != lane.downstream
                ):
                    report.append(
                        f"lane {li}: exit lane {target} does not start at "
                        f"intersection {lane.downstream}"
                    )
                if not 0.0 <= w <= 1.0:
                    report.append(f"lane {li}: exit probability {w} out of range")
            if lane.downstream is None:
                report.append(f"lane {li}: network-exit lane must have an empty exits map")
        elif lane.downstream is not None:
            report.append(f"lane {li}: lane into intersection {lane.downstream} has no exits")

    for ii, node in enumerate(topology.intersections):
        if not node.inbound_lanes:
            report.append(f"intersection {ii}: empty inbound lane set")
        for li in node.inbound_lanes:
            if not lane_ok(li):
                report.append(f"intersection {ii}: inbound lane {li} does not exist")
            elif topology.lanes[li].downstream != ii:
                report.append(
                    f"intersection {ii}: inbound lane {li} ends at "
                    f"{topology.lanes[li].downstream}, not here"
                )
        if len(set(node.phases)) < 2:
            report.append(f"intersection {ii}: needs at least two distinct phases")
        inbound = set(node.inbound_lanes)
        for pi, phase in enumerate(node.phases):
            if not phase:
                report.append(f"intersection {ii}: phase {pi} is empty")
            if not set(phase) <= inbound:
                report.append(f"intersection {ii}: phase {pi} uses non-inbound lanes")
        neighbor_ids = set()
        for nbr, time in node.neighbors:
            neighbor_ids.add(nbr)
            if not 0 <= nbr < n_nodes:
                report.append(f"intersection {ii}: neighbor {nbr} does not exist")
            if time < 1:
                report.append(f"intersection {ii}: travel time {time} from {nbr} < 1")
        for nbr, nbr_phase, own_phase in node.compatibility:
            if nbr not in neighbor_ids:
                report.append(
                    f"intersection {ii}: compatibility references non-neighbor {nbr}"
                )
                continue
            if not 0 <= own_phase < len(node.phases):
                report.append(f"intersection {ii}: compatibility phase {own_phase} invalid")
            if not 0 <= nbr_phase < len(topology.intersections[nbr].phases):
                report.append(
                    f"intersection {ii}: compatibility neighbor phase {nbr_phase} "
                    f"invalid for intersection {nbr}"
                )

    for ei, (lane_id, cell) in enumerate(topology.entry_points):
        if not lane_ok(lane_id):
            report.append(f"entry {ei}: lane {lane_id} does not exist")
        elif not 0 <= cell < topology.lanes[lane_id].length:
            report.append(f"entry {ei}: cell {cell} outside lane {lane_id}")

    return report


def check_level1(state: Level1State, topology: NetworkTopology, v_max: int) -> list[str]:
    """Check vehicle-level invariants (collision freedom, bounds, sortedness)."""
    report: list[str] = []
    for li, lst in enumerate(state.lane_vehicles):
        length = topology.lanes[li].length
        prev = -1
        for veh in lst:
            if veh.lane != li:
                report.append(f"lane {li}: vehicle {veh.id} tagged with lane {veh.lane}")
            if not 0 <= veh.cell < length:
                report.append(f"lane {li}: vehicle {veh.id} at cell {veh.cell} off-lane")
            if veh.cell <= prev:
                report.append(
                    f"lane {li}: cell {veh.cell} not strictly after {prev} "
                    f"(collision or unsorted)"
                )
            if not 0 <= veh.speed <= v_max:
                report.append(f"lane {li}: vehicle {veh.id} speed {veh.speed} out of range")
            prev = veh.cell
    return report
