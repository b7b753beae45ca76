"""Shared domain types for the three-level traffic model.

Level 1 tracks individual vehicles on lane cells, level 2 tracks per-lane
(occupancy, backlog, signal) triples, level 3 tracks per-intersection phase
state.  Topology objects are immutable after construction; the mutable
simulation state lives in :class:`Level1Arrays`, :class:`Level3State` and
small per-step arrays owned by the engine.

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
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np


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


class TopologyTables(NamedTuple):
    """Padded array form of a topology's level-1, level-2 and level-3 structure.

    Columns are stored first, so a kernel adds one column per pass and the
    sums keep the stored left-to-right order.
    """

    exit_targets: np.ndarray  # [max exits, lanes]; padding: the lane itself
    exit_weights: np.ndarray  # [max exits, lanes]; padding: 0.0
    phase_lanes: np.ndarray   # [max lanes per phase, nodes, max phases]; padding: -1
    phase_base: np.ndarray    # [nodes, max phases]: 0.0, or -inf for a phase the node lacks
    phase_row: np.ndarray     # [nodes]: node * max phases, a node's row of the flat scores
    # three [nodes, max phases, max entries] arrays, one entry per slot of the
    # phase it credits: neighbor, the neighbor's phase, travel (float); padding: phase -1
    coordination: tuple[np.ndarray, np.ndarray, np.ndarray]
    lane_length: np.ndarray   # [lanes]
    last_cell: np.ndarray     # [lanes]: lane_length - 1
    exit_room: np.ndarray     # [lanes]: 0, or unbounded extra room on a network-exit lane
    exit_cum: np.ndarray      # [max exits, lanes]: running weight sum in exit order; inf from the last exit on
    exit_last: np.ndarray     # [lanes]: index of the last exit, -1 on a network-exit lane
    key_stride: int           # the longest lane: lane * key_stride - cell orders the arrays
    entry_key: np.ndarray     # [entries]: that key of each entry cell
    entry_columns: np.ndarray # [4, entries]: a vehicle placed at each entry, id 0
    signal_node: np.ndarray   # [lanes]: the downstream node, -1 on a network-exit lane
    signal_row: np.ndarray    # [lanes]: lane * max phases, a lane's row of signal_green
    signal_green: np.ndarray  # [lanes * max phases]: flat [lane, phase] signal bit
    phase_count: np.ndarray   # [nodes]: how many phases each node has


# room no speed reaches, far from overflow when lengths are added to it
_UNBOUNDED = np.iinfo(np.intp).max // 4


def _compile_tables(
    lanes: tuple[LaneDescriptor, ...],
    nodes: tuple[IntersectionDescriptor, ...],
    entry_points: tuple[tuple[int, int], ...],
) -> TopologyTables:
    width = max((len(lane.exits) for lane in lanes), default=0)
    exit_targets = np.tile(np.arange(len(lanes), dtype=np.intp), (width, 1))
    exit_weights = np.zeros((width, len(lanes)))
    for li, lane in enumerate(lanes):
        for j, (target, w) in enumerate(lane.exits):
            exit_targets[j, li] = target
            exit_weights[j, li] = w

    # at least one column, so that argmax has an axis to reduce over even
    # on a network without intersections
    n_phases = max((len(node.phases) for node in nodes), default=1)
    depth = max((len(ph) for node in nodes for ph in node.phases), default=0)
    phase_lanes = np.full((depth, len(nodes), n_phases), -1, dtype=np.intp)
    phase_base = np.full((len(nodes), n_phases), -np.inf)
    for i, node in enumerate(nodes):
        phase_base[i, : len(node.phases)] = 0.0
        for k, phase in enumerate(node.phases):
            phase_lanes[: len(phase), i, k] = phase
    # one entry per (neighbor link, compatibility triple) pair; a triple
    # naming no phase of its node can never raise a priority and is dropped
    slots: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for i, node in enumerate(nodes):
        for nbr, travel in node.neighbors:
            for linked, nbr_phase, own in node.compatibility:
                if linked == nbr and 0 <= own < len(node.phases):
                    slots.setdefault((i, own), []).append((nbr, nbr_phase, travel))
    shape = (len(nodes), n_phases, max(map(len, slots.values()), default=0))
    nbr, nbr_phase, travel = np.zeros(shape, np.intp), np.full(shape, -1), np.zeros(shape)
    for (i, own), slot in slots.items():
        k = len(slot)
        nbr[i, own, :k], nbr_phase[i, own, :k], travel[i, own, :k] = np.array(slot).T

    lane_length = np.array([lane.length for lane in lanes], dtype=np.intp)
    exit_last = np.array([len(lane.exits) - 1 for lane in lanes], dtype=np.intp)
    # cumsum adds one exit at a time, as the turning rule's running sum does,
    # bit for bit; the last exit and the padding read inf
    exit_cum = np.where(np.arange(width)[:, None] < exit_last, exit_weights.cumsum(axis=0), np.inf)
    stride = int(lane_length.max(initial=1))
    entry_key = np.array([li * stride - c for li, c in entry_points], dtype=np.intp)
    entry_columns = np.zeros((4, len(entry_points)), dtype=np.intp)
    entry_columns[:2] = np.array(entry_points, dtype=np.intp).reshape(-1, 2).T
    # a lane is green under each phase of its downstream node that lists it,
    # a network-exit lane (node -1) under every phase
    downstream = [lane.downstream for lane in lanes]
    signal_node = np.array([-1 if node is None else node for node in downstream], dtype=np.intp)
    signalled = np.flatnonzero(signal_node >= 0)
    green = np.ones((len(lanes), n_phases), dtype=np.intp)
    green[signalled] = (phase_lanes[:, signal_node[signalled]] == signalled[:, None]).any(axis=0)
    return TopologyTables(
        exit_targets, exit_weights, phase_lanes, phase_base,
        n_phases * np.arange(len(nodes)), (nbr, nbr_phase, travel),
        lane_length, lane_length - 1, np.where(exit_last < 0, _UNBOUNDED, 0),
        exit_cum, exit_last, stride, entry_key, entry_columns,
        signal_node, n_phases * np.arange(len(lanes)), green.ravel(),
        np.array([len(node.phases) for node in nodes], dtype=np.uintp),
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

    @cached_property
    def tables(self) -> TopologyTables:
        """The padded arrays the level-1 array kernel and the level-2 and
        level-3 kernels run on.

        Built on first use and cached on the topology.  A lane's exits and a
        phase's lanes keep their stored order; padding adds 0.0 to a sum,
        and a phase a node lacks scores -inf.
        """
        return _compile_tables(self.lanes, self.intersections, self.entry_points)


def replicate(topology: NetworkTopology, copies: int) -> NetworkTopology:
    """``copies`` disjoint copies of ``topology`` as one network.

    Copy ``r``'s lane, node and entry ids are the original ids plus ``r``
    times the topology's lane, node and entry counts; one copy is the
    topology itself.
    """
    if copies == 1:
        return topology
    lanes: list[LaneDescriptor] = []
    nodes: list[IntersectionDescriptor] = []
    entries: list[tuple[int, int]] = []
    for r in range(copies):
        dl, dn = r * topology.n_lanes, r * topology.n_intersections
        lanes += [
            LaneDescriptor(
                lane.length,
                None if lane.upstream is None else lane.upstream + dn,
                None if lane.downstream is None else lane.downstream + dn,
                tuple((target + dl, w) for target, w in lane.exits),
            )
            for lane in topology.lanes
        ]
        nodes += [
            IntersectionDescriptor(
                tuple(li + dl for li in node.inbound_lanes),
                tuple(tuple(li + dl for li in phase) for phase in node.phases),
                tuple((nbr + dn, travel) for nbr, travel in node.neighbors),
                frozenset((nbr + dn, a, b) for nbr, a, b in node.compatibility),
            )
            for node in topology.intersections
        ]
        entries += [(li + dl, cell) for li, cell in topology.entry_points]
    return NetworkTopology(tuple(lanes), tuple(nodes), tuple(entries))


class Level1Arrays:
    """Vehicle-level state as whole-network arrays.

    ``data`` holds one column per vehicle with rows lane, cell, speed and id,
    sorted by lane and then by descending cell, so a lane's vehicles are one
    contiguous segment whose first column is the lane's front vehicle, and
    the columns run in the order the vehicles take their dawdle draws.  The
    network may be ``replicas`` disjoint copies of one topology (see
    :func:`replicate`): copy ``r`` owns the ``r``-th of as many equal blocks
    of lane ids, and vehicle ids count up from 0 in each copy.
    """

    __slots__ = ("data", "lane_lengths", "replicas", "_first_lanes")

    def __init__(self, topology: NetworkTopology, replicas: int = 1):
        self.lane_lengths = np.array([lane.length for lane in topology.lanes], dtype=np.intp)
        self.replicas = replicas
        self.data = np.empty((4, 0), dtype=np.intp)
        # each copy's first lane id, then the lane count
        per_copy = self.lane_lengths.size // replicas
        self._first_lanes = None if replicas == 1 else np.arange(replicas + 1) * per_copy

    def replica_cuts(self, lanes: np.ndarray) -> list[int]:
        """Where each copy's share of the ascending ``lanes`` starts, then
        their count."""
        if self.replicas == 1:
            return [0, lanes.size]
        return lanes.searchsorted(self._first_lanes).tolist()

    def per_replica(self, lanes: np.ndarray) -> np.ndarray:
        """How many of the ascending ``lanes`` belong to each copy."""
        if self.replicas == 1:
            return np.array([lanes.size])
        cuts = lanes.searchsorted(self._first_lanes)
        return cuts[1:] - cuts[:-1]

    @property
    def vehicle_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class IntersectionState:
    """Intersection-level state: active phase index and steps since activation."""

    pi: int
    tau: int


class Level3State:
    """Intersection-level state of every node as two int arrays.

    ``pi[i]`` is node ``i``'s active phase and ``tau[i]`` the steps since it
    came up.  The selectors read and write the arrays; iteration gives
    :class:`IntersectionState` views built on access.  An argument that is
    not a numpy array raises :class:`TypeError`, a ``tau`` whose shape is
    not ``pi``'s :class:`ValueError`.
    """

    __slots__ = ("pi", "tau")

    def __init__(self, pi: np.ndarray, tau: np.ndarray):
        try:
            same_shape = pi.shape == tau.shape
        except AttributeError:
            raise TypeError(
                f"phases and elapsed times: {type(pi).__name__} and {type(tau).__name__} "
                "given, numpy arrays needed"
            ) from None
        if not same_shape:
            raise ValueError(f"elapsed times: shape {tau.shape} for phases of shape {pi.shape}")
        self.pi = pi
        self.tau = tau

    @classmethod
    def of(cls, states: Iterable[IntersectionState]) -> "Level3State":
        """``states`` as a Level3State (itself when it already is one)."""
        if isinstance(states, Level3State):
            return states
        states = list(states)
        return cls(
            np.array([s.pi for s in states], dtype=np.intp),
            np.array([s.tau for s in states], dtype=np.intp),
        )

    def __iter__(self) -> Iterator[IntersectionState]:
        for pi, tau in zip(self.pi.tolist(), self.tau.tolist()):
            yield IntersectionState(pi, tau)


def check_probability(name: str, value) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is a
    number in [0, 1]."""
    try:
        ok = 0.0 <= value <= 1.0
    except TypeError:
        raise ConfigError(f"{name}: {value!r} is not a number") from None
    if not ok:
        raise ConfigError(f"{name}={value}: probability out of range [0, 1]")


def check_integer(name: str, value, minimum: int) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is an
    integer of at least ``minimum``; numpy integers count, as anything
    ``operator.index`` takes does."""
    try:
        ok = operator.index(value) >= minimum
    except TypeError:
        raise ConfigError(f"{name}: {value!r} is not an integer") from None
    if not ok:
        raise ConfigError(f"{name}={value}: must be >= {minimum}")


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
        check_integer("v_max", self.v_max, 1)
        check_probability("p", self.p)
        check_probability("q", self.q)
        try:
            ok = math.isfinite(self.alpha) and self.alpha >= 0.0
        except TypeError:
            raise ConfigError(f"alpha: {self.alpha!r} is not a number") from None
        if not ok:
            raise ConfigError(f"alpha={self.alpha}: must be >= 0 and finite")
        check_integer("horizon", self.horizon, 1)
        check_integer("seed", self.seed, 0)
        check_integer("min_green", self.min_green, 0)
        if self.stop_window is not None:
            check_integer("stop_window", self.stop_window, 1)
        for j, green in enumerate(self.fixed_time_split or ()):
            check_integer(f"fixed_time_split[{j}]", green, 0)
        if self.strategy not in _STRATEGIES:
            raise ConfigError(
                f"strategy={self.strategy!r}: expected one of {', '.join(_STRATEGIES)}"
            )
        try:
            for i, x in enumerate(self.resolved_intensities()):
                if not 0.0 <= x <= 1.0:
                    raise ConfigError(
                        f"entry {i} intensity {x}: probability out of range [0, 1]"
                    )
        except TypeError:  # one loop, no per-entry type check, on a long entry list
            raise ConfigError(f"entry_intensities[{i}]: {x!r} is not a number") from None
        if self.strategy == "fixed_time":
            split = self.fixed_time_split
            if not split or sum(split) == 0:
                raise ConfigError(
                    "fixed_time strategy needs a fixed_time_split with a positive total"
                )
            # phase j reads split[j % len(split)], so a node of n phases reads
            # split[:n], or the whole split when n >= len(split)
            for i, node in enumerate(self.topology.intersections):
                if not any(split[: len(node.phases)]):
                    raise ConfigError(
                        f"intersection {i}: fixed_time_split leaves every phase at zero"
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

    def integer(value) -> bool:  # numpy integers count, as in check_integer
        try:
            operator.index(value)
        except TypeError:
            return False
        return True

    # the lanes some phase gives green; the node loop below checks that a
    # phase's lanes end at its own node
    served = {li for node in topology.intersections for phase in node.phases for li in phase}
    for li, lane in enumerate(topology.lanes):
        if not integer(lane.length):
            report.append(f"lane {li}: length {lane.length!r} is not an integer")
            continue
        if lane.length < 1:
            report.append(f"lane {li}: length {lane.length} < 1")
            continue
        if lane.upstream is not None and not 0 <= lane.upstream < n_nodes:
            report.append(f"lane {li}: upstream intersection {lane.upstream} does not exist")
        if lane.downstream is not None and not 0 <= lane.downstream < n_nodes:
            report.append(f"lane {li}: downstream intersection {lane.downstream} does not exist")
        elif lane.downstream is not None and li not in served:
            report.append(f"lane {li}: no phase of intersection {lane.downstream} serves it")
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
        elif not integer(cell):
            report.append(f"entry {ei}: cell {cell!r} is not an integer")
        elif integer(topology.lanes[lane_id].length) and not (
            0 <= cell < topology.lanes[lane_id].length
        ):
            report.append(f"entry {ei}: cell {cell} outside lane {lane_id}")

    return report


def check_level1(state: Level1Arrays, topology: NetworkTopology, v_max: int) -> list[str]:
    """Check vehicle-level invariants (collision freedom, bounds, sortedness)."""
    lane, cell, speed, vid = state.data
    problems = [
        ((cell < 0) | (cell >= topology.tables.lane_length[lane]), "at cell {c} off-lane"),
        ((speed < 0) | (speed > v_max), "speed {s} out of range"),
    ]
    report = [
        f"lane {lane[i]}: vehicle {vid[i]} " + text.format(c=cell[i], s=speed[i])
        for bad, text in problems
        for i in np.flatnonzero(bad).tolist()
    ]
    unsorted = (lane[1:] < lane[:-1]) | (lane[1:] == lane[:-1]) & (cell[1:] >= cell[:-1])
    for i in np.flatnonzero(unsorted).tolist():
        report.append(
            f"lane {lane[i + 1]}: cell {cell[i + 1]} not strictly behind lane {lane[i]} "
            f"cell {cell[i]} (collision or unsorted)"
        )
    return report
