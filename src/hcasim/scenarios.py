"""Network builders and the textual configuration format.

Both built-in scenarios are one-way roads crossing at two-phase signalized
intersections, laid out by one rule.  A road is the list of nodes it passes;
through k nodes it is k + 1 consecutive lanes of equal length (entry lane
first, exit lane last), all traffic goes straight, and its entry point is
cell 0 of its first lane.  Roads are numbered in order, and each node gets
one inbound lane and one phase per road that crosses it, in road order.

* ``grid``: ``roads_per_direction`` eastbound rows, then as many northbound
  columns, crossing at every node of the square grid.
* ``arterial``: one eastbound arterial through a row of intersections, then
  one northbound side road per intersection with its own (usually light)
  demand.

The builders only lay out lanes and phases; neighbor links and green-wave
compatibility are derived from the lane geometry afterwards, so hand-built
networks get the same treatment via :func:`derive_compatibility`.
"""

from __future__ import annotations

import math
from functools import partial

from .model import (
    ConfigError,
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    SimConfig,
    check_integer,
    check_probability,
)

DEFAULT_SIDE_INTENSITY = 0.02


def derive_compatibility(topology: NetworkTopology, v_max: int) -> NetworkTopology:
    """Fill in neighbor links and phase compatibility from lane geometry.

    Every inbound lane fed by an upstream intersection makes that node a
    coordination neighbor, at the connecting lane's free-flow travel time
    (length over ``v_max``, rounded up).  An upstream phase is compatible
    with a local phase when some lane it serves releases traffic onto a lane
    the local phase serves.  A lane or node id that names nothing is
    skipped, so that :func:`validate_topology` on the result reports it.
    """
    check_integer("v_max", v_max, 1)
    n_lanes, n_nodes = len(topology.lanes), len(topology.intersections)
    nodes = []
    for node in topology.intersections:
        neighbors: dict[int, int] = {}
        compat: set[tuple[int, int, int]] = set()
        for li in node.inbound_lanes:
            if not 0 <= li < n_lanes:
                continue
            lane = topology.lanes[li]
            up = lane.upstream
            if up is None or not 0 <= up < n_nodes:
                continue
            travel = math.ceil(lane.length / v_max)
            neighbors[up] = min(neighbors.get(up, travel), travel)
            up_node = topology.intersections[up]
            feeders = [
                ul
                for ul in up_node.inbound_lanes
                if 0 <= ul < n_lanes
                and any(t == li and w > 0.0 for t, w in topology.lanes[ul].exits)
            ]
            if not feeders:
                continue
            local = [pi for pi, ph in enumerate(node.phases) if li in ph]
            for up_pi, up_phase in enumerate(up_node.phases):
                if any(f in up_phase for f in feeders):
                    for pi in local:
                        compat.add((up, up_pi, pi))
        nodes.append(
            IntersectionDescriptor(
                inbound_lanes=node.inbound_lanes,
                phases=node.phases,
                neighbors=tuple(sorted(neighbors.items())),
                compatibility=frozenset(compat),
            )
        )
    return NetworkTopology(topology.lanes, tuple(nodes), topology.entry_points)


# The fewest cells a block of a built-in network may have.
_MIN_BLOCK_CELLS = 2


def _lay_roads(
    roads: list[list[int]], n_nodes: int, block_cells: int, v_max: int
) -> NetworkTopology:
    """Lay out one-way roads, each given as the node ids it passes in order.

    A road through k nodes is k + 1 consecutive lanes of ``block_cells``
    cells: an entry lane, one lane between each pair of nodes, and an exit
    lane.  A road's entry point is cell 0 of its first lane.  Every node
    takes, in road order, one inbound lane and one single-lane phase per
    road that crosses it; neighbor links and compatibility are derived.
    """
    check_integer("block_cells", block_cells, _MIN_BLOCK_CELLS)
    lanes: list[LaneDescriptor] = []
    entries = []
    inbound: list[list[int]] = [[] for _ in range(n_nodes)]
    for road in roads:
        entries.append((len(lanes), 0))
        upstream = None
        for node in road:
            inbound[node].append(len(lanes))
            lanes.append(
                LaneDescriptor(block_cells, upstream, node, ((len(lanes) + 1, 1.0),))
            )
            upstream = node
        lanes.append(LaneDescriptor(block_cells, upstream, None))
    nodes = tuple(
        IntersectionDescriptor(tuple(lns), tuple((li,) for li in lns)) for lns in inbound
    )
    topo = NetworkTopology(tuple(lanes), nodes, tuple(entries))
    return derive_compatibility(topo, v_max)


def build_grid(
    roads_per_direction: int = 4,
    block_cells: int = 40,
    v_max: int = 2,
) -> NetworkTopology:
    """Manhattan grid of one-way roads (eastbound rows, northbound columns).

    Node ``row * roads_per_direction + col`` runs two phases: green for the
    eastbound approach, then green for the northbound one.  ``v_max`` sets
    the derived neighbor travel times.  Entry points come in road order,
    eastbound rows first.
    """
    check_integer("roads_per_direction", roads_per_direction, 1)
    r = roads_per_direction
    rows = [[row * r + col for col in range(r)] for row in range(r)]
    cols = [[row * r + col for row in range(r)] for col in range(r)]
    return _lay_roads(rows + cols, r * r, block_cells, v_max)


def build_arterial(
    intersections: int = 4,
    block_cells: int = 40,
    side_q: float = DEFAULT_SIDE_INTENSITY,
    v_max: int = 2,
) -> tuple[NetworkTopology, tuple[float | None, ...]]:
    """One eastbound arterial crossed by northbound side roads.

    Returns the topology together with the matching per-entry intensity
    tuple: the arterial entry is ``None`` (filled from the configured main
    demand), each side entry carries ``side_q``.
    """
    check_integer("intersections", intersections, 1)
    check_probability("side_q", side_q)
    n = intersections
    roads = [list(range(n))] + [[i] for i in range(n)]
    return _lay_roads(roads, n, block_cells, v_max), (None,) + (side_q,) * n


def grid_config(
    *,
    roads_per_direction: int = 4,
    block_cells: int = 40,
    v_max: int = 2,
    alpha: float = 1.0,
    **dynamics,
) -> SimConfig:
    """Ready-to-run grid configuration at its tuned coordination weight.

    Every other keyword (``q``, ``seed``, ``horizon``, ...) is a
    :class:`SimConfig` field and keeps that class's default when omitted.
    """
    topo = build_grid(roads_per_direction, block_cells, v_max)
    return SimConfig(topology=topo, v_max=v_max, alpha=alpha, **dynamics)


def arterial_config(
    *,
    intersections: int = 4,
    block_cells: int = 40,
    side_q: float = DEFAULT_SIDE_INTENSITY,
    v_max: int = 2,
    alpha: float = 0.25,
    **dynamics,
) -> SimConfig:
    """Ready-to-run arterial configuration; ``q`` drives the arterial entry.

    Other keywords are :class:`SimConfig` fields, as for :func:`grid_config`.
    """
    topo, intensities = build_arterial(intersections, block_cells, side_q, v_max)
    return SimConfig(
        topology=topo, v_max=v_max, alpha=alpha, entry_intensities=intensities, **dynamics
    )


# The built-in scenarios: `--scenario NAME` and a config file's `kind = NAME`.
SCENARIOS = {"grid": grid_config, "arterial": arterial_config}


def _comma_list(kind: type, text: str) -> tuple:
    """The comma-separated ``kind`` values of ``text``, for a config key or a
    CLI flag alike; raises ValueError on an empty or malformed value."""
    return tuple(kind(part) for part in text.split(","))


_TOP_KEYS = {
    "v_max": int,
    "p": float,
    "q": float,
    "alpha": float,
    "strategy": str,
    "horizon": int,
    "seed": int,
    "min_green": int,
    "stop_window": int,
    "fixed_time_split": partial(_comma_list, int),
}
_SCENARIO_KEYS = {
    "kind": str,
    "roads_per_direction": int,
    "intersections": int,
    "block": int,
    "side_q": float,
}
# The [scenario] keys each kind takes besides `kind`.
_KIND_KEYS = {
    "grid": ("roads_per_direction", "block"),
    "arterial": ("intersections", "block", "side_q"),
}


def load_config(path: str) -> SimConfig:
    """Read a flat ``key = value`` configuration file.

    Dynamics keys live at the top level, the network under a ``[scenario]``
    section with ``kind = grid`` or ``kind = arterial``.  ``#`` starts a
    comment; unknown sections and unknown or repeated keys are rejected with
    their line number.  A key left out takes the scenario factory's default.
    Every :class:`ConfigError` raised here starts with ``path``.
    """
    top: dict[str, object] = {}
    scen: dict[str, object] = {}
    section: str | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if line != "[scenario]":
                    raise ConfigError(f"{path}:{lineno}: unknown section {line}")
                section = "scenario"
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            schema = _SCENARIO_KEYS if section == "scenario" else _TOP_KEYS
            if key not in schema:
                where = "in [scenario]" if section == "scenario" else "at top level"
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} {where}")
            try:
                parsed: object = schema[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: invalid value {value!r} for {key!r}"
                ) from None
            seen = scen if section == "scenario" else top
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            seen[key] = parsed

    if "kind" not in scen:
        raise ConfigError(f"{path}: missing [scenario] section with a 'kind' key")
    kind = scen.pop("kind")
    if kind not in SCENARIOS:
        raise ConfigError(f"{path}: unknown scenario kind {kind!r}")
    for key in scen:
        if key not in _KIND_KEYS[kind]:
            owner = next(k for k, keys in _KIND_KEYS.items() if key in keys)
            raise ConfigError(f"{path}: {key!r} is {owner}-only, not a {kind} key")
    try:
        if "block" in scen:
            # checked under the file's name for it; the factories call it block_cells
            check_integer("block", scen["block"], _MIN_BLOCK_CELLS)
            scen["block_cells"] = scen.pop("block")
        return SCENARIOS[kind](**top, **scen)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
