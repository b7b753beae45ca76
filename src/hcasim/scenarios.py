"""Network builders and the textual configuration format.

Two built-in scenarios cover the common benchmark layouts:

* ``grid``: a Manhattan-style grid of one-way roads, ``roads_per_direction``
  eastbound and the same number northbound, one signalized intersection at
  every crossing.  Every road enters over an approach lane, passes every
  crossing road, and leaves over an exit lane; all through traffic goes
  straight.
* ``arterial``: one eastbound arterial through a row of intersections, each
  also crossed by a northbound side road with its own (usually light) demand.

Both builders only lay out lanes and phases; neighbor links and green-wave
compatibility are derived from the lane geometry afterwards, so hand-built
networks get the same treatment via :func:`derive_compatibility`.
"""

from __future__ import annotations

import math

from .model import (
    ConfigError,
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    SimConfig,
    validate_topology,
)

GRID_TUNED_ALPHA = 1.0
ARTERIAL_TUNED_ALPHA = 0.25
DEFAULT_SIDE_INTENSITY = 0.02


def derive_compatibility(topology: NetworkTopology, v_max: int) -> NetworkTopology:
    """Fill in neighbor links and phase compatibility from lane geometry.

    Every inbound lane fed by an upstream intersection makes that node a
    coordination neighbor, at the connecting lane's free-flow travel time
    (length over ``v_max``, rounded up).  An upstream phase is compatible
    with a local phase when some lane it serves releases traffic onto a lane
    the local phase serves.
    """
    nodes = []
    for node in topology.intersections:
        neighbors: dict[int, int] = {}
        compat: set[tuple[int, int, int]] = set()
        for li in node.inbound_lanes:
            lane = topology.lanes[li]
            up = lane.upstream
            if up is None:
                continue
            travel = math.ceil(lane.length / v_max)
            neighbors[up] = min(neighbors.get(up, travel), travel)
            up_node = topology.intersections[up]
            feeders = [
                ul
                for ul in up_node.inbound_lanes
                if any(t == li and w > 0.0 for t, w in topology.lanes[ul].exits)
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


def build_grid(
    roads_per_direction: int = 4,
    block_cells: int = 40,
    v_max: int = 2,
) -> NetworkTopology:
    """Manhattan grid of one-way roads (eastbound rows, northbound columns).

    Each intersection runs two phases: green for the eastbound approach
    (traffic from the left), green for the northbound one (from the bottom).
    ``v_max`` sets the derived neighbor travel times.
    Entry points come in road order, eastbound rows first.
    """
    if roads_per_direction < 1:
        raise ConfigError(f"roads_per_direction={roads_per_direction}: must be >= 1")
    if block_cells < 2:
        raise ConfigError(f"block_cells={block_cells}: must be >= 2")
    r = roads_per_direction
    segs = r + 1

    def h_lane(row: int, j: int) -> int:
        return row * segs + j

    def v_lane(col: int, j: int) -> int:
        return r * segs + col * segs + j

    def node_id(row: int, col: int) -> int:
        return row * r + col

    lanes: list[LaneDescriptor] = []
    for row in range(r):
        for j in range(segs):
            lanes.append(
                LaneDescriptor(
                    length=block_cells,
                    upstream=None if j == 0 else node_id(row, j - 1),
                    downstream=None if j == r else node_id(row, j),
                    exits=() if j == r else ((h_lane(row, j + 1), 1.0),),
                )
            )
    for col in range(r):
        for j in range(segs):
            lanes.append(
                LaneDescriptor(
                    length=block_cells,
                    upstream=None if j == 0 else node_id(j - 1, col),
                    downstream=None if j == r else node_id(j, col),
                    exits=() if j == r else ((v_lane(col, j + 1), 1.0),),
                )
            )

    nodes = []
    for row in range(r):
        for col in range(r):
            east = h_lane(row, col)
            north = v_lane(col, row)
            nodes.append(
                IntersectionDescriptor(
                    inbound_lanes=(east, north),
                    phases=((east,), (north,)),
                )
            )

    entries = tuple((h_lane(row, 0), 0) for row in range(r)) + tuple(
        (v_lane(col, 0), 0) for col in range(r)
    )
    topo = NetworkTopology(tuple(lanes), tuple(nodes), entries)
    return derive_compatibility(topo, v_max)


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
    if intersections < 1:
        raise ConfigError(f"intersections={intersections}: must be >= 1")
    if block_cells < 2:
        raise ConfigError(f"block_cells={block_cells}: must be >= 2")
    if not 0.0 <= side_q <= 1.0:
        raise ConfigError(f"side_q={side_q}: probability out of range [0, 1]")
    n = intersections

    def a_lane(j: int) -> int:
        return j

    def side_in(i: int) -> int:
        return n + 1 + 2 * i

    def side_out(i: int) -> int:
        return n + 2 + 2 * i

    lanes: list[LaneDescriptor] = []
    for j in range(n + 1):
        lanes.append(
            LaneDescriptor(
                length=block_cells,
                upstream=None if j == 0 else j - 1,
                downstream=None if j == n else j,
                exits=() if j == n else ((a_lane(j + 1), 1.0),),
            )
        )
    for i in range(n):
        lanes.append(
            LaneDescriptor(
                length=block_cells,
                upstream=None,
                downstream=i,
                exits=((side_out(i), 1.0),),
            )
        )
        lanes.append(
            LaneDescriptor(length=block_cells, upstream=i, downstream=None)
        )

    nodes = tuple(
        IntersectionDescriptor(
            inbound_lanes=(a_lane(i), side_in(i)),
            phases=((a_lane(i),), (side_in(i),)),
        )
        for i in range(n)
    )
    entries = ((a_lane(0), 0),) + tuple((side_in(i), 0) for i in range(n))
    topo = derive_compatibility(
        NetworkTopology(tuple(lanes), nodes, entries), v_max
    )
    intensities = (None,) + (side_q,) * n
    return topo, intensities


def grid_config(
    q: float = 0.1,
    alpha: float | None = None,
    seed: int = 0,
    strategy: str = "hca",
    horizon: int = 3600,
    roads_per_direction: int = 4,
    block_cells: int = 40,
    v_max: int = 2,
    p: float = 0.2,
    **extra,
) -> SimConfig:
    """Ready-to-run grid configuration (tuned coordination weight by default)."""
    topo = build_grid(roads_per_direction, block_cells, v_max)
    return SimConfig(
        topology=topo,
        v_max=v_max,
        p=p,
        alpha=GRID_TUNED_ALPHA if alpha is None else alpha,
        q=q,
        horizon=horizon,
        seed=seed,
        strategy=strategy,
        **extra,
    )


def arterial_config(
    q: float = 0.1,
    alpha: float | None = None,
    seed: int = 0,
    strategy: str = "hca",
    horizon: int = 3600,
    intersections: int = 4,
    block_cells: int = 40,
    side_q: float = DEFAULT_SIDE_INTENSITY,
    v_max: int = 2,
    p: float = 0.2,
    **extra,
) -> SimConfig:
    """Ready-to-run arterial configuration; ``q`` drives the arterial entry."""
    topo, intensities = build_arterial(intersections, block_cells, side_q, v_max)
    return SimConfig(
        topology=topo,
        v_max=v_max,
        p=p,
        alpha=ARTERIAL_TUNED_ALPHA if alpha is None else alpha,
        q=q,
        entry_intensities=intensities,
        horizon=horizon,
        seed=seed,
        strategy=strategy,
        **extra,
    )


def tuned_alpha(scenario: str) -> float:
    """Default coordination weight for a built-in scenario name."""
    return ARTERIAL_TUNED_ALPHA if scenario == "arterial" else GRID_TUNED_ALPHA


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
    "fixed_time_split": str,
}
_SCENARIO_KEYS = {
    "kind": str,
    "roads_per_direction": int,
    "intersections": int,
    "block": int,
    "side_q": float,
}


def load_config(path: str) -> SimConfig:
    """Read a flat ``key = value`` configuration file.

    Dynamics keys live at the top level, the network under a ``[scenario]``
    section with ``kind = grid`` or ``kind = arterial``.  ``#`` starts a
    comment; unknown keys and sections are rejected with their line number.
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
            (scen if section == "scenario" else top)[key] = parsed

    if "kind" not in scen:
        raise ConfigError(f"{path}: missing [scenario] section with a 'kind' key")
    kind = scen.pop("kind")

    split_text = top.pop("fixed_time_split", None)
    if split_text is not None:
        try:
            top["fixed_time_split"] = tuple(
                int(part.strip()) for part in str(split_text).split(",")
            )
        except ValueError:
            raise ConfigError(
                f"{path}: invalid fixed_time_split {split_text!r} "
                "(expected comma-separated integers)"
            ) from None

    v_max = int(top.pop("v_max", 2))
    p = top.pop("p", 0.2)
    block = int(scen.pop("block", 40))
    if kind == "grid":
        if "side_q" in scen or "intersections" in scen:
            raise ConfigError(f"{path}: side_q/intersections are arterial-only keys")
        topo = build_grid(int(scen.pop("roads_per_direction", 4)), block, v_max)
        intensities: tuple[float | None, ...] | None = None
    elif kind == "arterial":
        if "roads_per_direction" in scen:
            raise ConfigError(f"{path}: roads_per_direction is a grid-only key")
        topo, intensities = build_arterial(
            int(scen.pop("intersections", 4)),
            block,
            float(scen.pop("side_q", DEFAULT_SIDE_INTENSITY)),
            v_max,
        )
    else:
        raise ConfigError(f"{path}: unknown scenario kind {kind!r}")

    if "alpha" not in top:
        top["alpha"] = tuned_alpha(str(kind))
    return SimConfig(
        topology=topo, v_max=v_max, p=float(p), entry_intensities=intensities, **top
    )


__all__ = [
    "ARTERIAL_TUNED_ALPHA",
    "DEFAULT_SIDE_INTENSITY",
    "GRID_TUNED_ALPHA",
    "arterial_config",
    "build_arterial",
    "build_grid",
    "derive_compatibility",
    "grid_config",
    "load_config",
    "tuned_alpha",
    "validate_topology",
]
