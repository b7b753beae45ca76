"""Scenario builders, compatibility derivation, and the config file format."""

from __future__ import annotations

from dataclasses import replace

import pytest

from hcasim import (
    ConfigError,
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    arterial_config,
    build_arterial,
    build_grid,
    config_digest,
    derive_compatibility,
    grid_config,
    load_config,
    topology_digest,
    validate_topology,
)
from conftest import fork_topology


# --- grid layout -------------------------------------------------------------


def test_grid_dimensions():
    topo = build_grid(4, 40)
    assert topo.n_lanes == 40  # 2 directions * 4 roads * 5 segments
    assert topo.n_intersections == 16
    assert len(topo.entry_points) == 8
    assert all(lane.length == 40 for lane in topo.lanes)
    assert all(cell == 0 for _, cell in topo.entry_points)
    assert validate_topology(topo) == []


def test_grid_entry_order_is_east_rows_then_north_columns():
    topo = build_grid(2, 10)
    # eastbound road r starts at lane r*(segments), northbound col c after them
    assert topo.entry_points == ((0, 0), (3, 0), (6, 0), (9, 0))


def test_grid_interior_node_links():
    topo = build_grid(4, 40)
    node = topo.intersections[5]  # row 1, col 1
    assert node.inbound_lanes == (6, 26)
    assert node.phases == ((6,), (26,))
    assert node.neighbors == ((1, 20), (4, 20))
    assert node.compatibility == frozenset({(1, 1, 1), (4, 0, 0)})


def test_grid_boundary_node_has_partial_neighbors():
    topo = build_grid(4, 40)
    # node 0 (row 0, col 0): both approaches are network entries
    assert topo.intersections[0].neighbors == ()
    # node 1 (row 0, col 1): eastbound approach fed by node 0 only
    assert topo.intersections[1].neighbors == ((0, 20),)


def test_grid_travel_time_rounds_up():
    topo = build_grid(2, 5, v_max=2)
    # ceil(5/2) = 3
    assert all(
        travel == 3 for node in topo.intersections for _, travel in node.neighbors
    )


def test_grid_single_road_degenerate():
    topo = build_grid(1, 40)
    assert topo.n_intersections == 1
    assert topo.n_lanes == 4
    assert len(topo.entry_points) == 2
    assert topo.intersections[0].neighbors == ()
    assert validate_topology(topo) == []


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(roads_per_direction=0), "must be >= 1"),
        (dict(block_cells=1), "must be >= 2"),
        (dict(v_max=0), "v_max=0: must be >= 1"),
        (dict(block_cells=40.5), "block_cells: 40.5 is not an integer"),
        (dict(v_max="2"), "v_max: '2' is not an integer"),
        (dict(roads_per_direction=2.5), "roads_per_direction: 2.5 is not an integer"),
    ],
)
def test_grid_rejects_bad_sizes(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        build_grid(**{"roads_per_direction": 4, "block_cells": 40, **kwargs})


def test_grid_is_symmetric_under_transposition():
    # swapping the two road directions relabels lanes and nodes but must map
    # the network onto itself, including phases and compatibility
    r, segs = 3, 4
    topo = build_grid(r, 12)

    def phi_lane(li: int) -> int:
        if li < r * segs:
            return r * segs + li
        return li - r * segs

    def phi_node(ii: int) -> int:
        return (ii % r) * r + ii // r

    for li, lane in enumerate(topo.lanes):
        img = topo.lanes[phi_lane(li)]
        assert img.length == lane.length
        assert img.upstream == (None if lane.upstream is None else phi_node(lane.upstream))
        assert img.downstream == (
            None if lane.downstream is None else phi_node(lane.downstream)
        )
        assert sorted(img.exits) == sorted((phi_lane(t), w) for t, w in lane.exits)

    def node_signature(node):
        phases = frozenset(frozenset(ph) for ph in node.phases)
        compat = frozenset(
            (nbr, frozenset(topo.intersections[nbr].phases[up_pi]), frozenset(node.phases[pi]))
            for nbr, up_pi, pi in node.compatibility
        )
        return phases, frozenset(node.neighbors), compat

    def mapped_signature(node):
        phases = frozenset(frozenset(phi_lane(l) for l in ph) for ph in node.phases)
        neighbors = frozenset((phi_node(n), t) for n, t in node.neighbors)
        compat = frozenset(
            (
                phi_node(nbr),
                frozenset(phi_lane(l) for l in topo.intersections[nbr].phases[up_pi]),
                frozenset(phi_lane(l) for l in node.phases[pi]),
            )
            for nbr, up_pi, pi in node.compatibility
        )
        return phases, neighbors, compat

    for ii, node in enumerate(topo.intersections):
        assert node_signature(topo.intersections[phi_node(ii)]) == mapped_signature(node)


def _entries_reach_exits(topo):
    for entry_lane, _ in topo.entry_points:
        frontier, seen = [entry_lane], set()
        reached_exit = False
        while frontier:
            li = frontier.pop()
            if li in seen:
                continue
            seen.add(li)
            lane = topo.lanes[li]
            if lane.downstream is None:
                reached_exit = True
                break
            frontier.extend(t for t, _ in lane.exits)
        assert reached_exit, f"entry lane {entry_lane} cannot reach a network exit"


def test_grid_entries_reach_exits():
    _entries_reach_exits(build_grid(4, 40))


# --- arterial layout ----------------------------------------------------------


def test_arterial_dimensions_and_intensities():
    topo, intensities = build_arterial(4, 40, side_q=0.02)
    assert topo.n_lanes == 13  # 5 arterial segments + 4 * (side in + side out)
    assert topo.n_intersections == 4
    assert len(topo.entry_points) == 5
    assert intensities == (None, 0.02, 0.02, 0.02, 0.02)
    assert validate_topology(topo) == []
    _entries_reach_exits(topo)


def test_arterial_chain_neighbors():
    topo, _ = build_arterial(4, 40)
    assert topo.intersections[0].neighbors == ()
    for i in (1, 2, 3):
        assert topo.intersections[i].neighbors == ((i - 1, 20),)
        # green wave: upstream arterial green feeds our arterial green
        assert topo.intersections[i].compatibility == frozenset({(i - 1, 0, 0)})


def test_arterial_side_roads_cross_and_leave():
    topo, _ = build_arterial(2, 10)
    # side approach of node 0 is lane 3, its exit lane 4
    assert topo.lanes[3].exits == ((4, 1.0),)
    assert topo.lanes[4].downstream is None
    assert topo.intersections[0].phases == ((0,), (3,))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(intersections=0), "must be >= 1"),
        (dict(block_cells=1), "must be >= 2"),
        (dict(side_q=1.5), "probability out of range"),
        (dict(v_max=0), "v_max=0: must be >= 1"),
        (dict(intersections=2.0), "intersections: 2.0 is not an integer"),
        (dict(side_q="0.1"), "side_q: '0.1' is not a number"),
    ],
)
def test_arterial_rejects_bad_inputs(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        build_arterial(**{"intersections": 4, "block_cells": 40, **kwargs})


# --- pinned layouts -------------------------------------------------------------

# topology_digest of every built-in layout over sizes, block lengths and
# speeds; lanes, phases, neighbor links, compatibility and entry order all
# enter the digest.  Keyed (roads_per_direction, block_cells, v_max).
GRID_DIGESTS = {
    (1, 2, 1): "6c238a222434790b",
    (1, 2, 2): "6c238a222434790b",
    (1, 2, 5): "6c238a222434790b",
    (1, 40, 1): "333b86e2d6ac16d5",
    (1, 40, 2): "333b86e2d6ac16d5",
    (1, 40, 5): "333b86e2d6ac16d5",
    (2, 2, 1): "e76b70a0a2f2245d",
    (2, 2, 2): "40d20d164b781b8d",
    (2, 2, 5): "40d20d164b781b8d",
    (2, 40, 1): "630b58fff4dad38a",
    (2, 40, 2): "c1818703016d6a8f",
    (2, 40, 5): "59c3faef887ab915",
    (3, 2, 1): "7a9eb307be5db09a",
    (3, 2, 2): "d8f66fbba552eb4e",
    (3, 2, 5): "d8f66fbba552eb4e",
    (3, 40, 1): "b71f52b9df6f7cc1",
    (3, 40, 2): "bf8f6932c611dae7",
    (3, 40, 5): "e44118f35027bcb0",
    (6, 2, 1): "9f0a284a30f6bcf2",
    (6, 2, 2): "b48c6184abcf5fbd",
    (6, 2, 5): "b48c6184abcf5fbd",
    (6, 40, 1): "6a049ba2cc7dd9de",
    (6, 40, 2): "2f7e441104f4d79e",
    (6, 40, 5): "e701573b1b2b7ffb",
    (16, 2, 1): "988c40adc27bcf37",
    (16, 2, 2): "007e910f0554f973",
    (16, 2, 5): "007e910f0554f973",
    (16, 40, 1): "998d1e7150fe2e99",
    (16, 40, 2): "b8132c0547409c1c",
    (16, 40, 5): "f895e604e764fff4",
}

# Keyed (intersections, block_cells, v_max).
ARTERIAL_DIGESTS = {
    (1, 2, 1): "6c238a222434790b",
    (1, 2, 2): "6c238a222434790b",
    (1, 2, 3): "6c238a222434790b",
    (1, 40, 1): "333b86e2d6ac16d5",
    (1, 40, 2): "333b86e2d6ac16d5",
    (1, 40, 3): "333b86e2d6ac16d5",
    (2, 2, 1): "4ebb7f18faa53f9c",
    (2, 2, 2): "3d946aba170bc507",
    (2, 2, 3): "3d946aba170bc507",
    (2, 40, 1): "b9ada489d82ec1de",
    (2, 40, 2): "cfddf11859aa6c70",
    (2, 40, 3): "b959c08770d8e3f1",
    (4, 2, 1): "39b09fe3d889c10c",
    (4, 2, 2): "61689453cb8fd720",
    (4, 2, 3): "61689453cb8fd720",
    (4, 40, 1): "44101db69fb25b04",
    (4, 40, 2): "5749e35b5324d7c4",
    (4, 40, 3): "36114068879abe67",
    (32, 2, 1): "379bd49f350cb604",
    (32, 2, 2): "4ba8cd2564e81791",
    (32, 2, 3): "4ba8cd2564e81791",
    (32, 40, 1): "aa0f7e0d7f63c44e",
    (32, 40, 2): "aceede0c16f001d9",
    (32, 40, 3): "f1f52edab3cbb8e6",
}


@pytest.mark.parametrize("size,block,v_max", sorted(GRID_DIGESTS))
def test_grid_layout_digest_is_pinned(size, block, v_max):
    topo = build_grid(size, block, v_max)
    assert topology_digest(topo) == GRID_DIGESTS[size, block, v_max]


@pytest.mark.parametrize("size,block,v_max", sorted(ARTERIAL_DIGESTS))
def test_arterial_layout_digest_is_pinned(size, block, v_max):
    topo, intensities = build_arterial(size, block, side_q=0.03, v_max=v_max)
    assert topology_digest(topo) == ARTERIAL_DIGESTS[size, block, v_max]
    assert intensities == (None,) + (0.03,) * size


# --- compatibility derivation on hand-built networks ---------------------------


def test_derive_compatibility_on_tandem():
    # hand-built 2-node chain: entry -> node 0 -> lane 2 -> node 1 -> exit,
    # each node also takes a local side approach
    lanes = (
        LaneDescriptor(10, None, 0, ((2, 1.0),)),
        LaneDescriptor(10, None, 0, ((2, 1.0),)),
        LaneDescriptor(9, 0, 1, ((5, 1.0),)),
        LaneDescriptor(10, None, 1, ((6, 1.0),)),
        LaneDescriptor(10, None, 1, ((6, 1.0),)),
        LaneDescriptor(10, 1, None),
        LaneDescriptor(10, 1, None),
    )
    nodes = (
        IntersectionDescriptor((0, 1), ((0,), (1,))),
        IntersectionDescriptor((2, 3, 4), ((2,), (3, 4))),
    )
    topo = NetworkTopology(lanes, nodes, ((0, 0), (1, 0), (3, 0), (4, 0)))
    out = derive_compatibility(topo, v_max=2)
    assert out.intersections[0].neighbors == ()
    # travel time over the 9-cell connector at v_max 2 rounds up to 5
    assert out.intersections[1].neighbors == ((0, 5),)
    # lane 2 receives from both of node 0's phases; it sits in local phase 0
    assert out.intersections[1].compatibility == frozenset({(0, 0, 0), (0, 1, 0)})


def test_derive_compatibility_keeps_fork_entry_only():
    out = derive_compatibility(fork_topology(), v_max=2)
    # the only node is fed by network entries, so no coordination links exist
    assert out.intersections[0].neighbors == ()
    assert out.intersections[0].compatibility == frozenset()


@pytest.mark.parametrize(
    "where,bad,message",
    [
        ("upstream", 7, "lane 1: upstream intersection 7 does not exist"),
        ("upstream", -1, "lane 1: upstream intersection -1 does not exist"),
        ("inbound", 12, "intersection 3: inbound lane 12 does not exist"),
        ("inbound", -1, "intersection 3: inbound lane -1 does not exist"),
    ],
)
def test_derive_compatibility_skips_ids_that_name_nothing(where, bad, message):
    # a bad id derives no link (a negative one indexes nothing from the end)
    # and is left for validate_topology to report
    grid = build_grid(2)
    lanes, nodes = list(grid.lanes), list(grid.intersections)
    if where == "upstream":
        lanes[1] = replace(lanes[1], upstream=bad)
        intact = replace(grid, lanes=(*lanes[:1], replace(lanes[1], upstream=None), *lanes[2:]))
    else:
        intact = grid
        nodes[3] = replace(nodes[3], inbound_lanes=(*nodes[3].inbound_lanes, bad))
    out = derive_compatibility(NetworkTopology(tuple(lanes), tuple(nodes), grid.entry_points), 2)
    want = derive_compatibility(intact, 2)
    links = [(n.neighbors, n.compatibility) for n in out.intersections]
    assert links == [(n.neighbors, n.compatibility) for n in want.intersections]
    assert message in validate_topology(out)


# --- config factories -----------------------------------------------------------


def test_config_factories_apply_tuned_weights():
    assert grid_config().alpha == 1.0
    assert arterial_config().alpha == 0.25
    assert grid_config(alpha=0.5).alpha == 0.5


def test_config_factories_pass_extras_through():
    cfg = grid_config(q=0.05, min_green=5, stop_window=8)
    assert (cfg.min_green, cfg.stop_window) == (5, 8)
    cfg = arterial_config(side_q=0.1, intersections=2)
    assert cfg.entry_intensities == (None, 0.1, 0.1)


# --- config file parsing ----------------------------------------------------------


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_config_full_grid(tmp_path):
    path = _write(
        tmp_path,
        """
        # dynamics
        v_max = 2
        p = 0.2
        q = 0.15
        alpha = 0.8
        strategy = hca
        horizon = 100
        seed = 42
        min_green = 3
        stop_window = 10

        [scenario]
        kind = grid
        roads_per_direction = 2
        block = 10
        """,
    )
    cfg = load_config(path)
    assert cfg.q == 0.15 and cfg.alpha == 0.8 and cfg.seed == 42
    assert cfg.min_green == 3 and cfg.stop_window == 10
    assert cfg.topology.n_intersections == 4
    assert cfg.topology.lanes[0].length == 10


def test_load_config_arterial_defaults(tmp_path):
    path = _write(tmp_path, "[scenario]\nkind = arterial\n")
    cfg = load_config(path)
    assert cfg.topology.n_intersections == 4
    assert cfg.alpha == 0.25  # tuned default kicks in when alpha is omitted
    assert cfg.entry_intensities == (None, 0.02, 0.02, 0.02, 0.02)
    assert cfg.q == 0.1 and cfg.horizon == 3600


def test_load_config_side_q_override(tmp_path):
    path = _write(tmp_path, "[scenario]\nkind = arterial\nintersections = 2\nside_q = 0.3\n")
    cfg = load_config(path)
    assert cfg.entry_intensities == (None, 0.3, 0.3)


def test_load_config_fixed_time_split(tmp_path):
    path = _write(
        tmp_path,
        "strategy = fixed_time\nfixed_time_split = 20, 10\n[scenario]\nkind = grid\n",
    )
    cfg = load_config(path)
    assert cfg.fixed_time_split == (20, 10)


@pytest.mark.parametrize(
    "text,match",
    [
        ("speed = 3\n[scenario]\nkind = grid\n", r":1: unknown key 'speed' at top level"),
        ("[scenario]\nkind = grid\ncolor = red\n", r":3: unknown key 'color' in \[scenario\]"),
        ("horizon = ten\n[scenario]\nkind = grid\n", r":1: invalid value 'ten'"),
        ("q = 0.1\n", r"missing \[scenario\] section"),
        ("[network]\nkind = grid\n", r":1: unknown section"),
        ("just words\n[scenario]\nkind = grid\n", r":1: expected key = value"),
        ("[scenario]\nkind = roundabout\n", "unknown scenario kind 'roundabout'"),
        ("[scenario]\nkind = grid\nside_q = 0.1\n", "arterial-only"),
        ("[scenario]\nkind = arterial\nroads_per_direction = 2\n", "grid-only"),
        (
            "fixed_time_split = 20,x\n[scenario]\nkind = grid\n",
            r":1: invalid value '20,x' for 'fixed_time_split'",
        ),
        ("p = 1.5\n[scenario]\nkind = grid\n", "probability out of range"),
        ("v_max = 0\n[scenario]\nkind = grid\n", "v_max=0: must be >= 1"),
        ("q = 0.1\nq = 0.3\n[scenario]\nkind = grid\n", r":2: duplicate key 'q'"),
        ("p = 2\n[scenario]\nkind = grid\n", r"\.cfg: p=2\.0: probability out of range \[0, 1\]$"),
        ("v_max = 0\n[scenario]\nkind = arterial\n", r"\.cfg: v_max=0: must be >= 1$"),
        ("[scenario]\nkind = grid\nblock = 1\n", r"\.cfg: block=1: must be >= 2$"),
    ],
)
def test_load_config_rejects_bad_input(tmp_path, text, match):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=match) as err:
        load_config(path)
    # every error names the file first, as the CLI prints it
    assert str(err.value).startswith(f"{path}:")


@pytest.mark.parametrize("kind, factory", [("grid", grid_config), ("arterial", arterial_config)])
def test_load_config_omitted_keys_take_factory_defaults(tmp_path, kind, factory):
    assert load_config(_write(tmp_path, f"[scenario]\nkind = {kind}\n")) == factory()


_EVERY_TOP_KEY = (
    "v_max = 3\np = 0.3\nq = 0.15\nalpha = 0.8\nstrategy = fixed_time\nhorizon = 100\n"
    "seed = 42\nmin_green = 3\nstop_window = 10\nfixed_time_split = 20, 10\n"
)
_EVERY_TOP_KWARG = dict(
    v_max=3, p=0.3, q=0.15, alpha=0.8, strategy="fixed_time", horizon=100, seed=42,
    min_green=3, stop_window=10, fixed_time_split=(20, 10),
)


@pytest.mark.parametrize(
    "scenario, factory, kwargs",
    [
        ("kind = grid\nroads_per_direction = 2\nblock = 10\n", grid_config,
         dict(roads_per_direction=2, block_cells=10)),
        ("kind = arterial\nintersections = 3\nblock = 12\nside_q = 0.05\n", arterial_config,
         dict(intersections=3, block_cells=12, side_q=0.05)),
    ],
)
def test_load_config_every_key_equals_factory(tmp_path, scenario, factory, kwargs):
    cfg = load_config(_write(tmp_path, _EVERY_TOP_KEY + "[scenario]\n" + scenario))
    want = factory(**_EVERY_TOP_KWARG, **kwargs)
    assert cfg == want
    assert config_digest(cfg) == config_digest(want)


def test_load_config_comments_and_blanks(tmp_path):
    path = _write(
        tmp_path,
        "\n# full-line comment\nq = 0.2  # trailing comment\n\n[scenario]\nkind = grid\n",
    )
    assert load_config(path).q == 0.2
