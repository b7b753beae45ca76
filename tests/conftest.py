import sys
from concurrent.futures import CancelledError
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hcasim import (
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    SimConfig,
    Simulation,
    derive_compatibility,
)
from hcasim.model import Level1Arrays


def cross_topology(length: int = 10, v_max: int = 2) -> NetworkTopology:
    """Two approach lanes into one intersection, each with its own exit lane.

    Lane ids: 0 and 1 approach, 2 and 3 exit (0 -> 2, 1 -> 3); phase 0 serves
    lane 0, phase 1 serves lane 1; entries at the first cell of each approach.
    """
    lanes = (
        LaneDescriptor(length, None, 0, ((2, 1.0),)),
        LaneDescriptor(length, None, 0, ((3, 1.0),)),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1), phases=((0,), (1,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0)))
    return derive_compatibility(topo, v_max)


def fork_topology(length: int = 10, w: float = 0.3, v_max: int = 2) -> NetworkTopology:
    """Like cross_topology but lane 0 splits onto two exit lanes (2 and 4)."""
    lanes = (
        LaneDescriptor(length, None, 0, ((2, w), (4, round(1.0 - w, 10)))),
        LaneDescriptor(length, None, 0, ((3, 1.0),)),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1), phases=((0,), (1,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0)))
    return derive_compatibility(topo, v_max)


def merge_topology(length: int = 10, v_max: int = 2) -> NetworkTopology:
    """Two approach lanes that both continue onto the same exit lane.

    Both lanes sit in the same (sole green-capable) phase, so simultaneous
    crossings compete for cells on lane 2.
    """
    lanes = (
        LaneDescriptor(length, None, 0, ((2, 1.0),)),
        LaneDescriptor(length, None, 0, ((2, 1.0),)),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, None, 0, ((4, 1.0),)),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1, 3), phases=((0, 1), (3,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0), (3, 0)))
    return derive_compatibility(topo, v_max)


def mixed_phase_topology(v_max: int = 2) -> NetworkTopology:
    """Three nodes in a row with three, two and three phases.

    Node 0 takes three entry approaches and feeds node 1, which feeds node
    2; node 2's middle phase serves two lanes, one of them shared with its
    last phase.  Five lanes split two ways.
    """
    L = LaneDescriptor
    lanes = (
        L(20, None, 0, ((3, 0.6), (4, 0.4))),
        L(15, None, 0, ((3, 0.5), (5, 0.5))),
        L(12, None, 0, ((5, 1.0),)),
        L(25, 0, 1, ((7, 0.7), (8, 0.3))),
        L(10, 0, None),
        L(10, 0, None),
        L(18, None, 1, ((8, 1.0),)),
        L(22, 1, 2, ((11, 0.5), (12, 0.5))),
        L(10, 1, None),
        L(16, None, 2, ((11, 1.0),)),
        L(14, None, 2, ((12, 0.4), (13, 0.6))),
        L(10, 2, None),
        L(10, 2, None),
        L(10, 2, None),
    )
    nodes = (
        IntersectionDescriptor((0, 1, 2), ((0,), (1,), (2,))),
        IntersectionDescriptor((3, 6), ((3,), (6,))),
        IntersectionDescriptor((7, 9, 10), ((7,), (9, 10), (10,))),
    )
    entries = ((0, 0), (1, 0), (2, 0), (6, 0), (9, 0), (10, 0))
    return derive_compatibility(NetworkTopology(lanes, nodes, entries), v_max)


def ring_topology(length: int = 100) -> NetworkTopology:
    """A closed ring of two ``length``-cell lanes through two nodes, without
    entries or exits.

    Lane 0 runs from node 0 to node 1 and lane 1 back; each node's first
    phase serves the ring, and its second a one-cell approach (lanes 2 and 3)
    that no vehicle uses.  Under ``fixed_time`` with split ``(1, 0)`` the
    ring is always green.
    """
    lanes = (
        LaneDescriptor(length, 0, 1, ((1, 1.0),)),
        LaneDescriptor(length, 1, 0, ((0, 1.0),)),
        LaneDescriptor(1, None, 0, ((0, 1.0),)),
        LaneDescriptor(1, None, 1, ((1, 1.0),)),
    )
    nodes = (
        IntersectionDescriptor((1, 2), ((1,), (2,))),
        IntersectionDescriptor((0, 3), ((0,), (3,))),
    )
    return NetworkTopology(lanes, nodes, ())


def ring_simulation(n: int, length: int = 100, **fields) -> Simulation:
    """A :class:`Simulation` of ``ring_topology(length)`` holding ``n``
    vehicles at speed 0, spread evenly round the ring, with its invariants
    checked every step; ``fields`` go to the :class:`SimConfig`."""
    config = SimConfig(
        ring_topology(length), strategy="fixed_time", fixed_time_split=(1, 0), **fields
    )
    sim = Simulation(config, check_invariants=True)
    ring = [i * 2 * length // n for i in range(n)]
    sim.state = state_with(config.topology, *((x // length, x % length, 0) for x in ring))
    sim.injector.next_id[:] = n
    return sim


def state_with(topology: NetworkTopology, *vehicles) -> Level1Arrays:
    """Level-1 state holding the given (lane, cell, speed) vehicles, numbered
    0, 1, ... in argument order."""
    state = Level1Arrays(topology)
    columns = sorted(
        ((lane, cell, speed, vid) for vid, (lane, cell, speed) in enumerate(vehicles)),
        key=lambda col: (col[0], -col[1]),
    )
    state.data = np.array(columns, dtype=np.intp).reshape(-1, 4).T.copy()
    return state


def lanes_of(state: Level1Arrays, replica: int = 0) -> list[list[tuple[int, int, int]]]:
    """Per lane of one replica, its vehicles' (cell, speed, id), rear first."""
    n_lanes = state.lane_lengths.size // state.replicas
    lanes: list[list[tuple[int, int, int]]] = [[] for _ in range(n_lanes)]
    for li, cell, speed, vid in state.data.T.tolist():
        if li // n_lanes == replica:
            lanes[li % n_lanes].append((cell, speed, vid))
    return [sorted(lane) for lane in lanes]


def with_seeds(config: SimConfig, seeds) -> list[SimConfig]:
    """``config`` at each of ``seeds``: the copies of a batch of its runs."""
    return [replace(config, seed=seed) for seed in seeds]


def mixed_with(config: SimConfig) -> list[SimConfig]:
    """``config`` as the second of three configs that may share a batch:
    the other two run at other seeds, demand levels and weights, and an
    adaptive ``config`` meets the other adaptive strategy and ``hca``."""
    adaptive = config.strategy != "fixed_time"
    other = {"hca": "backpressure", "backpressure": "hca"}.get(config.strategy, config.strategy)
    return [
        replace(config, q=config.q / 2, alpha=config.alpha + 0.5, strategy=other,
                seed=config.seed + 1),
        config,
        replace(
            config, q=min(1.0, 2 * config.q), alpha=2 * config.alpha + 1,
            strategy="hca" if adaptive else config.strategy, seed=config.seed + 2,
        ),
    ]


def alone_and_in_batch(config: SimConfig, check_invariants: bool = False):
    """Yield ``(form, sim, replica)``: ``config`` run alone, then as replica 1
    of a batch of three seeds, then as replica 1 of a batch of the three
    configs of :func:`mixed_with`; ``sim.step()`` advances it."""
    yield "alone", Simulation(config, check_invariants), 0
    seeds = (config.seed + 1, config.seed, config.seed + 2)
    yield "replica 1 of 3", Simulation(with_seeds(config, seeds), check_invariants), 1
    yield "replica 1 of 3 configs", Simulation(mixed_with(config), check_invariants), 1


def replica_view(sim: Simulation, replica: int):
    """``(pi, occupancy, backlog, gamma)`` of one replica of ``sim``."""
    nodes, lanes = sim.config.topology.n_intersections, sim.config.topology.n_lanes
    pi = sim.node_states.pi[replica * nodes : (replica + 1) * nodes]
    own = slice(replica * lanes, (replica + 1) * lanes)
    return pi, sim.occupancy[own], sim.backlog[own], sim.gamma[own]


def _in_process_pools(monkeypatch, log: list | None = None, clock: list | None = None) -> list[int]:
    """Replace the process pool with a stand-in that runs its batches in this
    process, so no worker is ever forked; returns the size of each pool
    started.

    Like a pool, the stand-in runs batches in the order they were submitted:
    a batch runs, after every batch queued before it, when its result is
    first asked for.  With ``clock``, batches run ``max_workers`` at a time,
    as the pool's workers would finish them, and each such round adds 1 to
    ``clock[0]``.  A batch calls its done-callbacks when it has run or is
    cancelled, and can be cancelled until it runs.  ``shutdown`` runs what
    is still queued unless told to cancel it.  Each submit and each result
    taken is appended to ``log`` as ``(event, configs)``, ``configs`` being
    the batch's configs, one per run.
    """
    import hcasim.experiments as mod

    sizes: list[int] = []
    log = [] if log is None else log

    class Batch:
        def __init__(self, pool, fn, args):
            self.pool, self.fn, self.args = pool, fn, args
            self.outcome = None
            self.callbacks = []

        def settle(self, outcome):
            self.outcome = outcome
            for callback in self.callbacks:
                callback(self)

        def run(self):
            try:
                self.settle((True, self.fn(*self.args)))
            except Exception as exc:
                self.settle((False, exc))

        def cancel(self):
            if self.outcome is not None:
                return False
            self.pool.queue.remove(self)
            self.settle((False, CancelledError()))
            return True

        def add_done_callback(self, callback):
            self.callbacks.append(callback)
            if self.outcome is not None:
                callback(self)

        def done(self):
            return self.outcome is not None

        def cancelled(self):
            return self.done() and isinstance(self.outcome[1], CancelledError)

        def exception(self):
            ok, value = self.outcome
            return None if ok else value

        def result(self):
            while self.outcome is None:
                self.pool.run_round()
            log.append(("result", *self.args))
            ok, value = self.outcome
            if not ok:
                raise value
            return value

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            self.workers = max_workers
            self.queue: list[Batch] = []

        def submit(self, fn, *args):
            log.append(("submit", *args))
            self.queue.append(Batch(self, fn, args))
            return self.queue[-1]

        def run_round(self):
            for _ in range(1 if clock is None else self.workers):
                if self.queue:
                    self.queue.pop(0).run()
            if clock is not None:
                clock[0] += 1

        def shutdown(self, wait=True, cancel_futures=False):
            while self.queue:
                if cancel_futures:
                    self.queue[0].cancel()
                else:
                    self.queue.pop(0).run()

    monkeypatch.setattr(mod, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.fixture
def cross():
    return cross_topology()


@pytest.fixture
def fork():
    return fork_topology()


@pytest.fixture
def merge():
    return merge_topology()
