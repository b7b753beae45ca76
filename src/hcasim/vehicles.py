"""Vehicle-level dynamics: the synchronous cell-automaton update and arrivals.

Each vehicle updates by accelerate, brake, randomize, move.  Every braking
decision reads the pre-step configuration only, so the whole network advances
as one synchronous automaton: followers brake against their leader's old
cell, and a vehicle crossing an intersection brakes against the first cell
that was occupied on its chosen successor lane at the start of the step.

Random-draw policy (kept bit-stable across releases, and mirrored by any
independent reimplementation that wants draw-for-draw agreement):

* arrivals: one uniform per entry point per step, in entry order, always;
* dawdling: one uniform per vehicle per step, consumed in (lane ascending,
  cell descending) order, drawn even when the vehicle already stands still;
* turning: one uniform per front vehicle that is on green, could reach its
  stop line at the accelerated speed, and has more than one exit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from .model import Level1Arrays, Level1State, NetworkTopology, SimulationError, Vehicle


class RngStream:
    """Three independent substreams (arrivals, dawdle, turning) from one seed.

    Separate substreams keep the offered demand identical across controller
    variants run on the same seed: controller-dependent differences in dawdle
    or turn draw counts cannot shift the arrival sequence.
    """

    def __init__(self, seed: int):
        self.seed = seed
        inj, daw, turn = np.random.SeedSequence(seed).spawn(3)
        self.injection = np.random.Generator(np.random.PCG64(inj))
        self.dawdle = np.random.Generator(np.random.PCG64(daw))
        self.turn = np.random.Generator(np.random.PCG64(turn))


def accelerate(v: int, v_max: int) -> int:
    """Speed after the acceleration stage."""
    return min(v + 1, v_max)


def brake(v: int, d: int, s: int, gamma: int) -> int:
    """Speed after yielding to the leader gap ``d`` and, on red, the stop line.

    ``d`` is the distance in cells to the vehicle ahead (at least 1 in any
    collision-free state) and ``s`` the distance to the stop line.  On green
    the stop line does not constrain.
    """
    v = min(v, d - 1)
    if not gamma:
        v = min(v, s - 1)
    return v


def randomize(v: int, p: float, u: float) -> int:
    """Dawdle: slow down by one with probability ``p``, given a uniform ``u``."""
    return max(v - 1, 0) if u < p else v


def pick_exit(exits: Sequence[tuple[int, float]], u: float) -> int:
    """Choose a successor lane by inverse CDF over the stored exit order."""
    acc = 0.0
    for lane_id, w in exits:
        acc += w
        if u < acc:
            return lane_id
    return exits[-1][0]


_cell_of = attrgetter("cell")
_NO_DRAWS: list[float] = []


def advance_all(
    state: Level1State | Level1Arrays,
    topology: NetworkTopology,
    gamma: Sequence[int],
    v_max: int,
    p: float,
    rng: RngStream,
) -> int:
    """Advance every vehicle one step; returns how many left the network.

    Mutates ``state`` in place.  A vehicle that commits to crossing draws its
    exit before braking (the successor determines the gap); if dawdling then
    keeps it short of the stop line, the draw stays consumed.  When vehicles
    from several lanes land on the same successor cell in one step, the lane
    with the lower id wins and later claimants fall back to the next free
    cell behind, or wait in place when none is left.  Both state forms take
    the same draws and reach the same state; ``gamma`` is an int array for
    :class:`Level1Arrays`.
    """
    if type(state) is Level1Arrays:
        return _advance_arrays(state, topology, gamma, v_max, p, rng)
    gamma = np.asarray(gamma).tolist()  # plain ints index faster than array items
    lanes = topology.lanes
    old_lists = state.lane_vehicles
    lengths = state.lane_lengths
    first_occ = [
        lst[0].cell if lst else lengths[li] for li, lst in enumerate(old_lists)
    ]
    total = sum(map(len, old_lists))
    draws = rng.dawdle.random(total).tolist() if total else _NO_DRAWS
    di = 0
    new_lists: list[list[Vehicle]] = [[] for _ in lanes]
    entrants: dict[int, list[Vehicle]] = {}
    claimed: dict[int, set[int]] = {}
    removed = 0

    for li, lst in enumerate(old_lists):
        if not lst:
            continue
        desc = lanes[li]
        length = desc.length
        off_network = desc.downstream is None
        green = gamma[li]
        stayers = new_lists[li]
        ahead = -1  # pre-step cell of the vehicle in front, -1 when leading
        for veh in reversed(lst):
            k = veh.cell
            v = veh.speed + 1
            if v > v_max:
                v = v_max
            target = -1
            if ahead >= 0:
                cap = ahead - k - 1
                if v > cap:
                    v = cap
            elif off_network:
                pass  # open road beyond the last cell
            elif green:
                if k + v >= length:
                    exits = desc.exits
                    if len(exits) == 1:
                        target = exits[0][0]
                    else:
                        target = pick_exit(exits, rng.turn.random())
                    cap = length - k + first_occ[target] - 1
                    if v > cap:
                        v = cap
            else:
                cap = length - k - 1
                if v > cap:
                    v = cap
            if draws[di] < p and v > 0:
                v -= 1
            di += 1
            nk = k + v
            if nk < length:
                veh.cell = nk
                veh.speed = v
                stayers.append(veh)
            elif off_network:
                removed += 1
            else:
                if target < 0:
                    raise SimulationError(
                        f"vehicle {veh.id} ran off lane {li} without a committed exit"
                    )
                c = nk - length
                taken = claimed.get(target)
                if taken is None:
                    taken = claimed[target] = set()
                while c >= 0 and c in taken:
                    c -= 1
                if c < 0:
                    veh.speed = 0  # squeezed out by earlier entrants: wait in place
                    stayers.append(veh)
                else:
                    taken.add(c)
                    veh.cell = c
                    veh.speed = length - k + c
                    entrants.setdefault(target, []).append(veh)
            ahead = k
        stayers.reverse()

    for li, arriving in entrants.items():
        if len(arriving) > 1:
            arriving.sort(key=_cell_of)
        new_lists[li] = arriving + new_lists[li]

    state.lane_vehicles = new_lists
    return removed


def _advance_arrays(
    state: Level1Arrays,
    topology: NetworkTopology,
    gamma: np.ndarray,
    v_max: int,
    p: float,
    rng: RngStream,
) -> int:
    data = state.data
    lane, cell, speed = data[0], data[1], data[2]
    n = lane.size
    if not n:
        return 0
    t = topology.tables
    n_lanes = t.lane_length.size
    counts = np.bincount(lane, minlength=n_lanes)
    occupied = counts > 0
    ends = counts.cumsum()
    starts = ends - counts
    v = np.minimum(speed + 1, v_max)
    # a follower brakes against its leader's old cell: the next column
    cap = np.empty(n, dtype=np.intp)
    np.subtract(cell[1:], cell[:-1] + 1, out=cap[:-1])
    front = ends[occupied] - 1
    fl, fk = lane.take(front), cell.take(front)
    flen = t.lane_length.take(fl)
    if (fk >= flen).any():
        raise SimulationError(f"a vehicle sits past the end of lane {fl[fk >= flen][0]}")
    green = gamma.take(fl) != 0  # a network-exit lane always reads green
    signalled = t.exit_last.take(fl) >= 0  # not a network-exit lane
    fcap = np.where(green, v_max, flen - fk - 1)
    commit = np.flatnonzero(green & signalled & (fk + v.take(front) >= flen))
    if commit.size:
        cl = fl.take(commit)
        pick = t.exit_last.take(cl)
        multi = np.flatnonzero(pick)
        if multi.size:
            u = rng.turn.random(multi.size)
            # pick_exit: the first exit whose running weight sum exceeds u, else the last
            hits = (u >= t.exit_cum.take(cl.take(multi), axis=1)).sum(axis=0)
            pick[multi] = np.minimum(hits, pick.take(multi))
        target = t.exit_targets.take(pick * n_lanes + cl)
        head = np.where(occupied, cell.take(np.minimum(starts, n - 1)), t.lane_length)
        fcap[commit] = flen.take(commit) - fk.take(commit) + head.take(target) - 1
    cap[front] = fcap
    np.minimum(v, cap, out=v)
    # dawdle draws run lane by lane from the front: element i of lane
    # segment [s, e] takes draw s + e - i
    draws = rng.dawdle.random(n).take((starts + ends - 1).take(lane) - np.arange(n))
    v -= draws < p
    np.maximum(v, 0, out=v)
    cell += v
    speed[:] = v

    past = cell.take(front) >= flen
    if not past.any():
        return 0
    gone = past & ~signalled
    if commit.size:
        crossed = np.flatnonzero(past.take(commit))
        at = commit.take(crossed)
        idx, old, lengths = front.take(at), fk.take(at), flen.take(at)
        goal = target.take(crossed)
        land = cell.take(idx) - lengths
        if len(set(goal.tolist())) < goal.size:
            # a merge: lanes claim cells in lane order, later claimants step back
            taken: dict[int, set[int]] = {}
            land_l = land.tolist()
            for j, g in enumerate(goal.tolist()):
                claimed = taken.setdefault(g, set())
                while land_l[j] >= 0 and land_l[j] in claimed:
                    land_l[j] -= 1
                claimed.add(land_l[j])
            land = np.array(land_l, dtype=np.intp)
            wait = land < 0  # squeezed out: waits in place at speed 0
            land[wait], goal[wait], lengths[wait] = old[wait], lane.take(idx[wait]), 0
        lane[idx], cell[idx], speed[idx] = goal, land, lengths - old + land
    removed = int(np.count_nonzero(gone))
    lane[front[gone]] = n_lanes  # sorts past every lane, then is cut off
    # crossers now sit ahead of their new lane's stayers; a stable sort of
    # the nearly sorted keys regroups them
    order = np.argsort(lane * t.key_stride + cell, kind="stable")
    state.data = data.take(order[: n - removed], axis=1)
    return removed


def count_stopped(
    state: Level1State | Level1Arrays,
    window: int | None = None,
    first_new_id: float = math.inf,
) -> int:
    """Vehicles standing still, optionally only within the last ``window``
    cells of each lane, skipping ids from ``first_new_id`` on (ids are dense,
    so those are the vehicles placed this step)."""
    if type(state) is Level1Arrays:
        lane, cell, speed, vid = state.data
        stopped = (speed == 0) & (vid < first_new_id)
        if window is not None:
            stopped &= cell >= (state.lane_lengths - window)[lane]
        return int(np.count_nonzero(stopped))
    lengths = state.lane_lengths
    # Without a window every cell counts: a cutoff of 0 admits them all.
    cutoff = [0] * len(lengths) if window is None else [n - window for n in lengths]
    return sum(
        1
        for li, lst in enumerate(state.lane_vehicles)
        for v in lst
        if v.speed == 0 and v.cell >= cutoff[li] and v.id < first_new_id
    )


class InjectionProcess:
    """Bernoulli arrivals at the network entries, with a pending backlog.

    One arrival draw is taken per entry per step regardless of space, so the
    offered demand does not depend on the controller; an arrival that finds
    its entry cell occupied waits in a per-entry backlog and is placed as
    soon as the cell frees up, one placement per entry per step.  Vehicles
    are placed at speed 0 and take part in the same step's movement.
    """

    def __init__(self, topology: NetworkTopology, intensities: Sequence[float]):
        if len(intensities) != len(topology.entry_points):
            raise ValueError(
                f"{len(intensities)} intensities for "
                f"{len(topology.entry_points)} entry points"
            )
        self.topology = topology
        self.entries = topology.entry_points
        self.intensities = tuple(intensities)
        self.pending = [0] * len(self.entries)
        self.next_id = 0

    @property
    def total_injected(self) -> int:
        """Vehicles actually placed so far (ids are assigned densely)."""
        return self.next_id

    @property
    def total_pending(self) -> int:
        """Arrivals drawn but still waiting for a free entry cell."""
        return sum(self.pending)

    def _arrivals(self, rng: RngStream) -> Iterator[int]:
        """Draw this step's arrivals; yield each entry with one pending, in entry order."""
        draws = rng.injection.random(len(self.entries)).tolist()
        for ei, rate in enumerate(self.intensities):
            if draws[ei] < rate:
                self.pending[ei] += 1
            if self.pending[ei]:
                yield ei

    def inject(self, state: Level1State | Level1Arrays, rng: RngStream) -> None:
        """Draw this step's arrivals and place what fits."""
        if type(state) is Level1Arrays:
            return self._inject_arrays(state, list(self._arrivals(rng)))
        for ei in self._arrivals(rng):
            lane_id, cell = self.entries[ei]
            lst = state.lane_vehicles[lane_id]
            pos = bisect_left(lst, cell, key=_cell_of)
            if pos < len(lst) and lst[pos].cell == cell:
                continue  # entry cell occupied: the arrival keeps waiting
            lst.insert(pos, Vehicle(self.next_id, cell, 0))
            self.next_id += 1
            self.pending[ei] -= 1

    def _inject_arrays(self, state: Level1Arrays, waiting: list[int]) -> None:
        if not waiting:
            return
        t = self.topology.tables
        data = state.data
        key = data[0] * t.key_stride + data[1]
        want = t.entry_key[waiting]
        pos = np.searchsorted(key, want)
        free = np.searchsorted(key, want, "right") == pos  # entry cell empty
        placing: dict[int, tuple[int, int]] = {}  # cell key -> (insert position, id)
        for ei, cell_key, at, empty in zip(waiting, want.tolist(), pos.tolist(), free.tolist()):
            if empty and cell_key not in placing:  # of entries sharing a cell, the first places
                placing[cell_key] = (at, self.next_id)
                self.next_id += 1
                self.pending[ei] -= 1
        if not placing:
            return
        # in cell-key order, so entries sharing an insert position go in cell order
        parts, prev = [], 0
        for cell_key, (at, vid) in sorted(placing.items()):
            lane, cell = divmod(cell_key, t.key_stride)
            parts += [data[:, prev:at], [[lane], [cell], [0], [vid]]]
            prev = at
        parts.append(data[:, prev:])
        state.data = np.concatenate(parts, axis=1)
