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

from bisect import bisect_left
from operator import attrgetter
from typing import Sequence

import numpy as np

from .model import Level1State, NetworkTopology, SimulationError, Vehicle


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
    state: Level1State,
    topology: NetworkTopology,
    gamma: Sequence[int],
    v_max: int,
    p: float,
    rng: RngStream,
) -> list[Vehicle]:
    """Advance every vehicle one step; returns the vehicles that left.

    Mutates ``state`` in place.  A vehicle that commits to crossing draws its
    exit before braking (the successor determines the gap); if dawdling then
    keeps it short of the stop line, the draw stays consumed.  When vehicles
    from several lanes land on the same successor cell in one step, the lane
    with the lower id wins and later claimants fall back to the next free
    cell behind, or wait in place when none is left.
    """
    lanes = topology.lanes
    old_lists = state.lane_vehicles
    lengths = state.lane_lengths
    first_occ = [
        lst[0].cell if lst else lengths[li] for li, lst in enumerate(old_lists)
    ]
    total = sum(len(lst) for lst in old_lists)
    draws = rng.dawdle.random(total).tolist() if total else _NO_DRAWS
    di = 0
    new_lists: list[list[Vehicle]] = [[] for _ in lanes]
    entrants: dict[int, list[Vehicle]] = {}
    claimed: dict[int, set[int]] = {}
    removed: list[Vehicle] = []

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
                veh.cell = nk
                veh.speed = v
                removed.append(veh)
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
                    veh.lane = target
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

    def inject(self, state: Level1State, rng: RngStream) -> list[int]:
        """Draw this step's arrivals and place what fits; returns placed ids."""
        draws = rng.injection.random(len(self.entries)).tolist()
        placed: list[int] = []
        for ei, (lane_id, cell) in enumerate(self.entries):
            if draws[ei] < self.intensities[ei]:
                self.pending[ei] += 1
            if not self.pending[ei]:
                continue
            lst = state.lane_vehicles[lane_id]
            pos = bisect_left(lst, cell, key=_cell_of)
            if pos < len(lst) and lst[pos].cell == cell:
                continue  # entry cell occupied: the arrival keeps waiting
            veh = Vehicle(self.next_id, lane_id, cell, 0)
            self.next_id += 1
            self.pending[ei] -= 1
            lst.insert(pos, veh)
            placed.append(veh.id)
        return placed
