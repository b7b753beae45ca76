"""Vehicle-level dynamics: the synchronous cell-automaton update and arrivals.

Level 1 is a Nagel-Schreckenberg automaton on lanes joined at signalled
intersections, and :func:`advance_all` is its one implementation.  Each step
every vehicle, at speed ``v`` with dawdle uniform ``u``:

1. accelerates: ``v = min(v + 1, v_max)``;
2. brakes: ``v = min(v, d - 1)`` against its leader ``d`` cells ahead, at the
   leader's old cell.  A lane's front vehicle has no leader on its lane: on
   red it brakes against the stop line ``s`` cells ahead, ``v = min(v, s - 1)``;
   on green the line does not constrain, and a front vehicle that could
   reach the line commits to crossing, draws its exit and brakes against the
   old cell of the rear vehicle on that exit lane (the lane's end when it is
   empty), ``d`` counted across the line;
3. dawdles: ``v = max(v - 1, 0)`` when ``u < p``, strictly, so ``u == p``
   keeps the speed and a standing vehicle stays at 0;
4. moves ``v`` cells.  A crosser lands on its exit lane, and a vehicle that
   runs past the end of a network-exit lane leaves the network.

Every braking decision reads the pre-step configuration only, so the whole
network advances as one synchronous automaton.  A committed vehicle takes
the first exit, in stored order, whose running weight sum exceeds its turn
uniform ``u`` (strictly: ``u < sum``), and the last exit when none does.

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
from typing import Sequence

import numpy as np

from .model import Level1Arrays, NetworkTopology, SimulationError


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


def _uniforms(rngs: Sequence[RngStream], stream: str, sizes: Sequence[int]) -> np.ndarray:
    """``sizes[r]`` uniforms from substream ``stream`` of ``rngs[r]``, in replica order."""
    if len(rngs) == 1:
        return getattr(rngs[0], stream).random(sizes[0])
    return np.concatenate([getattr(r, stream).random(k) for r, k in zip(rngs, sizes)])


def advance_all(
    state: Level1Arrays,
    topology: NetworkTopology,
    gamma: np.ndarray,
    v_max: int,
    p: float,
    rngs: Sequence[RngStream],
) -> np.ndarray:
    """Advance every vehicle one step by the rule of this module; returns how
    many left the network in each of the state's replicas, whose random
    streams ``rngs`` holds.

    Mutates ``state`` in place.  A vehicle that commits to crossing draws its
    exit before braking (the successor determines the gap); if dawdling then
    keeps it short of the stop line, the draw stays consumed.  When vehicles
    from several lanes land on the same successor cell in one step, the lane
    with the lower id wins and later claimants fall back to the next free
    cell behind, or wait in place when none is left.  Each replica takes one
    call per stream, in replica order, so it draws what it would alone.
    ``gamma`` holds each lane's signal bit as :func:`lanes.apply_signal_indications`
    gives it, green on a network-exit lane.
    """
    data = state.data
    lane, cell, speed = data[0], data[1], data[2]
    n = lane.size
    if not n:
        return np.zeros(state.replicas, dtype=np.intp)
    t = topology.tables
    v = np.minimum(speed + 1, v_max)
    # a follower brakes against its leader's old cell: the previous column
    cap = np.empty(n, dtype=np.intp)
    np.subtract(cell[:-1], cell[1:] + 1, out=cap[1:])
    leads = np.empty(n, dtype=bool)
    leads[0] = True
    np.not_equal(lane[1:], lane[:-1], out=leads[1:])
    front = leads.nonzero()[0]
    fl, fk = lane.take(front), cell.take(front)
    flen = t.lane_length.take(fl)
    if np.count_nonzero(fk >= flen):
        raise SimulationError(f"a vehicle sits past the end of lane {fl[fk >= flen][0]}")
    green = gamma.take(fl) != 0  # a network-exit lane always reads green
    last = t.exit_last.take(fl)  # -1 on a network-exit lane
    fcap = np.where(green, v_max, flen - fk - 1)
    commit = (green & (last >= 0) & (fk + v.take(front) >= flen)).nonzero()[0]
    if commit.size:
        cl = fl.take(commit)
        pick = last.take(commit)
        multi = pick.nonzero()[0]
        if multi.size:
            u = _uniforms(rngs, "turn", state.per_replica(cl.take(multi)))
            # turning: the first exit whose running weight sum exceeds u, else the last
            hits = (u >= t.exit_cum.take(cl.take(multi), axis=1)).sum(axis=0)
            pick[multi] = np.minimum(hits, pick.take(multi))
        target = t.exit_targets.take(pick * t.lane_length.size + cl)
        # the rear vehicle of a lane is its last column
        rear = lane.searchsorted(target, "right") - 1
        head = np.where(lane.take(rear) == target, cell.take(rear), t.lane_length.take(target))
        fcap[commit] = flen.take(commit) - fk.take(commit) + head - 1
    cap[front] = fcap
    np.minimum(v, cap, out=v)
    # the columns run in draw order: lane by lane, front first
    v -= _uniforms(rngs, "dawdle", state.per_replica(lane)) < p
    np.maximum(v, 0, out=v)
    cell += v
    speed[:] = v

    past = cell.take(front) >= flen
    if not np.count_nonzero(past):
        return np.zeros(state.replicas, dtype=np.intp)
    gone = front[past & (last < 0)]
    if commit.size:
        crossed = past.take(commit).nonzero()[0]
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
    removed = state.per_replica(lane.take(gone))
    # a removed vehicle sorts past every lane and is cut off; a crosser keeps
    # its old column until a stable sort of the nearly sorted keys moves it
    # behind its new lane's stayers
    lane[gone], cell[gone] = t.lane_length.size, 0
    order = np.argsort(lane * t.key_stride - cell, kind="stable")
    state.data = data.take(order[: n - gone.size], axis=1)
    return removed


def count_stopped(
    state: Level1Arrays,
    window: int | None = None,
    first_new_id: float | np.ndarray = math.inf,
) -> np.ndarray:
    """Vehicles standing still in each replica, optionally only within the
    last ``window`` cells of each lane, skipping ids from the replica's
    ``first_new_id`` on (ids are dense, so those are the vehicles placed this
    step); one ``first_new_id`` serves a state of one replica."""
    lane, cell, speed, vid = state.data
    if state.replicas > 1:
        first_new_id = np.take(first_new_id, state.replica_of(lane))
    stopped = (speed == 0) & (vid < first_new_id)
    if window is not None:
        stopped &= cell >= (state.lane_lengths - window).take(lane)
    return state.per_replica(lane[stopped])


class InjectionProcess:
    """Bernoulli arrivals at the network entries, with a pending backlog.

    One arrival draw is taken per entry per step regardless of space, so the
    offered demand does not depend on the controller; an arrival that finds
    its entry cell occupied waits in a per-entry backlog and is placed as
    soon as the cell frees up, one placement per entry per step.  Vehicles
    are placed at speed 0 and take part in the same step's movement.
    """

    def __init__(
        self, topology: NetworkTopology, intensities: Sequence[float], replicas: int = 1
    ):
        if len(intensities) != len(topology.entry_points):
            raise ValueError(
                f"{len(intensities)} intensities for "
                f"{len(topology.entry_points)} entry points"
            )
        self.topology = topology
        self.intensities = np.array(intensities, dtype=float)
        self.pending = np.zeros(len(intensities), dtype=np.intp)
        # replica r's entries are the r-th of ``replicas`` equal blocks
        self.entries_per_replica = len(intensities) // replicas
        self.next_id = np.zeros(replicas, dtype=np.intp)

    def inject(self, state: Level1Arrays, rngs: Sequence[RngStream]) -> None:
        """Draw this step's arrivals and place what fits; ``rngs`` holds one
        stream per replica."""
        draws = _uniforms(rngs, "injection", [self.entries_per_replica] * len(rngs))
        self.pending += draws < self.intensities
        waiting = self.pending.nonzero()[0]
        if not waiting.size:
            return
        t = self.topology.tables
        data = state.data
        key = data[0] * t.key_stride - data[1]
        want = t.entry_key.take(waiting)
        pos = np.searchsorted(key, want)
        free = np.searchsorted(key, want, "right") == pos  # entry cell empty
        placing: dict[int, tuple[int, int, int]] = {}  # key -> (insert position, id, entry)
        for ei, cell_key, at, empty in zip(
            waiting.tolist(), want.tolist(), pos.tolist(), free.tolist()
        ):
            if empty and cell_key not in placing:  # of entries sharing a cell, the first places
                r = ei // self.entries_per_replica
                placing[cell_key] = (at, int(self.next_id[r]), ei)
                self.next_id[r] += 1
                self.pending[ei] -= 1
        if not placing:
            return
        # in key order, so entries sharing an insert position keep the columns' order
        parts, prev = [], 0
        for _, (at, vid, ei) in sorted(placing.items()):
            lane, cell = self.topology.entry_points[ei]
            parts += [data[:, prev:at], [[lane], [cell], [0], [vid]]]
            prev = at
        parts.append(data[:, prev:])
        state.data = np.concatenate(parts, axis=1)
