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


def _uniforms(rngs: Sequence[RngStream], stream: str, cuts: Sequence[int]) -> np.ndarray:
    """Uniforms from substream ``stream``, ``rngs[r]``'s filling slice
    ``cuts[r]:cuts[r + 1]``; a lone stream fills ``cuts[-1]``."""
    if len(rngs) == 1:
        return getattr(rngs[0], stream).random(cuts[-1])
    u = np.empty(cuts[-1])
    for r, lo, hi in zip(rngs, cuts, cuts[1:]):
        getattr(r, stream).random(out=u[lo:hi])
    return u


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
    # a front vehicle's room to its stop line: a cap under red, and on green
    # one it commits past; a network-exit lane's unbounded extra room lets
    # its front vehicle run off the end instead
    room = t.last_cell.take(fl) - fk
    if np.count_nonzero(room < 0):
        raise SimulationError(f"a vehicle sits past the end of lane {fl[room < 0][0]}")
    fcap = room + t.exit_room.take(fl)
    commit = (gamma.take(fl) & (v.take(front) > fcap)).nonzero()[0]
    if commit.size:
        cl = fl.take(commit)
        pick = t.exit_last.take(cl)
        multi = pick.nonzero()[0]
        if multi.size:
            ml = cl.take(multi)
            u = _uniforms(rngs, "turn", state.replica_cuts(ml))
            # turning: the first exit whose running weight sum exceeds u; the
            # sums rise along the exits and read inf from the last one on
            pick[multi] = (u < t.exit_cum.take(ml, axis=1)).argmax(axis=0)
        target = t.exit_targets.take(pick * t.lane_length.size + cl)
        # the rear vehicle of a lane is its last column
        rear = lane.searchsorted(target, "right") - 1
        head = np.where(lane.take(rear) == target, cell.take(rear), t.lane_length.take(target))
        fcap[commit] += head
    cap[front] = fcap
    np.minimum(v, cap, out=v)
    # the columns run in draw order: lane by lane, front first
    v -= _uniforms(rngs, "dawdle", state.replica_cuts(lane)) < p
    np.maximum(v, 0, out=v)
    cell += v
    speed[:] = v

    past = v.take(front) > room
    if not np.count_nonzero(past):
        return np.zeros(state.replicas, dtype=np.intp)
    if commit.size:
        crossed = past.take(commit).nonzero()[0]
        past[commit] = False
        at = commit.take(crossed)
        idx, lengths = front.take(at), t.lane_length.take(fl.take(at))
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
            old = fk.take(at)
            wait = land < 0  # squeezed out: waits in place at speed 0
            land[wait], goal[wait], lengths[wait] = old[wait], lane.take(idx[wait]), 0
            speed[idx] = lengths - old + land
        lane[idx], cell[idx] = goal, land
    # past the end and not crossing: leaves the network
    gone = front[past]
    removed = state.per_replica(lane.take(gone))
    # a removed vehicle sorts past every lane and is cut off; a crosser keeps
    # its old column until a stable sort of the nearly sorted keys moves it
    # behind its new lane's stayers
    lane[gone], cell[gone] = t.lane_length.size, 0
    order = (lane * t.key_stride - cell).argsort(kind="stable")
    state.data = data.take(order[: n - gone.size], axis=1)
    return removed


def count_stopped(
    state: Level1Arrays,
    window: int | None = None,
    first_new_id: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Vehicles standing still in each replica, optionally only within the
    last ``window`` cells of each lane, skipping ids from ``first_new_id`` on
    (ids are dense, so those are the vehicles placed this step): one id per
    replica, or one for all of them."""
    lane, cell, speed, vid = state.data
    stopped = speed == 0
    if first_new_id is not None:
        new_from = np.asarray(first_new_id)
        if new_from.size > 1:
            new_from = new_from.repeat(state.per_replica(lane))
        stopped &= vid < new_from
    if window is not None:
        stopped &= cell >= (state.lane_lengths - window).take(lane)
    if state.replicas == 1:
        return np.array([np.count_nonzero(stopped)])
    return state.per_replica(lane[stopped])


class InjectionProcess:
    """Bernoulli arrivals at the network entries, with a pending backlog.

    One arrival draw is taken per entry per step regardless of space, so the
    offered demand does not depend on the controller; an arrival that finds
    its entry cell occupied waits in a per-entry backlog and is placed as
    soon as the cell frees up, one placement per entry per step.  Vehicles
    are placed at speed 0 and take part in the same step's movement.

    ``intensities`` holds the arrival probability of every entry point of
    ``topology``: on ``replicas`` copies of a network, each copy's entries
    in turn, so that copies may differ in their demand.
    """

    def __init__(
        self, topology: NetworkTopology, intensities: Sequence[float], replicas: int = 1
    ):
        if len(intensities) != len(topology.entry_points):
            raise ValueError(
                f"{len(intensities)} intensities for {len(topology.entry_points)} entry points"
            )
        self.topology = topology
        # replica r's entries are the r-th block
        self.intensities = np.array(intensities, dtype=float)
        self.pending = np.zeros(len(topology.entry_points), dtype=np.intp)
        self.entries_per_replica = len(intensities) // replicas
        # where each copy's entries start, then their count
        self._cuts = range(0, len(intensities) + 1, max(self.entries_per_replica, 1))
        self.next_id = np.zeros(replicas, dtype=np.intp)

    def inject(self, state: Level1Arrays, rngs: Sequence[RngStream]) -> np.ndarray | None:
        """Draw this step's arrivals and place what fits; ``rngs`` holds one
        stream per replica.  Returns each replica's first id placed this step,
        or None when none was placed."""
        k = self.entries_per_replica
        draws = _uniforms(rngs, "injection", self._cuts)
        self.pending += draws < self.intensities
        waiting = self.pending.nonzero()[0]
        if not waiting.size:
            return None
        t = self.topology.tables
        data = state.data
        key = data[0] * t.key_stride - data[1]
        want = t.entry_key.take(waiting)
        pos = key.searchsorted(want)
        free = key.searchsorted(want, "right") == pos  # entry cell empty
        ids = self.next_id.tolist()
        placing: dict[int, tuple[int, int, int]] = {}  # key -> (insert position, id, entry)
        for ei, cell_key, at, empty in zip(
            waiting.tolist(), want.tolist(), pos.tolist(), free.tolist()
        ):
            if empty and cell_key not in placing:  # of entries sharing a cell, the first places
                r = ei // k
                placing[cell_key] = (at, ids[r], ei)
                ids[r] += 1
                self.pending[ei] -= 1
        if not placing:
            return None
        # in key order, so entries sharing an insert position keep the columns' order
        at, vid, entries = zip(*(placing[cell_key] for cell_key in sorted(placing)))
        new = t.entry_columns.take(entries, axis=1)
        new[3] = vid
        parts, prev = [], 0
        for j, pos in enumerate(at):
            parts += [data[:, prev:pos], new[:, j : j + 1]]
            prev = pos
        parts.append(data[:, prev:])
        state.data = np.concatenate(parts, axis=1)
        first_new_id, self.next_id = self.next_id, np.array(ids, dtype=np.intp)
        return first_new_id
