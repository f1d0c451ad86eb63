"""Assigning generated trips to robots under a shared energy budget.

makespan_assign decides feasibility exactly for up to 22 trips (first-fit-
decreasing fast path, then the L2 lower bound, then depth-first search with
symmetry pruning); beyond that it falls back to seeded first-fit restarts and
may miss feasible assignments (incomplete, but deterministic). repair splits
overweight trips task by task until an assignment exists or no trip can be
split further.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import (
    GiantSolution,
    Instance,
    evaluate,
    expand_overloads,
    ordered_sum,
    trip_energy,
)

EXACT_TRIP_LIMIT = 22
_FALLBACK_RESTARTS = 200


@dataclass(frozen=True)
class Schedule:
    """Trip-to-robot assignment with per-robot cumulative energies."""

    assignment: tuple[int, ...]
    robot_energies: tuple[float, ...]

    def robots(self) -> list[list[int]]:
        """Trip indices grouped per robot, in trip order."""
        out: list[list[int]] = [[] for _ in self.robot_energies]
        for trip_index, robot in enumerate(self.assignment):
            out[robot].append(trip_index)
        return out


@dataclass(frozen=True)
class Individual:
    """A solution with its score and, when it was scheduled, its schedule."""

    solution: GiantSolution
    energy: float
    schedule: Schedule | None = None


class Framework(str, Enum):
    FR1 = "Fr1"  # schedule + repair every individual, every generation
    FR2 = "Fr2"  # drop unschedulable individuals, refill
    FR3 = "Fr3"  # ignore the bound until termination, then repair


class RepairStatus(str, Enum):
    REPAIRED = "Repaired"
    INFEASIBLE = "Infeasible"


def makespan_assign(
    trip_energies: Sequence[float], m: int, e_max: float
) -> Schedule | None:
    """A witness assignment of trips to m robots with per-robot energy
    <= e_max, or None when none exists (exact up to EXACT_TRIP_LIMIT trips)."""
    t = len(trip_energies)
    if m < 1:
        raise ValueError("need at least one robot")
    if any(e > e_max for e in trip_energies):
        return None
    if ordered_sum(trip_energies) > m * e_max * (1 + 1e-12):
        return None
    if t == 0:
        return Schedule((), tuple(0.0 for _ in range(m)))
    if t <= m:  # one trip per robot; every energy already fits the bound
        loads = list(trip_energies) + [0.0] * (m - t)
        return Schedule(tuple(range(t)), tuple(loads))

    order = sorted(range(t), key=lambda i: (-trip_energies[i], i))
    ffd = _first_fit(order, trip_energies, m, e_max)
    if ffd is not None:
        return ffd
    # Only now: whenever first-fit-decreasing finds a witness, the bound is <= m.
    if _robots_lower_bound(trip_energies, e_max) > m:
        return None
    if t <= EXACT_TRIP_LIMIT:
        return _exact_search(order, trip_energies, m, e_max)
    rng = random.Random(t * 1009 + m)
    shuffled = list(order)
    for _ in range(_FALLBACK_RESTARTS):
        rng.shuffle(shuffled)
        found = _first_fit(shuffled, trip_energies, m, e_max)
        if found is not None:
            return found
    return None


def _robots_lower_bound(energies: Sequence[float], e_max: float) -> int:
    """Martello-Toth L2 lower bound on the robots needed: big trips claim a
    robot each, and whatever medium volume their leftover space cannot absorb
    forces extra robots."""
    items = sorted(energies, reverse=True)
    best = 1
    thresholds_ = sorted({e for e in items if e <= e_max / 2})
    for alpha in [0.0, *thresholds_]:
        huge = [e for e in items if e > e_max - alpha]
        large = [e for e in items if e_max - alpha >= e > e_max / 2]
        medium = [e for e in items if e_max / 2 >= e >= alpha]
        spare = len(large) * e_max - ordered_sum(large)
        overflow = ordered_sum(medium) - spare
        bound = len(huge) + len(large)
        if overflow > 0:
            bound += math.ceil(overflow / e_max - 1e-12)
        best = max(best, bound)
    return best


def _first_fit(
    order: Sequence[int], energies: Sequence[float], m: int, e_max: float
) -> Schedule | None:
    loads = [0.0] * m
    assignment = [-1] * len(energies)
    for i in order:
        for r in range(m):
            if loads[r] + energies[i] <= e_max:
                loads[r] += energies[i]
                assignment[i] = r
                break
        else:
            return None
    return Schedule(tuple(assignment), tuple(loads))


def _exact_search(
    order: Sequence[int], energies: Sequence[float], m: int, e_max: float
) -> Schedule | None:
    """Bin-oriented depth-first search (robots are interchangeable, so each
    new robot is anchored by the largest unassigned trip). Completions are
    restricted to inclusion-maximal trip sets: any feasible assignment can be
    rewritten so the anchor's robot carries a maximal set, so the restriction
    loses nothing and prunes enormously."""
    items = [(energies[i], i) for i in order]  # descending energy
    assignment = [-1] * len(energies)
    dead: set[tuple[frozenset[int], int]] = set()

    def solve(remaining: list[tuple[float, int]], robots_left: int, robot: int) -> bool:
        if not remaining:
            return True
        if robots_left <= 0:
            return False
        if len(remaining) <= robots_left:
            for e, i in remaining:
                assignment[i] = robot
                robot += 1
            return True
        if ordered_sum(e for e, _ in remaining) > robots_left * e_max * (1 + 1e-12):
            return False
        key = (frozenset(i for _, i in remaining), robots_left)
        if key in dead:
            return False
        anchor_e, anchor_i = remaining[0]
        pool = remaining[1:]
        for chosen in _maximal_completions(pool, e_max - anchor_e):
            assignment[anchor_i] = robot
            chosen_ids = set()
            for e, i in chosen:
                assignment[i] = robot
                chosen_ids.add(i)
            rest = [it for it in pool if it[1] not in chosen_ids]
            if solve(rest, robots_left - 1, robot + 1):
                return True
        dead.add(key)
        return False

    if solve(items, m, 0):
        loads = [0.0] * m
        for i, r in enumerate(assignment):
            if r >= 0:
                loads[r] += energies[i]
        return Schedule(tuple(assignment), tuple(loads))
    return None


def _maximal_completions(
    pool: list[tuple[float, int]], capacity: float
) -> list[list[tuple[float, int]]]:
    """All inclusion-maximal subsets of pool with total energy <= capacity,
    fullest first. pool must be sorted by descending energy."""
    out: list[tuple[float, list[tuple[float, int]]]] = []
    chosen: list[tuple[float, int]] = []

    def rec(i: int, cap_left: float, min_excluded: float) -> None:
        if i == len(pool):
            if min_excluded > cap_left:
                out.append((capacity - cap_left, list(chosen)))
            return
        e, idx = pool[i]
        if e <= cap_left:
            chosen.append((e, idx))
            rec(i + 1, cap_left - e, min_excluded)
            chosen.pop()
        rec(i + 1, cap_left, min(min_excluded, e))

    rec(0, capacity, math.inf)
    out.sort(key=lambda pair: -pair[0])
    return [subset for _, subset in out]


def repair(
    sol: GiantSolution,
    inst: Instance,
    m: int,
    e_max: float,
    _move_trace: list[tuple[float, float]] | None = None,
) -> tuple[Individual, RepairStatus]:
    """Split trips until the trip set fits the robots, following the
    move-accept rule: walking the trips from most to least expensive, peel
    tasks off the tail of a trip onto the front of a fresh trip while the
    pair's combined energy does not increase, re-checking assignability
    after every accepted move.

    Capacity overflows are expanded first, so every emitted trip respects
    the capacity and the task multiset is preserved. The trips are worked on
    as a list with their energies kept in step, so a move computes just its
    two trips' energies. _move_trace, when given, collects
    (previous_combined, new_combined) per accepted move.

    The result comes scored: once repaired, its energy is the fsum of those
    energies, bit for bit `evaluate`'s (fsum rounds exactly and every trip
    fits the capacity), and its schedule the last check's witness; else its
    energy is infinite and it has no schedule.
    """
    expanded, _ = expand_overloads(sol.trips, inst)
    trips: list[list[int]] = [list(t) for t in expanded]
    energies = [trip_energy(t, inst) for t in trips]

    def done(schedule: Schedule | None) -> tuple[Individual, RepairStatus]:
        solution = GiantSolution(trips)
        if schedule is None:
            return Individual(solution, math.inf), RepairStatus.INFEASIBLE
        return Individual(solution, math.fsum(energies), schedule), RepairStatus.REPAIRED

    schedule = makespan_assign(energies, m, e_max)
    if schedule is not None:
        return done(schedule)

    queue = sorted(range(len(trips)), key=lambda i: (-energies[i], i))
    originals = [trips[i] for i in queue]
    for trip_a in originals:
        index = trips.index(trip_a)
        trip_b: list[int] = []
        z_com = math.inf
        while len(trip_a) > 1:
            task = trip_a.pop()
            trip_b.insert(0, task)
            e_a, e_b = trip_energy(trip_a, inst), trip_energy(trip_b, inst)
            e_new = e_a + e_b
            if e_new > z_com:
                trip_b.pop(0)
                trip_a.append(task)
                break
            if _move_trace is not None:
                _move_trace.append((z_com, e_new))
            z_com = e_new
            if len(trip_b) == 1:
                trips.insert(index + 1, trip_b)
                energies.insert(index + 1, e_b)
            energies[index : index + 2] = e_a, e_b
            schedule = makespan_assign(energies, m, e_max)
            if schedule is not None:
                return done(schedule)
    return done(None)


def thresholds(mean_energy: float, m: int) -> tuple[float, float]:
    """The two makespan bounds used in scenario sweeps: 1.5 Z / m and 1.7 Z / m."""
    if mean_energy <= 0 or m < 1:
        raise ValueError("mean energy must be positive and m >= 1")
    return 1.5 * mean_energy / m, 1.7 * mean_energy / m


def score_with_framework(
    sol: GiantSolution, inst: Instance, m: int, e_max: float, framework: Framework
) -> Individual:
    """Score one individual under the given framework's per-generation rule.

    Fr1 returns unschedulable individuals as `repair` scored them
    (still-unschedulable ones keep infinite energy); Fr2 marks them
    infeasible for deletion by the caller; Fr3 ignores the bound here
    entirely.
    """
    ev = evaluate(sol, inst)
    if framework is Framework.FR3:
        return Individual(sol, ev.energy)
    schedule = makespan_assign([t.energy for t in ev.trips], m, e_max)
    if schedule is not None:
        return Individual(sol, ev.energy, schedule)
    if framework is Framework.FR2:
        return Individual(sol, math.inf)
    return repair(sol, inst, m, e_max)[0]
