"""Assigning generated trips to robots under a shared energy budget.

makespan_assign decides feasibility by a first-fit-decreasing fast path,
then the L2 lower bound, then depth-first bin completion with symmetry and
dominance pruning. Up to 22 trips the search runs to the end, so None means
unassignable; above that it stops after `_SEARCH_STEPS` steps, so None means
unassignable or out of steps (incomplete, but deterministic). repair splits
overweight trips task by task until an assignment exists or no trip can be
split further.

Both rejection steps are built to give the answers of their plain forms,
only sooner. The L2 bound takes one pass over the sorted energies: its
medium sums are left-to-right prefix sums from the first energy <= e_max/2,
which equal `ordered_sum` of the same slices bit for bit. The exact search
skips a robot's completion when an earlier sibling that already failed
dominates it (no longer, and no larger rank by rank): whatever would fit
after the skipped one would fit after the failed one, so the skipped subtree
holds no witness, and the depth-first search returns the same first witness.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat
from operator import le
from typing import Iterator, Sequence

from .core import GiantSolution, Instance, expand_overloads, ordered_sum, trip_energy

EXACT_TRIP_LIMIT = 22
# Steps of `_maximal_completions`' recursion the search may take above
# EXACT_TRIP_LIMIT trips (README, "Algorithm notes").
_SEARCH_STEPS = 2**16


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
    FR2 = "Fr2"  # drop unschedulable individuals
    FR3 = "Fr3"  # ignore the bound until termination, then repair


class RepairStatus(str, Enum):
    REPAIRED = "Repaired"
    INFEASIBLE = "Infeasible"


def makespan_assign(
    trip_energies: Sequence[float], m: int, e_max: float
) -> Schedule | None:
    """A witness assignment of trips to m robots with per-robot energy
    <= e_max, or None when none exists. Up to EXACT_TRIP_LIMIT trips None is
    a proof; above it, None also when the search used its _SEARCH_STEPS."""
    t = len(trip_energies)
    if m < 1:
        raise ValueError("need at least one robot")
    if max(trip_energies, default=0.0) > e_max:
        return None
    if ordered_sum(trip_energies) > m * e_max * (1 + 1e-12):
        return None
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
    steps = islice(repeat(None), _SEARCH_STEPS if t > EXACT_TRIP_LIMIT else None)
    try:
        return _exact_search(order, trip_energies, m, e_max, steps)
    except StopIteration:  # out of steps: neither a witness nor a proof
        return None


def _robots_lower_bound(energies: Sequence[float], e_max: float) -> int:
    """Martello-Toth L2 lower bound on the robots needed: big trips claim a
    robot each, and whatever medium volume their leftover space cannot absorb
    forces extra robots.

    One pass over the descending energies. For each alpha (0 and every energy
    <= e_max/2), the trips above e_max - alpha are huge, those up to e_max/2
    large, and the rest down to alpha medium. Huge and large together are the
    trips above e_max/2, a fixed prefix; the huge/large boundary only moves
    right as alpha grows, so the large sum is re-added, over its slice, only
    when it moves. The medium trips run from the first trip <= e_max/2 to the
    last one >= alpha, so their sum is a prefix sum from that first trip;
    adding left to right, it is `ordered_sum` of the same slice bit for bit.
    """
    items = sorted(energies, reverse=True)
    n = len(items)
    half = e_max / 2
    mid = 0  # items[:mid] are huge or large
    while mid < n and items[mid] > half:
        mid += 1
    medium_sums = [0.0]  # medium_sums[j] == ordered_sum(items[mid:mid + j])
    for e in items[mid:]:
        medium_sums.append(medium_sums[-1] + e)
    # (alpha, end of the medium slice): alpha = 0 takes every medium trip (no
    # energy is negative), and each distinct medium energy, smallest first,
    # its own trips and the larger ones.
    cuts = [(0.0, n)]
    for j in range(n - 1, mid - 1, -1):
        if j == n - 1 or items[j] != items[j + 1]:
            cuts.append((items[j], j + 1))
    best = 1
    huge_end, spare_end, spare = 0, -1, 0.0
    for alpha, medium_end in cuts:
        limit = e_max - alpha
        while huge_end < mid and items[huge_end] > limit:
            huge_end += 1
        if huge_end != spare_end:
            spare = (mid - huge_end) * e_max - ordered_sum(items[huge_end:mid])
            spare_end = huge_end
        overflow = medium_sums[medium_end - mid] - spare
        bound = mid
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
    order: Sequence[int], energies: Sequence[float], m: int, e_max: float,
    steps: Iterator[None] = repeat(None),
) -> Schedule | None:
    """Bin-oriented depth-first search (robots are interchangeable, so each
    new robot is anchored by the largest unassigned trip). Completions are
    restricted to inclusion-maximal trip sets: any feasible assignment can be
    rewritten so the anchor's robot carries a maximal set, so the restriction
    loses nothing and prunes enormously.

    Dominance (Martello and Toth; Korf's bin completion): a completion B is
    skipped when an earlier sibling A already failed and dominates it, that
    is, with both descending, len(B) <= len(A) and B[j] <= A[j] for every j.
    Each trip left after A then maps onto a distinct trip at least as large
    left after B, so any assignment of what B leaves gives one of what A
    leaves: B's subtree holds no witness, and the search, which keeps its
    depth-first order, finds the same first witness.

    A state is keyed by the bitmask of the trips it has left, so a known dead
    child is skipped, and counts as a failed sibling, before its list is
    built. A child's energy sum is added up left to right as its list is
    built, which is the float `ordered_sum` of the list gives.

    `steps` is passed on to `_maximal_completions`: a finite one stops the
    search with StopIteration once it runs dry, and a witness found before
    that is the one the search finds with no limit.
    """
    items = [(energies[i], i) for i in order]  # descending energy
    assignment = [-1] * len(energies)
    dead: set[tuple[int, int]] = set()

    def solve(
        remaining: list[tuple[float, int]], mask: int, total: float, robots_left: int, robot: int
    ) -> bool:
        """`mask` has the bit of each trip in `remaining`, and `total` is the
        left-to-right sum of their energies."""
        if len(remaining) <= robots_left:
            for _, i in remaining:
                assignment[i] = robot
                robot += 1
            return True
        if robots_left <= 0:
            return False
        if total > robots_left * e_max * (1 + 1e-12):
            return False
        anchor_e, anchor_i = remaining[0]
        pool = remaining[1:]
        room = e_max - anchor_e
        # when not even the smallest trip fits, the anchor's robot is complete
        completions = _maximal_completions(pool, room, steps) if pool[-1][0] <= room else [[]]
        failed: list[list[float]] = []
        for chosen in completions:
            taken = 1 << anchor_i
            for _, i in chosen:
                taken |= 1 << i
            rest_mask = mask & ~taken
            child = (rest_mask, robots_left - 1)
            sizes = [e for e, _ in chosen]
            if child in dead:
                failed.append(sizes)
                continue
            if any(len(sizes) <= len(a) and all(map(le, sizes, a)) for a in failed):
                continue
            rest = []
            rest_total = 0.0
            for it in pool:
                if rest_mask >> it[1] & 1:
                    rest.append(it)
                    rest_total += it[0]
            assignment[anchor_i] = robot
            for _, i in chosen:
                assignment[i] = robot
            if solve(rest, rest_mask, rest_total, robots_left - 1, robot + 1):
                return True
            dead.add(child)
            failed.append(sizes)
        return False

    # order holds every trip index once
    if solve(items, (1 << len(items)) - 1, ordered_sum(e for e, _ in items), m, 0):
        loads = [0.0] * m
        for i, r in enumerate(assignment):
            loads[r] += energies[i]
        return Schedule(tuple(assignment), tuple(loads))
    return None


def _maximal_completions(
    pool: list[tuple[float, int]], capacity: float, steps: Iterator[None] = repeat(None)
) -> list[list[tuple[float, int]]]:
    """All inclusion-maximal subsets of pool with total energy <= capacity,
    fullest first. pool must be sorted by descending energy.

    Items that do not fit what is left are jumped over (by bisection on the
    descending pool): one too big now is too big for every later state, so it
    can never make a set non-maximal, and once the smallest item does not fit
    the set is complete.

    Each step of the recursion takes an item from `steps`, so StopIteration
    escapes once a finite `steps` runs dry; the default never does."""
    out: list[tuple[float, list[tuple[float, int]]]] = []
    chosen: list[tuple[float, int]] = []
    negated = [-e for e, _ in pool]  # ascending, for bisect
    n = len(pool)

    def rec(i: int, cap_left: float, min_excluded: float) -> None:
        next(steps)
        i = bisect_left(negated, -cap_left, i)  # first item from i that fits
        if i == n:
            if min_excluded > cap_left:
                out.append((capacity - cap_left, list(chosen)))
            return
        e, idx = pool[i]
        chosen.append((e, idx))
        rec(i + 1, cap_left - e, min_excluded)
        chosen.pop()
        rec(i + 1, cap_left, min(min_excluded, e))

    rec(0, capacity, math.inf)
    out.sort(key=lambda pair: -pair[0])
    return [subset for _, subset in out]


def repair(
    sol: GiantSolution, inst: Instance, m: int, e_max: float, energies: Sequence[float]
) -> tuple[Individual, RepairStatus]:
    """Split trips until the trip set fits the robots, following the
    move-accept rule: walking the trips from most to least expensive, cut
    each trip into a head and a tail, first before its last task and then
    one task earlier each time, while the pair's combined energy does not
    increase, re-checking assignability after every accepted cut. A trip's
    peel, its accepted cuts, depends on that trip alone, and a one-task
    trip stays whole; when no check succeeds, each trip has given way to
    the head and tail of its last accepted cut.

    Capacity overflows are expanded first, so every emitted trip respects
    the capacity and the task multiset is preserved. `energies` are those
    of the expanded trips in order, the energies `evaluate` charges for
    `sol`, as `score_with_framework` takes them. The trips are worked on as
    a list with their energies kept in step, so a move computes just its
    two trips' energies.

    The result comes scored: once repaired, its energy is the fsum of those
    energies, bit for bit `evaluate`'s (fsum rounds exactly and every trip
    fits the capacity), and its schedule the last check's witness; else its
    energy is infinite and it has no schedule.
    """
    expanded, _ = expand_overloads(sol.trips, inst)
    trips: list[list[int]] = [list(t) for t in expanded]
    energies = list(energies)

    def done(schedule: Schedule | None) -> tuple[Individual, RepairStatus]:
        # Moves keep the trips in the order of `sol`'s tasks.
        solution = GiantSolution.trusted(tuple(map(tuple, trips)), sol.task_sequence())
        if schedule is None:
            return Individual(solution, math.inf), RepairStatus.INFEASIBLE
        return Individual(solution, math.fsum(energies), schedule), RepairStatus.REPAIRED

    if (schedule := makespan_assign(energies, m, e_max)) is not None:
        return done(schedule)

    # Most expensive first; the sort is stable, so equal energies keep trip order.
    for _, trip in sorted(zip(energies, trips), key=lambda pair: -pair[0]):
        # A trip's pieces replace it where it stands: one slot before its
        # first cut, its head and tail after.
        index, width, z_com = trips.index(trip), 1, math.inf
        for cut in range(len(trip) - 1, 0, -1):
            head, tail = trip[:cut], trip[cut:]
            e_head, e_tail = trip_energy(head, inst), trip_energy(tail, inst)
            if e_head + e_tail > z_com:
                break
            z_com = e_head + e_tail
            trips[index : index + width] = head, tail
            energies[index : index + width] = e_head, e_tail
            width = 2
            if (schedule := makespan_assign(energies, m, e_max)) is not None:
                return done(schedule)
    return done(None)


def thresholds(mean_energy: float, m: int) -> tuple[float, float]:
    """The two makespan bounds used in scenario sweeps: 1.5 Z / m and 1.7 Z / m."""
    if mean_energy <= 0 or m < 1:
        raise ValueError("mean energy must be positive and m >= 1")
    return 1.5 * mean_energy / m, 1.7 * mean_energy / m


def score_with_framework(
    sol: GiantSolution, inst: Instance, m: int | None, e_max: float | None,
    framework: Framework | None, energies: Sequence[float],
) -> Individual:
    """Score one individual under the given framework's per-generation rule.

    `energies` are the energies `evaluate` charges for the trips of `sol`,
    in trip order, as `charged_energies` prices them from the run's trip
    cache. The energy is their `math.fsum`, which is `evaluate`'s.

    Fr1 returns unschedulable individuals as `repair` scored them
    (still-unschedulable ones keep infinite energy); Fr2 marks them
    infeasible for deletion by the caller; Fr3 ignores the bound here
    entirely. `framework=None` is a run with no robots or bound: like Fr3,
    it returns the energy unscheduled, and `m` and `e_max` may be None.
    """
    energy = math.fsum(energies)
    if framework in (None, Framework.FR3):
        return Individual(sol, energy)
    schedule = makespan_assign(energies, m, e_max)
    if schedule is not None:
        return Individual(sol, energy, schedule)
    if framework is Framework.FR2:
        return Individual(sol, math.inf)
    return repair(sol, inst, m, e_max, energies)[0]
