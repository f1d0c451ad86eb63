"""Brute-force ground truth for desk-scale verification.

Exhaustive but exact: dynamic programming over visit subsets for single
trips, full set-partition enumeration for whole solutions, and exhaustive
robot labelings for makespan feasibility. Size caps keep everything fast
enough for a test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import GiantSolution, Instance, ordered_sum, trip_energy

MAX_TOUR_TASKS = 12
MAX_PARTITION_TASKS = 8
MAX_SCHEDULE_TRIPS = 10
MAX_SCHEDULE_ROBOTS = 4


class SizeError(ValueError):
    """Input too large for exhaustive search."""


def exact_tour(trip_tasks: Sequence[int], inst: Instance) -> tuple[tuple[int, ...], float]:
    """Optimal visit order for one trip by Held-Karp over subsets.

    The load after a set of visits depends only on the set, not its order,
    so states (visited_set, last_task) suffice: leaving `last` with set S
    on board costs d(last, j) * (W + sum of yields over S).
    """
    k = len(trip_tasks)
    if k == 0:
        raise SizeError("empty trip")
    if k > MAX_TOUR_TASKS:
        raise SizeError(f"exact_tour capped at {MAX_TOUR_TASKS} tasks, got {k}")
    tasks = list(trip_tasks)
    d = inst.dist
    w = inst.robot_weight
    q = [inst.yields[t] for t in tasks]

    # subset_load[mask] = total yield picked up over the tasks in mask
    subset_load = [0.0] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        i = low.bit_length() - 1
        subset_load[mask] = subset_load[mask ^ low] + q[i]

    best: dict[tuple[int, int], tuple[float, tuple[int, ...]]] = {}
    for i in range(k):
        best[(1 << i, i)] = (d[0, tasks[i]] * w, (i,))
    for mask in range(1, 1 << k):
        for last in range(k):
            if not mask & (1 << last):
                continue
            state = (mask, last)
            if state not in best:
                continue
            cost, order = best[state]
            carry = w + subset_load[mask]
            for j in range(k):
                if mask & (1 << j):
                    continue
                nmask = mask | (1 << j)
                ncost = cost + d[tasks[last], tasks[j]] * carry
                prev = best.get((nmask, j))
                if prev is None or ncost < prev[0]:
                    best[(nmask, j)] = (ncost, order + (j,))

    full = (1 << k) - 1
    carry = w + subset_load[full]
    winner: tuple[float, tuple[int, ...]] | None = None
    for last in range(k):
        cost, order = best[(full, last)]
        total = cost + d[tasks[last], 0] * carry
        if winner is None or total < winner[0]:
            winner = (total, order)
    assert winner is not None
    energy, order = winner
    return tuple(tasks[i] for i in order), float(energy)


@dataclass(frozen=True)
class OracleResult:
    energy: float
    solution: GiantSolution
    partitions_explored: int
    tours_solved: int


def exact_route_generation(inst: Instance) -> OracleResult:
    """Global optimum over all capacity-feasible trip partitions of the tasks,
    each trip ordered optimally by exact_tour."""
    n = inst.n
    if n > MAX_PARTITION_TASKS:
        raise SizeError(f"exact_route_generation capped at {MAX_PARTITION_TASKS} tasks, got {n}")
    if n == 0:
        return OracleResult(0.0, GiantSolution(()), 1, 0)

    tasks = list(inst.task_ids)
    tour_cache: dict[frozenset[int], tuple[tuple[int, ...], float]] = {}
    stats = {"partitions": 0, "tours": 0}

    def solved_block(block: tuple[int, ...]) -> tuple[tuple[int, ...], float]:
        key = frozenset(block)
        if key not in tour_cache:
            tour_cache[key] = exact_tour(block, inst)
            stats["tours"] += 1
        return tour_cache[key]

    best_energy = float("inf")
    best_blocks: list[tuple[int, ...]] | None = None

    def recurse(index: int, blocks: list[list[int]], loads: list[float], energy: float) -> None:
        nonlocal best_energy, best_blocks
        if energy >= best_energy:
            return
        if index == len(tasks):
            stats["partitions"] += 1
            best_energy = energy
            best_blocks = [tuple(b) for b in blocks]
            return
        t = tasks[index]
        q = inst.yields[t]
        for bi, block in enumerate(blocks):
            if loads[bi] + q > inst.capacity:
                continue
            block.append(t)
            loads[bi] += q
            before = solved_block(tuple(block[:-1]))[1] if len(block) > 1 else 0.0
            after = solved_block(tuple(block))[1]
            recurse(index + 1, blocks, loads, energy - before + after)
            loads[bi] -= q
            block.pop()
        # open a fresh block; only index-ordered openings, so each partition
        # is enumerated exactly once
        blocks.append([t])
        loads.append(q)
        recurse(index + 1, blocks, loads, energy + solved_block((t,))[1])
        blocks.pop()
        loads.pop()

    recurse(0, [], [], 0.0)
    assert best_blocks is not None
    ordered = [solved_block(b)[0] for b in best_blocks]
    return OracleResult(
        energy=best_energy,
        solution=GiantSolution(ordered),
        partitions_explored=stats["partitions"],
        tours_solved=stats["tours"],
    )


def exact_schedule(trip_energies: Sequence[float], m: int, e_max: float) -> bool:
    """Feasibility of assigning trips to m robots with per-robot energy <= e_max,
    by exhaustive robot labeling."""
    t = len(trip_energies)
    if t > MAX_SCHEDULE_TRIPS:
        raise SizeError(f"exact_schedule capped at {MAX_SCHEDULE_TRIPS} trips, got {t}")
    if m > MAX_SCHEDULE_ROBOTS:
        raise SizeError(f"exact_schedule capped at {MAX_SCHEDULE_ROBOTS} robots, got {m}")
    if t == 0:
        return True

    loads = [0.0] * m

    def place(i: int) -> bool:
        if i == t:
            return True
        for r in range(m):
            if loads[r] + trip_energies[i] <= e_max:
                loads[r] += trip_energies[i]
                if place(i + 1):
                    return True
                loads[r] -= trip_energies[i]
        return False

    return place(0)


def exhaustive_best_energy(inst: Instance) -> float:
    """Second, slower enumerator: all permutations x all separator placements.

    Used only to cross-check exact_route_generation on tiny instances.
    """
    from itertools import permutations

    n = inst.n
    if n > 6:
        raise SizeError("exhaustive_best_energy capped at 6 tasks")
    best = float("inf")
    for perm in permutations(inst.task_ids):
        for sep_mask in range(1 << (n - 1)) if n > 1 else range(1):
            trips: list[list[int]] = [[perm[0]]]
            for i in range(1, n):
                if sep_mask & (1 << (i - 1)):
                    trips.append([])
                trips[-1].append(perm[i])
            if any(ordered_sum(inst.yields[t] for t in trip) > inst.capacity for trip in trips):
                continue
            energy = ordered_sum(trip_energy(trip, inst) for trip in trips)
            best = min(best, energy)
    return best
