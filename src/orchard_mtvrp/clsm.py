"""Clustering-guided local search on trip structure.

Each round: find the most geometrically stretched trip (largest separation
between its two k-means centroids), pool its tasks with the trip whose
centroid sits closest to the stretched trip's far cluster, re-split the pool
by a load-balancing angular sweep, and re-optimize both new tours with an
ant colony scored by the load-dependent trip energy.

Within one `clsm_step` the solution is a list of trips, with plain lists
beside it indexed by trip slot: each trip's split, separation, centroid and
the energies of its overload-expanded pieces. A round rewrites two slots
and refreshes only those, through memos keyed by the trip tuple. A round is
scored as the exactly rounded sum of the slots' piece energies, which equals
a full `evaluate` bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GiantSolution, Instance, expand_overloads, ordered_sum, trip_energy


@dataclass(frozen=True)
class ClusterSplit:
    members_a: tuple[int, ...]
    members_b: tuple[int, ...]
    centroid_a: tuple[float, float]
    centroid_b: tuple[float, float]
    separation: float


def _centroid(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    x = y = 0.0  # plain left-to-right sums on every Python version
    for px, py in points:
        x += px
        y += py
    return x / len(points), y / len(points)


def kmeans_two(points: Sequence[tuple[float, float]]) -> ClusterSplit:
    """Lloyd's algorithm with k=2, seeded at the two mutually farthest points
    (deterministic). Members are indices into `points`."""
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    n = len(points)
    seed_a, seed_b, best_d = 0, 1, -1.0
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(points[i], points[j])
            if d > best_d:
                seed_a, seed_b, best_d = i, j, d
    c_a, c_b = points[seed_a], points[seed_b]
    assign = [-1] * n
    for _ in range(100):
        new_assign = [0 if math.dist(p, c_a) <= math.dist(p, c_b) else 1 for p in points]
        for cluster in (0, 1):
            if cluster not in new_assign:
                other = [i for i in range(n) if new_assign[i] == 1 - cluster]
                anchor = c_a if cluster == 1 else c_b
                stray = max(other, key=lambda i: (math.dist(points[i], anchor), i))
                new_assign[stray] = cluster
        if new_assign == assign:
            break
        assign = new_assign
        c_a = _centroid([points[i] for i in range(n) if assign[i] == 0])
        c_b = _centroid([points[i] for i in range(n) if assign[i] == 1])
    members_a = tuple(i for i in range(n) if assign[i] == 0)
    members_b = tuple(i for i in range(n) if assign[i] == 1)
    return ClusterSplit(members_a, members_b, c_a, c_b, math.dist(c_a, c_b))


def slot_state(
    trip: tuple[int, ...],
    inst: Instance,
    memo: dict[tuple[int, ...], tuple[ClusterSplit | None, float, tuple[float, float]]],
) -> tuple[ClusterSplit | None, float, tuple[float, float]]:
    """A trip's k-means split remapped onto task ids, its separation and its
    task centroid; a singleton has no split and separation -inf. `memo`,
    keyed by the trip, is filled on a miss."""
    state = memo.get(trip)
    if state is None:
        centroid = _centroid([inst.coords[t] for t in trip])
        state = (None, -math.inf, centroid)
        if len(trip) > 1:
            split = kmeans_two([inst.coords[t] for t in trip])
            members = tuple(trip[i] for i in split.members_a), tuple(trip[i] for i in split.members_b)
            remapped = ClusterSplit(*members, split.centroid_a, split.centroid_b, split.separation)
            state = (remapped, split.separation, centroid)
        memo[trip] = state
    return state


def choose_target_trip(
    separations: Sequence[float], splits: Sequence[ClusterSplit | None]
) -> tuple[int, ClusterSplit] | None:
    """The slot with the widest centroid separation (the first of equals)
    and its split, from per-slot lists as `slot_state` fills them. None when
    every trip is a singleton."""
    index = max(range(len(separations)), key=separations.__getitem__, default=None)
    if index is None or splits[index] is None:
        return None
    return index, splits[index]


def far_cluster(split: ClusterSplit, depot: tuple[float, float]) -> tuple[tuple[int, ...], tuple[float, float]]:
    """The cluster whose centroid lies farther from the depot; exact ties go
    to the cluster with the larger member-id sum."""
    d_a = math.dist(split.centroid_a, depot)
    d_b = math.dist(split.centroid_b, depot)
    if d_a > d_b:
        return split.members_a, split.centroid_a
    if d_b > d_a:
        return split.members_b, split.centroid_b
    if sum(split.members_a) > sum(split.members_b):
        return split.members_a, split.centroid_a
    return split.members_b, split.centroid_b


def choose_candidate_trip(
    centroids: Sequence[tuple[float, float]], target_index: int, far_centroid: tuple[float, float]
) -> int | None:
    """Slot of the non-target trip whose task centroid is nearest to the far
    cluster's centroid (the first of equals); None when there is only one
    trip. `centroids` holds each slot's trip centroid. Distances are scalar
    `math.dist`, the `math.hypot` of the coordinate differences; `np.hypot`
    may round differently in the last bit."""
    d = list(map(math.dist, centroids, itertools.repeat(far_centroid)))
    d[target_index] = math.inf
    index = min(range(len(d)), key=d.__getitem__)
    return None if d[index] == math.inf else index


def recombine(
    target_trip: Sequence[int], candidate_trip: Sequence[int], inst: Instance
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Re-split the pooled tasks of two trips by an angular sweep around the
    pool centroid, cutting at the boundary that balances the two loads.
    Boundaries where both parts fit the capacity are preferred; a pool too
    heavy for two trips is returned unchanged."""
    pool = list(target_trip) + list(candidate_trip)
    if not target_trip or not candidate_trip:
        raise ValueError("both trips must be non-empty")
    total = ordered_sum(inst.yields[t] for t in pool)
    if total > 2 * inst.capacity:
        return tuple(target_trip), tuple(candidate_trip)
    center = _centroid([inst.coords[t] for t in pool])
    swept = sorted(
        pool,
        key=lambda t: (
            math.atan2(inst.coords[t][1] - center[1], inst.coords[t][0] - center[0]),
            t,
        ),
    )
    prefix = 0.0
    feasible: list[tuple[float, int]] = []
    fallback: list[tuple[float, int]] = []
    for cut in range(1, len(swept)):
        prefix += inst.yields[swept[cut - 1]]
        first, second = prefix, total - prefix
        entry = (abs(first - second), cut)
        fallback.append(entry)
        if first <= inst.capacity and second <= inst.capacity:
            feasible.append(entry)
    _, cut = min(feasible or fallback)
    return tuple(swept[:cut]), tuple(swept[cut:])


_PHEROMONE_WEIGHT = 1.0
_HEURISTIC_WEIGHT = 2.0
_EVAPORATION = 0.1
_PHEROMONE_FLOOR = 0.01
_PHEROMONE_CEILING = 10.0


def aco_tour(
    trip_tasks: Sequence[int],
    inst: Instance,
    colony_size: int,
    iterations: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """Ant-colony reordering of one trip, scored by load-dependent energy:
    `colony_size` ants build a tour in each of `iterations` iterations.

    The incoming order seeds the incumbent, so the result is never worse
    than the input. Every constructed tour is scored in both directions:
    the travelled cycle is the same but the load profile is not, and good
    orders front-load the far tasks while the robot runs empty.

    The colony runs on local indices (0 is the depot) over Python-float
    tables made once per call: distances, yields and eta ** beta, which is
    the weight itself until the first pheromone update. Tours are priced
    with `trip_energy`'s operations in the same order. Trails are clamped as
    in MAX-MIN Ant System (Stützle & Hoos 2000) and updated only between
    iterations.
    """
    k = len(trip_tasks)
    if k == 0:
        raise ValueError("empty trip")
    if k == 1:
        return tuple(trip_tasks)
    best_energy = trip_energy(trip_tasks, inst)
    if k == 2:
        flipped = (trip_tasks[1], trip_tasks[0])
        return flipped if trip_energy(flipped, inst) < best_energy else tuple(trip_tasks)

    nodes = [0, *trip_tasks]
    dist = inst.dist[np.ix_(nodes, nodes)].tolist()
    loads = [inst.yields[t] for t in nodes]
    alpha, beta = _PHEROMONE_WEIGHT, _HEURISTIC_WEIGHT
    eta_beta = [
        [0.0 if i == j else (1.0 / max(d, 1e-12)) ** beta for j, d in enumerate(row)]
        for i, row in enumerate(dist)
    ]
    tau = [[1.0] * (k + 1) for _ in range(k + 1)]
    weight = eta_beta
    best = list(range(1, k + 1))
    for iteration in range(iterations):
        if iteration:
            _update_pheromone(tau, best)
            weight = [[t ** alpha * e for t, e in zip(ts, es)] for ts, es in zip(tau, eta_beta)]
        for _ in range(colony_size):
            current = 0
            remaining = list(range(1, k + 1))
            order: list[int] = []
            while remaining:
                # Roulette: the first task whose running weight total reaches
                # the spin. `accumulate` adds left to right, uncompensated.
                row = weight[current]
                running = list(itertools.accumulate([row[j] for j in remaining]))
                if running[-1] > 0:
                    current = remaining[bisect.bisect_left(running, rng.random() * running[-1])]
                else:
                    current = remaining[rng.randrange(len(remaining))]
                order.append(current)
                remaining.remove(current)
            for candidate in (order, order[::-1]):
                energy = _local_energy(candidate, dist, loads, inst.robot_weight)
                if energy < best_energy:
                    best_energy, best = energy, candidate
    return tuple(nodes[i] for i in best)


def _local_energy(order: list[int], dist: list[list[float]], loads: list[float], w: float) -> float:
    """`trip_energy` of a tour of local indices, without its id checks."""
    prev = order[0]
    energy = dist[0][prev] * w
    load = loads[prev]
    for nxt in order[1:]:
        energy += dist[prev][nxt] * (w + load)
        load += loads[nxt]
        prev = nxt
    return energy + dist[prev][0] * (w + load)


def _update_pheromone(tau: list[list[float]], best: list[int]) -> None:
    """Evaporate every trail, then reinforce the best tour so far."""
    decay = 1.0 - _EVAPORATION
    for row in tau:
        row[:] = [max(_PHEROMONE_FLOOR, t * decay) for t in row]
    path = [0, *best]
    for a, b in zip(path, path[1:]):
        tau[a][b] = min(_PHEROMONE_CEILING, tau[a][b] + _EVAPORATION)


def clsm_step(
    sol: GiantSolution,
    inst: Instance,
    intensity: float,
    population: int,
    rng: random.Random,
) -> GiantSolution:
    """Run ceil(trips * intensity) recombination rounds on a working list of
    trips and return the best solution seen (the input included), so energy
    never increases."""
    rounds = max(1, math.ceil(len(sol.trips) * intensity))
    best_sol = sol
    slot_memo: dict = {}
    piece_memo: dict[tuple[int, ...], tuple[float, ...]] = {}
    trips = list(sol.trips)
    pieces = [_piece_energies(trip, inst, piece_memo) for trip in trips]
    best_energy = math.fsum(itertools.chain.from_iterable(pieces))
    splits: list[ClusterSplit | None] = [None] * len(trips)
    separations = [-math.inf] * len(trips)
    centroids = [(0.0, 0.0)] * len(trips)
    stale: Sequence[int] = range(len(trips))  # refreshed when a round first reads them
    for _ in range(rounds):
        for index in stale:
            splits[index], separations[index], centroids[index] = slot_state(trips[index], inst, slot_memo)
        target = choose_target_trip(separations, splits)
        if target is None:
            break
        target_index, split = target
        _, far_c = far_cluster(split, inst.coords[0])
        candidate_index = choose_candidate_trip(centroids, target_index, far_c)
        if candidate_index is None:
            break
        stale = (target_index, candidate_index)
        recombined = recombine(trips[target_index], trips[candidate_index], inst)
        for index, tasks in zip(stale, recombined):
            iterations = max(1, math.ceil(len(tasks) * intensity))
            trips[index] = trip = aco_tour(tasks, inst, population, iterations, rng)
            pieces[index] = _piece_energies(trip, inst, piece_memo)
        energy = math.fsum(itertools.chain.from_iterable(pieces))
        if energy < best_energy:
            best_energy = energy
            best_sol = GiantSolution(trips)
    return best_sol


def _piece_energies(
    trip: tuple[int, ...], inst: Instance, memo: dict[tuple[int, ...], tuple[float, ...]]
) -> tuple[float, ...]:
    """Energies of the pieces `evaluate` charges for one trip: the trip split
    wherever a pickup would overflow the capacity."""
    energies = memo.get(trip)
    if energies is None:
        pieces, _ = expand_overloads([trip], inst)
        energies = memo[trip] = tuple(trip_energy(p, inst) for p in pieces)
    return energies
