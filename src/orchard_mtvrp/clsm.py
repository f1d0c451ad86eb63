"""Clustering-guided local search on trip structure.

Each round: find the most geometrically stretched trip (largest separation
between its two k-means centroids), pool its tasks with the trip whose
centroid sits closest to the stretched trip's far cluster, re-split the pool
by a load-balancing angular sweep, and re-optimize both new tours with an
ant colony scored by the load-dependent trip energy.

A round rewrites only two trips, so within one `clsm_step` the solution is a
plain list of trips: a round writes its two new tours into their slots, and a
`GiantSolution` is built only for a round that beats the best so far. The
step keeps memos keyed by the trip tuple: each trip's k-means split, its
centroid and the energies of its overload-expanded pieces. Later rounds
compute these only for the two new trips, and a round is scored as the
exactly rounded sum of the memoised piece energies, which equals a full
`evaluate` bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .core import GiantSolution, Instance, evaluate, expand_overloads, trip_energy


@dataclass(frozen=True)
class ClusterSplit:
    members_a: tuple[int, ...]
    members_b: tuple[int, ...]
    centroid_a: tuple[float, float]
    centroid_b: tuple[float, float]
    separation: float


def _centroid(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    return (
        sum(p[0] for p in points) / len(points),
        sum(p[1] for p in points) / len(points),
    )


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def kmeans_two(points: Sequence[tuple[float, float]]) -> ClusterSplit:
    """Lloyd's algorithm with k=2, seeded at the two mutually farthest points
    (deterministic). Members are indices into `points`."""
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    n = len(points)
    seed_a, seed_b, best_d = 0, 1, -1.0
    for i in range(n):
        for j in range(i + 1, n):
            d = _dist(points[i], points[j])
            if d > best_d:
                seed_a, seed_b, best_d = i, j, d
    c_a, c_b = points[seed_a], points[seed_b]
    assign = [-1] * n
    for _ in range(100):
        new_assign = [0 if _dist(p, c_a) <= _dist(p, c_b) else 1 for p in points]
        for cluster in (0, 1):
            if cluster not in new_assign:
                other = [i for i in range(n) if new_assign[i] == 1 - cluster]
                anchor = c_a if cluster == 1 else c_b
                stray = max(other, key=lambda i: (_dist(points[i], anchor), i))
                new_assign[stray] = cluster
        if new_assign == assign:
            break
        assign = new_assign
        c_a = _centroid([points[i] for i in range(n) if assign[i] == 0])
        c_b = _centroid([points[i] for i in range(n) if assign[i] == 1])
    members_a = tuple(i for i in range(n) if assign[i] == 0)
    members_b = tuple(i for i in range(n) if assign[i] == 1)
    return ClusterSplit(members_a, members_b, c_a, c_b, _dist(c_a, c_b))


def choose_target_trip(
    trips: Sequence[tuple[int, ...]],
    inst: Instance,
    splits: dict[tuple[int, ...], ClusterSplit] | None = None,
) -> tuple[int, ClusterSplit] | None:
    """The multi-task trip with the widest centroid separation, with the
    split remapped onto task ids. None when every trip is a singleton.

    `splits` maps a trip tuple to its remapped split; missing trips are
    clustered and added, so a memo shared across calls clusters each trip
    once."""
    if splits is None:
        splits = {}
    best: tuple[int, ClusterSplit] | None = None
    for index, trip in enumerate(trips):
        if len(trip) < 2:
            continue
        remapped = splits.get(trip)
        if remapped is None:
            split = kmeans_two([inst.coords[t] for t in trip])
            remapped = splits[trip] = ClusterSplit(
                tuple(trip[i] for i in split.members_a),
                tuple(trip[i] for i in split.members_b),
                split.centroid_a,
                split.centroid_b,
                split.separation,
            )
        if best is None or remapped.separation > best[1].separation:
            best = (index, remapped)
    return best


def far_cluster(split: ClusterSplit, depot: tuple[float, float]) -> tuple[tuple[int, ...], tuple[float, float]]:
    """The cluster whose centroid lies farther from the depot; exact ties go
    to the cluster with the larger member-id sum."""
    d_a = _dist(split.centroid_a, depot)
    d_b = _dist(split.centroid_b, depot)
    if d_a > d_b:
        return split.members_a, split.centroid_a
    if d_b > d_a:
        return split.members_b, split.centroid_b
    if sum(split.members_a) > sum(split.members_b):
        return split.members_a, split.centroid_a
    return split.members_b, split.centroid_b


def choose_candidate_trip(
    trips: Sequence[tuple[int, ...]],
    target_index: int,
    far_centroid: tuple[float, float],
    inst: Instance,
    centroids: dict[tuple[int, ...], tuple[float, float]] | None = None,
) -> int | None:
    """Index of the non-target trip whose task centroid is nearest to the far
    cluster's centroid; None when there is only one trip. `centroids` maps a
    trip tuple to its task centroid and is filled as trips are seen."""
    if centroids is None:
        centroids = {}
    best_index: int | None = None
    best_d = math.inf
    for index, trip in enumerate(trips):
        if index == target_index:
            continue
        centroid = centroids.get(trip)
        if centroid is None:
            centroid = centroids[trip] = _centroid([inst.coords[t] for t in trip])
        d = _dist(centroid, far_centroid)
        if d < best_d:
            best_index, best_d = index, d
    return best_index


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
    total = sum(inst.yields[t] for t in pool)
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


@dataclass(frozen=True)
class AcoParams:
    colony_size: int = 10
    iterations: int = 50


def aco_tour(
    trip_tasks: Sequence[int],
    inst: Instance,
    params: AcoParams,
    rng: random.Random,
) -> tuple[int, ...]:
    """Ant-colony reordering of one trip, scored by load-dependent energy.

    The incoming order seeds the incumbent, so the result is never worse
    than the input. Every constructed tour is scored in both directions:
    the travelled cycle is the same but the load profile is not, and good
    orders front-load the far tasks while the robot runs empty.
    """
    k = len(trip_tasks)
    if k == 0:
        raise ValueError("empty trip")
    if k == 1:
        return tuple(trip_tasks)
    best_order = tuple(trip_tasks)
    best_energy = trip_energy(best_order, inst)
    if k == 2:
        flipped = (trip_tasks[1], trip_tasks[0])
        flipped_energy = trip_energy(flipped, inst)
        return flipped if flipped_energy < best_energy else best_order

    nodes = [0] + list(trip_tasks)  # local index 0 = depot
    eta = [
        [
            0.0 if i == j else 1.0 / max(inst.dist[nodes[i], nodes[j]], 1e-12)
            for j in range(k + 1)
        ]
        for i in range(k + 1)
    ]
    tau = [[1.0] * (k + 1) for _ in range(k + 1)]
    alpha, beta = _PHEROMONE_WEIGHT, _HEURISTIC_WEIGHT

    for _ in range(params.iterations):
        for _ in range(params.colony_size):
            current = 0
            remaining = list(range(1, k + 1))
            order: list[int] = []
            while remaining:
                weights = [
                    (tau[current][j] ** alpha) * (eta[current][j] ** beta)
                    for j in remaining
                ]
                pick = _roulette(remaining, weights, rng)
                order.append(pick)
                remaining.remove(pick)
                current = pick
            constructed = tuple(nodes[i] for i in order)
            for candidate in (constructed, constructed[::-1]):
                energy = trip_energy(candidate, inst)
                if energy < best_energy:
                    best_energy = energy
                    best_order = candidate
        decay = 1.0 - _EVAPORATION
        for i in range(k + 1):
            for j in range(k + 1):
                tau[i][j] = max(_PHEROMONE_FLOOR, tau[i][j] * decay)
        index_of = {t: i + 1 for i, t in enumerate(trip_tasks)}
        path = [0] + [index_of[t] for t in best_order]
        for a, b in zip(path, path[1:]):
            tau[a][b] = min(_PHEROMONE_CEILING, tau[a][b] + _EVAPORATION)
    return best_order


def _roulette(items: list[int], weights: list[float], rng: random.Random) -> int:
    total = sum(weights)
    if total <= 0:
        return items[rng.randrange(len(items))]
    spin = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if spin <= acc:
            return item
    return items[-1]


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
    best_energy = evaluate(sol, inst).energy
    splits: dict[tuple[int, ...], ClusterSplit] = {}
    centroids: dict[tuple[int, ...], tuple[float, float]] = {}
    piece_energies: dict[tuple[int, ...], tuple[float, ...]] = {}
    trips = list(sol.trips)
    for _ in range(rounds):
        target = choose_target_trip(trips, inst, splits)
        if target is None:
            break
        target_index, split = target
        _, far_c = far_cluster(split, inst.coords[0])
        candidate_index = choose_candidate_trip(trips, target_index, far_c, inst, centroids)
        if candidate_index is None:
            break
        recombined = recombine(trips[target_index], trips[candidate_index], inst)
        for index, tasks in zip((target_index, candidate_index), recombined):
            params = AcoParams(population, max(1, math.ceil(len(tasks) * intensity)))
            trips[index] = aco_tour(tasks, inst, params, rng)
        energy = math.fsum(
            e for trip in trips for e in _piece_energies(trip, inst, piece_energies)
        )
        if energy < best_energy:
            best_energy = energy
            best_sol = GiantSolution.from_trips(trips)
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
