"""Clustering-guided local search on trip structure.

Each round: find the most geometrically stretched trip (largest separation
between its two k-means centroids), pool its tasks with the trip whose
centroid sits closest to the stretched trip's far cluster, re-split the pool
by a load-balancing angular sweep, and re-optimize both new tours with an
ant colony scored by the load-dependent trip energy.

Within one `clsm_step` the solution is a list of trips, with plain lists
beside it indexed by trip slot: each trip's separation, far cluster
centroid and task centroid, the three values a round reads, and the
energies of its overload-expanded pieces. A round rewrites two slots and
refreshes only those. A round is scored as the exactly rounded sum of the
slots' piece energies, which equals a full `evaluate` bit for bit.

Most trips and colony inputs recur across the steps of a run, so a
`TripCache` that lives as long as the run holds what depends on a trip
alone: its slot state, its piece energies and the colony's tables for it.
The piece energies also price every solution the run scores, the trips a
split keeps included (`charged_energies`). Every value is a pure function of
its key, so a cached run draws the same random numbers and gives the same
answers as an uncached one.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

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


# A trip's separation, far cluster centroid (None for a singleton), centroid.
SlotState = tuple[float, tuple[float, float] | None, tuple[float, float]]

# Entries a `TripCache` holds before it starts afresh: trips, colony inputs,
# iteration levels, roulette wheels and tour energies, one each. An entry
# takes 290-315 bytes on the paper's orchards (tracemalloc, seeded runs at
# n=59 and n=965), so the cache stays below about 7 MB; a 300-evaluation
# run at n=965 fills 8,675 entries.
_TRIP_CACHE_ENTRIES = 20_000


class _Colony:
    """The tables of one `aco_tour` input that do not depend on the draws:
    the input's energy, the local distance, load and eta ** beta tables, the
    energies of complete tours, both directions, keyed by the forward tour,
    and a level per iteration reached. An iteration's pheromone is a pure
    function of the best tours at the ends of the iterations before it, so
    its level is keyed by that tuple of tours (the first's by ()) and holds
    the pheromone, the roulette weights tau ** alpha * eta ** beta and the
    wheels, keyed by the current node and the bitmask of unvisited tasks."""

    __slots__ = ("energy", "dist", "loads", "eta_beta", "tours", "levels")

    def __init__(self, trip_tasks: tuple[int, ...], inst: Instance) -> None:
        self.energy = trip_energy(trip_tasks, inst)
        nodes = [0, *trip_tasks]
        self.dist = dist = inst.dist[np.ix_(nodes, nodes)].tolist()
        self.loads = [inst.yields[t] for t in nodes]
        beta = _HEURISTIC_WEIGHT
        self.eta_beta = [
            [0.0 if i == j else (1.0 / max(d, 1e-12)) ** beta for j, d in enumerate(row)]
            for i, row in enumerate(dist)
        ]
        self.tours: dict[tuple[int, ...], tuple[float, float]] = {}
        tau = [[1.0] * len(nodes) for _ in nodes]
        self.levels: dict[tuple[tuple[int, ...], ...], tuple] = {(): (tau, self.eta_beta, {})}


class TripCache:
    """What CLSM works out for a trip or a colony input, kept for a whole
    run: slot states, piece energies and colony tables, iteration levels
    included. Each value is a pure function of its key. It holds at most
    `_TRIP_CACHE_ENTRIES` entries: when a new one would pass the bound,
    every entry goes.

    `split_tables` is the working memory of the split program
    (`evolution._resplit`), one array grown to the largest batch and reused
    by every split of the run, so the run allocates it once."""

    def __init__(self) -> None:
        self.slots: dict[tuple[int, ...], SlotState] = {}
        self.pieces: dict[tuple[int, ...], tuple[float, ...]] = {}
        self.colonies: dict[tuple[int, ...], _Colony] = {}
        self.entries = 0
        self.split_tables = np.empty(0)

    def admit(self) -> None:
        """Count one new entry, first emptying the cache when it is full. A
        colony dropped while `aco_tour` works on it serves to the end of
        that call."""
        if self.entries >= _TRIP_CACHE_ENTRIES:
            self.slots.clear()
            self.pieces.clear()
            self.colonies.clear()
            self.entries = 0
        self.entries += 1


def slot_state(trip: tuple[int, ...], inst: Instance, cache: TripCache) -> SlotState:
    """A trip's k-means separation, the centroid of its far cluster
    (`far_cluster`) and its task centroid; a singleton has separation -inf
    and no far cluster. Kept in `cache`."""
    state = cache.slots.get(trip)
    if state is None:
        points = [inst.coords[t] for t in trip]
        state = (-math.inf, None, _centroid(points))
        if len(trip) > 1:
            split = kmeans_two(points)
            state = (split.separation, far_cluster(split, trip, inst.coords[0]), state[2])
        cache.admit()
        cache.slots[trip] = state
    return state


def choose_target_trip(separations: Sequence[float]) -> int | None:
    """The slot with the widest centroid separation (the first of equals),
    from a per-slot list as `slot_state` fills it. None when every trip is a
    singleton."""
    index = max(range(len(separations)), key=separations.__getitem__, default=None)
    return None if index is None or separations[index] == -math.inf else index


def far_cluster(split: ClusterSplit, trip: Sequence[int], depot: tuple[float, float]) -> tuple[float, float]:
    """The centroid of the cluster of `split`, the k-means split of `trip`'s
    points, that lies farther from the depot; exact ties go to the cluster
    whose tasks have the larger id sum, and a tie on both to the second
    cluster (`centroid_b`)."""
    d_a = math.dist(split.centroid_a, depot)
    d_b = math.dist(split.centroid_b, depot)
    if d_a == d_b:
        d_a, d_b = (sum(trip[i] for i in members) for members in (split.members_a, split.members_b))
    return split.centroid_a if d_a > d_b else split.centroid_b


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
    cuts: list[tuple[bool, float, int]] = []  # (a part overflows, imbalance, cut)
    for cut in range(1, len(swept)):
        prefix += inst.yields[swept[cut - 1]]
        first, second = prefix, total - prefix
        cuts.append((max(first, second) > inst.capacity, abs(first - second), cut))
    _, _, cut = min(cuts)
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
    cache: TripCache | None = None,
) -> tuple[int, ...]:
    """Ant-colony reordering of one trip, scored by load-dependent energy:
    `colony_size` ants build a tour in each of `iterations` iterations.

    The incoming order seeds the incumbent, so the result is never worse
    than the input. Every constructed tour is scored in both directions:
    the travelled cycle is the same but the load profile is not, and good
    orders front-load the far tasks while the robot runs empty.

    The colony runs on local indices (0 is the depot) over Python-float
    tables kept in `cache` (a fresh one when none is given): distances,
    yields, the energies of priced tours, and each iteration's pheromone,
    weights and roulette wheels, keyed by the best tours that led to it
    (see `_Colony`), so a later iteration reached before is a lookup too.
    Tours are priced with `trip_energy`'s operations in the same order.
    Trails are clamped as in MAX-MIN Ant System (Stützle & Hoos 2000) and
    updated only between iterations.
    """
    k = len(trip_tasks)
    if k == 0:
        raise ValueError("empty trip")
    if k == 1:
        return tuple(trip_tasks)
    if k == 2:
        flipped = (trip_tasks[1], trip_tasks[0])
        keep = trip_energy(flipped, inst) >= trip_energy(trip_tasks, inst)
        return tuple(trip_tasks) if keep else flipped

    trip_tasks = tuple(trip_tasks)
    cache = TripCache() if cache is None else cache
    colony = cache.colonies.get(trip_tasks)
    if colony is None:
        colony = _Colony(trip_tasks, inst)
        cache.admit()
        cache.colonies[trip_tasks] = colony
    dist, loads, tours, w = colony.dist, colony.loads, colony.tours, inst.robot_weight
    alpha, eta_beta, levels = _PHEROMONE_WEIGHT, colony.eta_beta, colony.levels
    best_energy = colony.energy
    best = list(range(1, k + 1))
    path: tuple[tuple[int, ...], ...] = ()  # the best tour at the end of each iteration so far
    tau, weight, wheels = levels[path]
    for iteration in range(iterations):
        if iteration:
            path += (tuple(best),)
            level = levels.get(path)
            if level is None:
                tau = _updated_pheromone(tau, best)
                weight = [[t ** alpha * e for t, e in zip(ts, es)] for ts, es in zip(tau, eta_beta)]
                level = levels[path] = tau, weight, {}
                cache.admit()
            tau, weight, wheels = level
        for _ in range(colony_size):
            current = 0
            unvisited = (1 << (k + 1)) - 2  # bit j: local task j
            order: list[int] = []
            while unvisited:
                # Roulette: the first task whose running weight total reaches
                # the spin. `accumulate` adds left to right, uncompensated.
                key = unvisited * (k + 1) + current
                wheel = wheels.get(key)
                if wheel is None:
                    row = weight[current]
                    remaining = [j for j in range(1, k + 1) if unvisited >> j & 1]
                    wheel = remaining, list(itertools.accumulate([row[j] for j in remaining]))
                    cache.admit()
                    wheels[key] = wheel
                remaining, running = wheel
                if running[-1] > 0:
                    current = remaining[bisect.bisect_left(running, rng.random() * running[-1])]
                else:
                    current = remaining[rng.randrange(len(remaining))]
                order.append(current)
                unvisited ^= 1 << current
            key = tuple(order)
            priced = tours.get(key)
            if priced is None:
                priced = _local_energy(order, dist, loads, w), _local_energy(order[::-1], dist, loads, w)
                cache.admit()
                tours[key] = priced
            energy, reverse = priced
            if energy < best_energy:
                best_energy, best = energy, order
            if reverse < best_energy:
                best_energy, best = reverse, order[::-1]
    return tuple(trip_tasks[i - 1] for i in best)


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


def _updated_pheromone(tau: list[list[float]], best: list[int]) -> list[list[float]]:
    """A new table: `tau` evaporated, then the best tour so far reinforced."""
    decay = 1.0 - _EVAPORATION
    out = [[max(_PHEROMONE_FLOOR, t * decay) for t in row] for row in tau]
    path = [0, *best]
    for a, b in zip(path, path[1:]):
        out[a][b] = min(_PHEROMONE_CEILING, out[a][b] + _EVAPORATION)
    return out


def clsm_step(
    sol: GiantSolution,
    inst: Instance,
    intensity: float,
    population: int,
    rng: random.Random,
    cache: TripCache | None = None,
) -> GiantSolution:
    """Run ceil(trips * intensity) recombination rounds on a working list of
    trips and return the best solution seen (the input included), so energy
    never increases. A run passes the same `cache` to each of its steps;
    without one, the step starts a fresh one."""
    cache = TripCache() if cache is None else cache
    rounds = max(1, math.ceil(len(sol.trips) * intensity))
    best_sol = sol
    trips = list(sol.trips)
    pieces = [_piece_energies(trip, inst, cache) for trip in trips]
    best_energy = math.fsum(itertools.chain.from_iterable(pieces))
    separations = [-math.inf] * len(trips)
    fars: list[tuple[float, float] | None] = [None] * len(trips)
    centroids = [(0.0, 0.0)] * len(trips)
    stale: Sequence[int] = range(len(trips))  # refreshed when a round first reads them
    for _ in range(rounds):
        for index in stale:
            separations[index], fars[index], centroids[index] = slot_state(trips[index], inst, cache)
        target_index = choose_target_trip(separations)
        if target_index is None:
            break
        candidate_index = choose_candidate_trip(centroids, target_index, fars[target_index])
        if candidate_index is None:
            break
        stale = (target_index, candidate_index)
        recombined = recombine(trips[target_index], trips[candidate_index], inst)
        for index, tasks in zip(stale, recombined):
            iterations = max(1, math.ceil(len(tasks) * intensity))
            trips[index] = trip = aco_tour(tasks, inst, population, iterations, rng, cache)
            pieces[index] = _piece_energies(trip, inst, cache)
        energy = math.fsum(itertools.chain.from_iterable(pieces))
        if energy < best_energy:
            best_energy = energy
            best_sol = GiantSolution.trusted(tuple(trips))
    return best_sol


def charged_energies(
    trips: Iterable[tuple[int, ...]], inst: Instance, cache: TripCache
) -> list[float]:
    """The energies `evaluate` charges for a solution's trips, in order: each
    trip's piece energies, from `cache`. `expand_overloads` starts every
    trip empty, so a trip's pieces do not depend on the trips around it."""
    return [energy for trip in trips for energy in _piece_energies(trip, inst, cache)]


def _piece_energies(trip: tuple[int, ...], inst: Instance, cache: TripCache) -> tuple[float, ...]:
    """Energies of the pieces `evaluate` charges for one trip: the trip split
    wherever a pickup would overflow the capacity. Kept in `cache`."""
    energies = cache.pieces.get(trip)
    if energies is None:
        pieces, _ = expand_overloads([trip], inst)
        energies = tuple(trip_energy(p, inst) for p in pieces)
        cache.admit()
        cache.pieces[trip] = energies
    return energies
