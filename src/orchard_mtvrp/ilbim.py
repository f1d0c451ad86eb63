"""Population initialization balancing depot distance against task yield.

Each individual blends two static orderings (far-from-depot first, light
tasks first) with its own weight, then builds trips greedily: the next task
is chosen by a weighted rank of proximity and remaining-capacity share, and
the trip closes when the depot is nearer than the chosen task or nothing
fits.

Construction keeps a boolean mask of unplaced task ids and scores each pick
with numpy over the feasible ids, in ascending id order. Stable sorts and a
first-minimum pick over that order break every tie toward the lower id, so a
pick costs O(n log n) in numpy rather than in Python, and no n x n table is
built.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, GiantSolution, Instance


def composite_ranking(inst: Instance, distance_weight: float) -> tuple[int, ...]:
    """Task ids sorted by ascending blended rank of the two sort orders.

    distance_weight = 1 reproduces the distance-descending order, 0 the
    yield-ascending order. Rank positions are 1-based; ties everywhere break
    toward the lower task id.
    """
    tasks = list(inst.task_ids)
    by_distance = sorted(tasks, key=lambda t: (-inst.dist[0, t], t))
    by_yield = sorted(tasks, key=lambda t: (inst.yields[t], t))
    pos_d = {t: i for i, t in enumerate(by_distance, start=1)}
    pos_y = {t: i for i, t in enumerate(by_yield, start=1)}
    w = distance_weight
    blended = sorted(tasks, key=lambda t: (w * pos_d[t] + (1 - w) * pos_y[t], t))
    return tuple(blended)


def construct_solution(
    ranking: tuple[int, ...], distance_weight: float, inst: Instance
) -> GiantSolution:
    """Greedy trip construction over the ranked task list.

    Seeds each trip with the best remaining task, then repeatedly picks the
    feasible task minimizing a weighted rank of (distance to the current
    task) and (share of the remaining capacity, larger shares first). The
    trip closes when the depot is strictly nearer than the pick or nothing
    fits the remaining capacity.
    """
    w = distance_weight
    dist = inst.dist
    yields = np.asarray(inst.yields, dtype=float)
    alive = np.ones(len(yields), dtype=bool)
    alive[0] = False
    ranks = np.arange(1.0, len(yields))
    pos_p = np.empty(len(yields) - 1)
    pos_s = np.empty(len(yields) - 1)
    trips: list[list[int]] = []
    for current in ranking:
        if not alive[current]:
            continue
        alive[current] = False
        trip = [current]
        load = inst.yields[current]
        while True:
            headroom = inst.capacity - load
            feasible = (alive & (yields <= headroom)).nonzero()[0]
            k = feasible.size
            if k == 0:
                break
            # 1-based rank positions; stable sorts over ascending ids break
            # ties toward the lower id, as argmin does for the blended rank.
            pos_p[dist[current, feasible].argsort(kind="stable")] = ranks[:k]
            pos_s[(-yields[feasible] / headroom).argsort(kind="stable")] = ranks[:k]
            pick = int(feasible[(w * pos_p[:k] + (1 - w) * pos_s[:k]).argmin()])
            if dist[current, 0] < dist[current, pick]:
                break
            trip.append(pick)
            load += inst.yields[pick]
            alive[pick] = False
            current = pick
        trips.append(trip)
    return GiantSolution(trips)


def init_population(inst: Instance, population: int) -> list[GiantSolution]:
    """One individual per weight on the arithmetic ladder 0, 1/(P-1), ..., 1.

    Deterministic: no randomness anywhere in the construction.
    """
    if population < 1:
        raise ConfigurationError("population must be >= 1")
    if population == 1:
        weights = [0.5]
    else:
        weights = [j / (population - 1) for j in range(population)]
    out = []
    for w in weights:
        ranking = composite_ranking(inst, w)
        out.append(construct_solution(ranking, w, inst))
    return out
