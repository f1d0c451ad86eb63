"""Population initialization balancing depot distance against task yield.

Each individual blends two static orderings (far-from-depot first, light
tasks first) with its own weight, then builds trips greedily: the next task
is chosen by a weighted rank of proximity and remaining-capacity share, and
the trip closes when the depot is nearer than the chosen task or nothing
fits.

Construction keeps a boolean mask of unplaced task ids and scores each pick
with numpy over the feasible ids, in ascending id order. Stable sorts and a
first-minimum pick over that order break every tie toward the lower id. The
sorts run on small unsigned integer keys (`pick_keys`) that order the ids as
distance and share do, ties included, and that numpy sorts by radix in O(k).
"""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, GiantSolution, Instance

# Sorted yields y < y' with y' > fl(y * (1 + 2**-50)) give distinct shares
# fl(y / h) < fl(y' / h) at every headroom h >= y', so dividing by the
# headroom creates no tie and the dense rank of -yield sorts as -yield / h
# does. With u = 2**-53 and every quotient normal (y / h >= min yield /
# capacity, checked to round to at least 2**-1021), each rounding is
# relative u: y' > y (1 + 8u)(1 - u) > y (1 + 4u), so fl(y' / h) >=
# (y' / h)(1 - u) > (y / h)(1 + 4u)(1 - u) > (y / h)(1 + u) >= fl(y / h).
# Division rounds monotonically, so equal yields give equal shares.
_SHARE_GAP = 1 + 2**-50
_SHARE_FLOOR = 2.0**-1021
# Distance rows ranked at a time: small temporaries reuse one heap block.
_KEY_BLOCK_ROWS = 8


def dense_ranks(values: np.ndarray) -> np.ndarray:
    """Dense ranks along the last axis: the smallest value ranks 0, equal
    values share a rank and each larger distinct value ranks one higher, in
    the smallest unsigned type that holds the axis's largest index."""
    order = values.argsort(axis=-1)
    ordered = np.take_along_axis(values, order, axis=-1)
    steps = np.zeros(values.shape, np.min_scalar_type(max(values.shape[-1] - 1, 0)))
    np.cumsum(ordered[..., 1:] != ordered[..., :-1], axis=-1, dtype=steps.dtype, out=steps[..., 1:])
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=-1)
    return ranks


def pick_keys(inst: Instance) -> tuple[np.ndarray, np.ndarray | None]:
    """The sort keys of `construct_solution`'s picks: the dense ranks of each
    distance row, ranked `_KEY_BLOCK_ROWS` rows at a time, and those of
    -yield, or None where close yields could tie as shares (`_SHARE_GAP`)."""
    near = np.empty(inst.dist.shape, np.min_scalar_type(inst.n))
    for lo in range(0, len(near), _KEY_BLOCK_ROWS):
        near[lo : lo + _KEY_BLOCK_ROWS] = dense_ranks(inst.dist[lo : lo + _KEY_BLOCK_ROWS])
    ys = np.sort(inst.yields[1:])
    close = ((ys[:-1] < ys[1:]) & (ys[1:] <= ys[:-1] * _SHARE_GAP)).any()
    if close or (ys[:1] / inst.capacity < _SHARE_FLOOR).any():
        return near, None
    return near, dense_ranks(-np.asarray(inst.yields))


def composite_ranking(inst: Instance, distance_weight: float) -> tuple[int, ...]:
    """Task ids sorted by ascending blended rank of the two sort orders.

    distance_weight = 1 reproduces the distance-descending order, 0 the
    yield-ascending order. Rank positions are 1-based; ties everywhere break
    toward the lower task id.
    """
    ids = np.arange(1, inst.n + 1)
    ranks = np.arange(1.0, inst.n + 1)
    pos_d, pos_y = np.empty((2, inst.n))
    pos_d[np.lexsort((ids, -inst.dist[0, 1:]))] = ranks
    pos_y[np.lexsort((ids, inst.yields[1:]))] = ranks
    w = distance_weight
    return tuple(ids[np.lexsort((ids, w * pos_d + (1 - w) * pos_y))].tolist())


def construct_solution(
    ranking: tuple[int, ...], distance_weight: float, inst: Instance, keys: tuple | None = None
) -> GiantSolution:
    """Greedy trip construction over the ranked task list.

    Seeds each trip with the best remaining task, then repeatedly picks the
    feasible task minimizing a weighted rank of (distance to the current
    task) and (share of the remaining capacity, larger shares first). The
    trip closes when the depot is strictly nearer than the pick or nothing
    fits the remaining capacity. `keys` defaults to `pick_keys(inst)`.
    """
    w = distance_weight
    near, share = pick_keys(inst) if keys is None else keys
    yields = np.asarray(inst.yields, dtype=float)
    alive = np.ones(len(yields), dtype=bool)
    alive[0] = False
    ranks = np.arange(1.0, len(yields))
    pos_p, pos_s = np.empty((2, len(yields) - 1))
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
            by_share = share[feasible] if share is not None else -yields[feasible] / headroom
            pos_p[near[current][feasible].argsort(kind="stable")] = ranks[:k]
            pos_s[by_share.argsort(kind="stable")] = ranks[:k]
            pick = int(feasible[(w * pos_p[:k] + (1 - w) * pos_s[:k]).argmin()])
            if inst.dist[current, 0] < inst.dist[current, pick]:
                break
            trip.append(pick)
            load += inst.yields[pick]
            alive[pick] = False
            current = pick
        trips.append(trip)
    return GiantSolution(trips)


def init_population(inst: Instance, population: int) -> list[GiantSolution]:
    """One individual per weight on the arithmetic ladder 0, 1/(P-1), ..., 1,
    all from one set of `pick_keys`. Deterministic: nothing is drawn."""
    if population < 1:
        raise ConfigurationError("population must be >= 1")
    weights = [0.5] if population == 1 else [j / (population - 1) for j in range(population)]
    keys = pick_keys(inst)
    return [construct_solution(composite_ranking(inst, w), w, inst, keys) for w in weights]
