"""Problem data types and the load-dependent energy objective.

A robot of weight W carries its accumulated load, so the cost of an arc is
distance * (W + load carried on that arc). A solution is kept as its
depot-to-depot trips; its giant tour lists all task ids with 0-markers
between the trips.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class RepresentationError(ValueError):
    """Raised for malformed solutions (duplicate or unknown task ids)."""


class ConfigurationError(ValueError):
    """Raised for invalid problem data."""


_DIST_BLOCK_ROWS = 64


def _coordinate_array(coords: Sequence[tuple[float, float]]) -> np.ndarray:
    """The coordinates as an (n, 2) float array. They must hold at least the
    depot's and be finite (x, y) pairs."""
    if len(coords) < 1:
        raise ConfigurationError("need at least the depot coordinate")
    try:
        pts = np.asarray(coords, dtype=float)
    except ValueError as exc:  # ragged rows or a value that is no number
        raise ConfigurationError("coordinates must be (x, y) pairs of numbers") from exc
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigurationError(f"coordinates must be (x, y) pairs, got an array of shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ConfigurationError("coordinates must be finite")
    return pts


def build_distance_matrix(coords: Sequence[tuple[float, float]]) -> np.ndarray:
    """Full-precision Euclidean distance matrix (no rounding), index 0 = depot,
    read-only. Each entry is fl(sqrt(fl(fl(dx**2) + fl(dy**2)))), bit for
    bit what summing the squared differences over a length-2 axis gives.
    Coordinates are checked by `_coordinate_array`, and every distance must
    be finite too: points about 1e154 apart overflow. An `Instance` calls
    this on the first read of its `dist`, which `parse_instance` makes
    before it returns."""
    pts = _coordinate_array(coords)
    n = len(pts)
    x, y = np.ascontiguousarray(pts.T)
    dist = np.empty((n, n))
    # One coordinate at a time, in row blocks: dx**2 is written straight into
    # the matrix and dy**2 added from one (64, n) buffer, the only temporary.
    # Squaring a (64, n, 2) block of differences and summing its last axis
    # cost 3x as much at n=60 and 6x at n~965: numpy reduces a length-2 axis
    # with one short inner loop per pair. That sum is fl(dx**2 + dy**2), a
    # single rounding, as adding the two squares is, so every bit is the same.
    dy2 = np.empty((min(n, _DIST_BLOCK_ROWS), n))
    with np.errstate(over="ignore"):
        for lo in range(0, n, _DIST_BLOCK_ROWS):
            hi = min(lo + _DIST_BLOCK_ROWS, n)
            block, rows = dist[lo:hi], dy2[: hi - lo]
            np.subtract(x[lo:hi, None], x, out=block)
            np.square(block, out=block)
            np.subtract(y[lo:hi, None], y, out=rows)
            np.square(rows, out=rows)
            block += rows
            # Squares of finite differences are never NaN, so the largest
            # entry is inf exactly when some distance overflowed.
            if block.max() == math.inf:
                row, col = np.argwhere(block == math.inf)[0]
                raise ConfigurationError(
                    f"the distance between {_point_name(lo + row)} and {_point_name(col)} is not finite: "
                    "their coordinates are too far apart"
                )
    # x_i - x_i is +0.0, so the diagonal is already exactly zero.
    np.sqrt(dist, out=dist)
    dist.flags.writeable = False
    return dist


def _point_name(index: int) -> str:
    return "the depot" if index == 0 else f"task {index}"


class _DistanceMatrix:
    """`Instance.dist`: built by `build_distance_matrix` on the first read
    and then stored as a plain instance attribute, which later reads find
    before this descriptor. It stands in for `functools.cached_property`,
    which stores through the instance `__dict__`: on CPython 3.11 that
    doubles the cost of every later attribute read of the instance (15 -> 31
    ns, `trip_energy` +18 %, Python 3.11.7 on a 2-vCPU VM)."""

    def __get__(self, inst: Instance | None, owner: type) -> np.ndarray:
        if inst is None:
            return self
        dist = build_distance_matrix(inst.points)
        object.__setattr__(inst, "dist", dist)
        return dist


@dataclass(frozen=True)
class Instance:
    """An orchard routing problem.

    coords[0] is the depot; coords[i] and yields[i] for i >= 1 describe task i.
    yields[0] is a placeholder and must be 0. Construction checks the data in
    O(n): the coordinates must be finite (x, y) pairs, and the capacity and
    robot weight finite. `points` holds the coordinates as a read-only
    (n + 1, 2) float array, converted once. `dist`, the distance matrix,
    is built from it on its first read and kept; only then is each
    distance checked for overflow.
    `parse_instance` reads it before it returns, so a file's distances are
    built and checked at load, while a generated orchard that is only
    written out builds none.
    """

    coords: tuple[tuple[float, float], ...]
    yields: tuple[float, ...]
    capacity: float
    robot_weight: float
    name: str = "instance"
    provenance: str | None = None
    task_set: frozenset[int] = field(init=False, compare=False, repr=False)
    points: np.ndarray = field(init=False, compare=False, repr=False)
    dist = _DistanceMatrix()

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.yields):
            raise ConfigurationError("coords and yields length mismatch")
        object.__setattr__(self, "points", _coordinate_array(self.coords))
        self.points.flags.writeable = False
        if self.yields[0] != 0:
            raise ConfigurationError("depot yield slot must be 0")
        if not 0 < self.capacity < math.inf:
            raise ConfigurationError(f"capacity must be positive and finite, got {self.capacity}")
        for i, q in enumerate(self.yields[1:], start=1):
            if not 0 < q <= self.capacity:
                raise ConfigurationError(
                    f"yield of task {i} must be in (0, capacity], got {q}"
                )
        if not 0 < self.robot_weight < math.inf:
            raise ConfigurationError("robot weight must be positive and finite")
        object.__setattr__(self, "task_set", frozenset(range(1, len(self.coords))))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def task_ids(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class GiantSolution:
    """A solution as its depot-to-depot trips, in visit order, and their
    task sequence once it has been worked out.

    Empty trips are dropped, and a task id below 1 or seen twice is
    rejected. The giant tour, the task ids with a 0-marker between
    consecutive trips and no leading, trailing or doubled zeros, is derived
    on demand as `tokens`; canonical tokens and trips map one to one, and
    equality and hashing use `trips`. `from_tokens` reads a giant tour. No
    trips at all is allowed only for the degenerate zero-task instance.
    """

    trips: tuple[tuple[int, ...], ...]
    _sequence: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        trips = tuple(filter(None, (tuple(map(int, given)) for given in self.trips)))
        tasks = list(itertools.chain.from_iterable(trips))
        if tasks and (len(set(tasks)) != len(tasks) or min(tasks) < 1):
            raise RepresentationError("task ids must be distinct and at least 1")
        object.__setattr__(self, "trips", trips)

    @classmethod
    def trusted(cls, trips: tuple[tuple[int, ...], ...], sequence: tuple[int, ...] | None = None) -> "GiantSolution":
        """The solution of `trips`, a tuple of non-empty tuples of distinct
        task ids, unchecked; `sequence`, when given, is their concatenation."""
        sol = object.__new__(cls)
        object.__setattr__(sol, "trips", trips)
        object.__setattr__(sol, "_sequence", sequence)
        return sol

    @property
    def tokens(self) -> tuple[int, ...]:
        """The giant tour: the trips' task ids with a 0 between trips."""
        return tuple(itertools.chain.from_iterable((0, *trip) for trip in self.trips))[1:]

    @classmethod
    def from_tokens(cls, tokens: Iterable[int]) -> "GiantSolution":
        """The solution whose trips are the maximal 0-free runs of a giant tour."""
        return cls([tuple(run) for nonzero, run in itertools.groupby(tokens, bool) if nonzero])

    def task_sequence(self) -> tuple[int, ...]:
        """Task ids in visit order, separators stripped; worked out once."""
        if self._sequence is None:
            object.__setattr__(self, "_sequence", tuple(itertools.chain.from_iterable(self.trips)))
        return self._sequence


def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum. From Python 3.12 `sum()` compensates
    its float rounding, which would change answers that depend on it."""
    total = 0.0
    for value in values:
        total += value
    return total


def decode_trips(sol: GiantSolution) -> list[tuple[int, ...]]:
    """A copy of the solution's depot-to-depot trips, `sol.trips` as a list."""
    return list(sol.trips)


@dataclass(frozen=True)
class Trip:
    """One depot-to-depot run with its energy."""

    tasks: tuple[int, ...]
    energy: float


def trip_energy(trip_tasks: Sequence[int], inst: Instance) -> float:
    """Energy of one trip: the robot leaves empty and its load grows at
    every task, so each arc costs distance * (weight + load carried).

    Distances are read with `ndarray.item`, which returns Python floats, so
    the sum is plain float arithmetic (the same operations, in the same
    order, as on numpy scalars)."""
    if not trip_tasks:
        raise RepresentationError("empty trip")
    d = inst.dist.item
    w = inst.robot_weight
    n = inst.n
    for t in trip_tasks:
        if not 1 <= t <= n:
            raise RepresentationError(f"unknown task id {t}")
    energy = d(0, trip_tasks[0]) * w
    load = inst.yields[trip_tasks[0]]
    for prev, nxt in zip(trip_tasks, trip_tasks[1:]):
        energy += d(prev, nxt) * (w + load)
        load += inst.yields[nxt]
    energy += d(trip_tasks[-1], 0) * (w + load)
    return energy


@dataclass(frozen=True)
class Evaluation:
    """Scored solution. trips holds the trips actually charged, which may be
    finer than the decoded ones when overload forced extra depot visits."""

    energy: float
    trips: tuple[Trip, ...]
    penalized: bool


def expand_overloads(
    trips: Iterable[Sequence[int]], inst: Instance
) -> tuple[list[tuple[int, ...]], bool]:
    """Insert a depot visit before any task whose pickup would overflow the
    capacity (the robot unloads and travels back out empty). Returns the
    expanded trip list and whether any insertion happened."""
    expanded: list[tuple[int, ...]] = []
    inserted = False
    for trip in trips:
        current: list[int] = []
        load = 0.0
        for t in trip:
            if current and load + inst.yields[t] > inst.capacity:
                expanded.append(tuple(current))
                current = []
                load = 0.0
                inserted = True
            current.append(t)
            load += inst.yields[t]
        if current:
            expanded.append(tuple(current))
    return expanded, inserted


def check_cover(tasks: Sequence[int], inst: Instance) -> None:
    """Raise RepresentationError unless `tasks` lists every task id of the
    instance exactly once."""
    covered = set(tasks)
    expected = inst.task_set
    if covered != expected:
        missing = sorted(expected - covered)
        extra = sorted(covered - expected)
        raise RepresentationError(
            f"solution does not cover the task set (missing={missing}, unknown={extra})"
        )
    if len(tasks) != len(covered):
        raise RepresentationError("task ids must be distinct")


def evaluate(sol: GiantSolution, inst: Instance) -> Evaluation:
    """Total energy of a solution, applying the overload penalty expansion
    when a trip exceeds capacity. Requires every task to appear exactly once."""
    check_cover(sol.task_sequence(), inst)
    scored_tasks, penalized = expand_overloads(sol.trips, inst)
    trips = tuple(Trip(t, trip_energy(t, inst)) for t in scored_tasks)
    total = math.fsum(t.energy for t in trips)
    return Evaluation(energy=total, trips=trips, penalized=penalized)
