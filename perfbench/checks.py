"""Checks of a solve's output that do not use the solver's own code.

The energy model is written out again here from its definition: a robot of
weight W leaves the depot empty, picks up each task's yield, and pays
distance * (W + carried load) on every arc. When a pickup would overflow the
capacity, the robot first returns to the depot to unload and comes back out
empty. Distances are recomputed from the coordinates.
"""

from __future__ import annotations

import math
from typing import Sequence

REL_TOL = 1e-9


def split_tokens(tokens: Sequence[int]) -> list[list[int]]:
    """The trips of a giant tour: maximal runs of non-zero tokens."""
    trips: list[list[int]] = [[]]
    for t in tokens:
        if t == 0:
            trips.append([])
        else:
            trips[-1].append(t)
    return [trip for trip in trips if trip]


def charged_trips(trips: list[list[int]], yields: Sequence[float], capacity: float) -> list[list[int]]:
    """The trips actually driven once overloads force extra depot visits."""
    out: list[list[int]] = []
    for trip in trips:
        current: list[int] = []
        load = 0.0
        for t in trip:
            if current and load + yields[t] > capacity:
                out.append(current)
                current, load = [], 0.0
            current.append(t)
            load += yields[t]
        out.append(current)
    return out


def trip_energy(trip: Sequence[int], coords, yields, weight: float) -> float:
    stops = [0, *trip, 0]
    energy, load = 0.0, 0.0
    for here, there in zip(stops, stops[1:]):
        energy += math.dist(coords[here], coords[there]) * (weight + load)
        load += yields[there]
    return energy


def z_single(inst) -> float:
    """Energy of the solution that serves every task on a trip of its own.

    It depends on the instance alone, so a bound derived from it cannot move
    when the solver changes.
    """
    return math.fsum(trip_energy((t,), inst.coords, inst.yields, inst.robot_weight) for t in inst.task_ids)


def check_solve(result, inst, robots: int | None, e_max: float | None) -> list[str]:
    """Every way in which a run result is wrong; empty when it is right."""
    problems: list[str] = []
    if result.status != "ok":
        problems.append(f"status {result.status}")
    tasks = sorted(t for t in result.best.tokens if t != 0)
    if tasks != list(range(1, inst.n + 1)):
        problems.append("tasks not each served exactly once")
        return problems
    trips = charged_trips(split_tokens(result.best.tokens), inst.yields, inst.capacity)
    energies = [trip_energy(trip, inst.coords, inst.yields, inst.robot_weight) for trip in trips]
    energy = math.fsum(energies)
    if not math.isclose(result.best_energy, energy, rel_tol=REL_TOL):
        problems.append(f"best_energy {result.best_energy!r} but the reference gives {energy!r}")
    if robots is None:
        return problems
    schedule = result.schedule
    if schedule is None:
        problems.append("no schedule")
        return problems
    if len(schedule.assignment) != len(trips) or not all(0 <= r < robots for r in schedule.assignment):
        problems.append("schedule does not give every trip one of the robots")
        return problems
    per_robot = [0.0] * robots
    for robot, e in zip(schedule.assignment, energies):
        per_robot[robot] += e
    worst = max(per_robot)
    if worst > e_max * (1 + REL_TOL):
        problems.append(f"robot energy {worst!r} exceeds e_max {e_max!r}")
    return problems
