"""Per-kernel timings on pytest-benchmark.

Outside the default test paths, so the test suite does not run them. Run:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

The instances are generated from fixed seeds: n=59 (`side 20, 100 trees,
maturity 0.6, seed 42`) and n=965 (`side 70, 1225 trees, maturity 0.8,
seed 1`, the largest maturity-0.8 size of the paper18 suite).
`makespan_assign`, `repair` and Fr1 scoring run at n=59 with 8 robots and
e_max = 0.55 * Z_single / 8, the bound of perfbench's `sched-n60-fr1`
workload, where Z_single is the energy of serving every task on a trip of
its own.
"""

from __future__ import annotations

import functools
import math
import random

import pytest

from orchard_mtvrp import scheduler
from orchard_mtvrp.clsm import aco_tour, clsm_step
from orchard_mtvrp.core import GiantSolution, evaluate, trip_energy
from orchard_mtvrp.evolution import SolverConfig, _resplit, mutate
from orchard_mtvrp.ilbim import init_population
from orchard_mtvrp.instances import OrchardSpec, generate_orchard
from orchard_mtvrp.scheduler import Framework, RepairStatus, repair, score_with_framework

SPECS = {
    "n59": OrchardSpec(20, 100, 0.6, seed=42),
    "n965": OrchardSpec(70, 1225, 0.8, seed=1),
}
ROBOTS = 8
# Inputs at the sched-n60-fr1 bound, by how `repair` ends on them: the last
# ILBIM individual fits as it is; its mutant under seed 15 fits after six
# split moves; the first ILBIM individual fits under no split.
REPAIR_CASES = {
    "fits": RepairStatus.REPAIRED,
    "split": RepairStatus.REPAIRED,
    "infeasible": RepairStatus.INFEASIBLE,
}
# Inputs at the sched-n60-fr1 bound, by the step of `makespan_assign` that
# decides them, with whether it finds an assignment: the trips of the last
# ILBIM individual fit first-fit-decreasing; those of the one before fail
# the L2 bound; its mutant under seed 1058 has 14 trips, which exact search
# proves unassignable. Above 22 trips, 23 trips of 0.34 e_max each pass the
# L2 bound, which counts only their volume (7.82 robots), but any three
# exceed e_max, so all 200 first-fit restarts fail.
MAKESPAN_CASES = {"ffd": True, "l2": False, "exact": False, "fallback": False}


@functools.cache
def _orchard(name):
    return generate_orchard(SPECS[name])


@functools.cache
def _population(inst):
    return init_population(inst, SolverConfig().population)


@functools.cache
def _bound():
    inst = _orchard("n59")
    return 0.55 * math.fsum(trip_energy((t,), inst) for t in inst.task_ids) / ROBOTS


@pytest.fixture(scope="module", params=list(SPECS))
def instance(request):
    return _orchard(request.param)


def _shuffled_tasks(inst):
    perm = list(inst.task_ids)
    random.Random(0).shuffle(perm)
    return perm


def test_resplit(benchmark, instance):
    perm = _shuffled_tasks(instance)
    sol = benchmark(_resplit, perm, instance)
    assert sol.task_sequence() == tuple(perm)


def test_giant_solution_from_resplit_trips(benchmark, instance):
    trips = list(_resplit(_shuffled_tasks(instance), instance).trips)
    sol = benchmark(GiantSolution, trips)
    assert sol.trips == tuple(trips)


def test_evaluate(benchmark, instance):
    """The first ILBIM individual."""
    sol = _population(instance)[0]
    assert benchmark(evaluate, sol, instance).energy > 0


def test_init_population_n965(benchmark):
    inst = _orchard("n965")
    pop = benchmark(init_population, inst, SolverConfig().population)
    assert pop == _population(inst)


def test_trip_energy_six_tasks(benchmark):
    inst = generate_orchard(SPECS["n59"])
    trip = tuple(random.Random(1).sample(list(inst.task_ids), 6))
    assert benchmark(trip_energy, trip, inst) > 0


@pytest.mark.parametrize("iterations", [1, 5])
@pytest.mark.parametrize("tasks", [3, 6])
def test_aco_tour(benchmark, tasks, iterations):
    inst = _orchard("n965")
    trip = tuple(random.Random(tasks).sample(list(inst.task_ids), tasks))
    out = benchmark(aco_tour, trip, inst, SolverConfig().population, iterations, random.Random(0))
    assert trip_energy(out, inst) <= trip_energy(trip, inst)


def test_clsm_step(benchmark, instance):
    """One local-search step with the solver's default settings, from the
    first ILBIM individual."""
    cfg = SolverConfig()
    sol = _population(instance)[0]
    rng = random.Random(0)
    out = benchmark(clsm_step, sol, instance, cfg.intensity, cfg.population, rng)
    assert evaluate(out, instance).energy <= evaluate(sol, instance).energy


def _makespan_input(case):
    if case == "fallback":
        return [0.34 * _bound()] * 23
    inst = _orchard("n59")
    pop = _population(inst)
    sol = {
        "ffd": pop[-1],
        "l2": pop[-2],
        "exact": mutate(pop[-2], inst, random.Random(1058), 1.0),
    }[case]
    return [trip.energy for trip in evaluate(sol, inst).trips]


def _deciding_step(energies, m, e_max):
    """The step of `makespan_assign` that decides an input which passes its
    maximum and sum checks and has more trips than robots."""
    assert max(energies) <= e_max and sum(energies) <= m * e_max and len(energies) > m
    order = sorted(range(len(energies)), key=lambda i: (-energies[i], i))
    if scheduler._first_fit(order, energies, m, e_max) is not None:
        return "ffd"
    if scheduler._robots_lower_bound(energies, e_max) > m:
        return "l2"
    return "exact" if len(energies) <= scheduler.EXACT_TRIP_LIMIT else "fallback"


@pytest.mark.parametrize("case", list(MAKESPAN_CASES))
def test_makespan_assign(benchmark, case):
    energies = _makespan_input(case)
    assert _deciding_step(energies, ROBOTS, _bound()) == case
    out = benchmark(scheduler.makespan_assign, energies, ROBOTS, _bound())
    assert (out is not None) == MAKESPAN_CASES[case]


@functools.cache
def _fr1_input(case):
    inst = _orchard("n59")
    pop = _population(inst)
    sol = {
        "fits": pop[-1],
        "split": mutate(pop[-1], inst, random.Random(15), 1.0),
        "infeasible": pop[0],
    }[case]
    return sol, inst, ROBOTS, _bound()


@pytest.mark.parametrize("case", list(REPAIR_CASES))
def test_repair(benchmark, case):
    out, status = benchmark(repair, *_fr1_input(case))
    assert status is REPAIR_CASES[case]
    assert (out.schedule is None) == (status is RepairStatus.INFEASIBLE)


@pytest.mark.parametrize("case", list(REPAIR_CASES))
def test_score_with_framework_fr1(benchmark, case):
    out = benchmark(score_with_framework, *_fr1_input(case), Framework.FR1)
    assert (out.energy == math.inf) == (REPAIR_CASES[case] is RepairStatus.INFEASIBLE)
