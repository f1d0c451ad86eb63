"""Per-kernel timings on pytest-benchmark.

Outside the default test paths, so the test suite does not run them. Run:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

The instances are generated from fixed seeds: n=59 (`side 20, 100 trees,
maturity 0.6, seed 42`) and n=965 (`side 70, 1225 trees, maturity 0.8,
seed 1`, the largest maturity-0.8 size of the paper18 suite).
The split runs on a batch of one shuffled task order and on a batch of the
eight mutants of one ILBIM individual, as a generation splits its
offspring. It and every other scored solution price their trips with
`charged_energies` from a trip cache; both are checked against `evaluate`'s
energies. The split, the cached pricing, the ant colony and the CLSM step
run cold, on a trip cache of their own, and warm, on one that earlier calls
from the same input filled, as the steps of a run fill the run's cache.
CLSM's slot states (k-means and far cluster per trip) run cold, and its
sweep re-split on the pools that one seeded step hands it.
Instance set-up is timed as the distance matrix alone, at both sizes, as an
n=965 orchard generated and written out, which builds no matrix, and as the
parse of that file, which builds the `Instance` and its matrix; ILBIM's ten
composite rankings at n=965 are timed on their own.
`makespan_assign`, `repair` and Fr1 scoring run at n=59 with 8 robots and
e_max = 0.55 * Z_single / 8, the bound of perfbench's `sched-n60-fr1`
workload, where Z_single is the energy of serving every task on a trip of
its own; `repair` and Fr1 scoring also run at n=965, with 8 robots at
0.395 * Z_single / 8 and with 150 robots at 0.5854 * Z_single / 150, and
`makespan_assign` gives up on an n=965 input with 100 robots, one that a
run captured. They are handed the energies, as a run hands them over.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from orchard_mtvrp import clsm, scheduler
from orchard_mtvrp.clsm import TripCache, aco_tour, charged_energies, clsm_step, kmeans_two, recombine, slot_state
from orchard_mtvrp.core import GiantSolution, build_distance_matrix, evaluate, trip_energy
from orchard_mtvrp.evolution import SolverConfig, _resplit, mutate
from orchard_mtvrp.ilbim import composite_ranking, init_population, pick_keys
from orchard_mtvrp.instances import OrchardSpec, emit_instance, generate_orchard, parse_instance
from orchard_mtvrp.scheduler import Framework, RepairStatus, repair, score_with_framework

SPECS = {
    "n59": OrchardSpec(20, 100, 0.6, seed=42),
    "n965": OrchardSpec(70, 1225, 0.8, seed=1),
}
ROBOTS = 8
# sha256 of repr([sol.trips for sol in pop]) for each orchard's ILBIM
# population, as recorded with float sort keys.
POPULATION_SHA256 = {
    "n59": "75f79f127bd84f6d4bb3b402fac54a592c5893799842b1a5d07ccff351c514c4",
    "n965": "31e326ec3e81f01058b97be384131fd5779258e60efaf6b1bdd727e464ab2e7a",
}
# Inputs by how `repair` ends on them. At the sched-n60-fr1 bound: the last
# ILBIM individual fits as it is; its mutant under seed 15 fits after six
# split moves; the first ILBIM individual fits under no split. At n=965, the
# paper-scale bounded runs: ILBIM individual 3 with 8 robots at 0.395 of
# Z_single / 8 fits under no split, as every repair of that run fails, and
# individual 2 with 150 robots at 0.5854 of Z_single / 150 (1.5 z / m, z the
# unbounded best) fits after a long walk of cuts.
REPAIR_CASES = {
    "fits": RepairStatus.REPAIRED,
    "split": RepairStatus.REPAIRED,
    "infeasible": RepairStatus.INFEASIBLE,
    "n965-m8": RepairStatus.INFEASIBLE,
    "n965-m150": RepairStatus.REPAIRED,
}
# Inputs by the step of `makespan_assign` that decides them, with whether it
# finds an assignment. At the sched-n60-fr1 bound: the trips of the last
# ILBIM individual fit first-fit-decreasing; those of the one before fail
# the L2 bound; its mutant under seed 1058 has 14 trips, which exact search
# proves unassignable. Above 22 trips the search runs under its step budget:
# 23 trips of 0.34 e_max each pass the L2 bound, which counts only their
# volume (7.82 robots), but any three exceed e_max, which the search proves
# in 45 steps. The give-up is the 336-trip input of
# `tests/fixtures/search_above_limit.json` (100 robots, n=965), on which the
# search uses its whole budget.
MAKESPAN_CASES = {
    "ffd": ("ffd", True),
    "l2": ("l2", False),
    "exact": ("exact", False),
    "fallback": ("budgeted", False),
    "giveup": ("budgeted", False),
}
SEARCH_FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "search_above_limit.json"


@functools.cache
def _orchard(name):
    return generate_orchard(SPECS[name])


@functools.cache
def _population(inst):
    return init_population(inst, SolverConfig().population)


@functools.cache
def _bound(name="n59", share=0.55, robots=ROBOTS):
    """share * Z_single / robots on the named orchard."""
    inst = _orchard(name)
    return share * math.fsum(trip_energy((t,), inst) for t in inst.task_ids) / robots


@pytest.fixture(scope="module", params=list(SPECS))
def instance(request):
    return _orchard(request.param)


def _charged(sol, inst):
    """The energies `evaluate` charges for the trips of `sol`."""
    return [trip.energy for trip in evaluate(sol, inst).trips]


def _shuffled_tasks(inst):
    perm = list(inst.task_ids)
    random.Random(0).shuffle(perm)
    return perm


def _split_batch(inst, size):
    """A shuffled task order alone, or the mutants of the first ILBIM
    individual, one per seed, as a generation hands its offspring over."""
    if size == 1:
        return [_shuffled_tasks(inst)]
    sequence = _population(inst)[0].task_sequence()
    return [mutate(sequence, random.Random(seed), 1.0) for seed in range(size)]


def _check_splits(perms, splits, inst):
    assert len(splits) == len(perms)
    for perm, (sol, energies) in zip(perms, splits):
        assert sol.task_sequence() == tuple(perm)
        assert energies == _charged(sol, inst)


@pytest.mark.parametrize("size", [1, 8])
def test_resplit(benchmark, instance, size):
    """The priced splits of a batch, on a trip cache of their own at each
    call."""
    perms = _split_batch(instance, size)
    _check_splits(perms, benchmark(_resplit, perms, instance), instance)


@pytest.mark.parametrize("size", [1, 8])
def test_resplit_warm(benchmark, instance, size):
    """The same on a cache that holds the kept trips' energies, as a run's
    cache holds the trips it has seen."""
    perms = _split_batch(instance, size)
    cache = TripCache()
    _resplit(perms, instance, math.inf, cache)
    _check_splits(perms, benchmark(_resplit, perms, instance, math.inf, cache), instance)


def test_giant_solution_from_resplit_trips(benchmark, instance):
    trips = list(_resplit([_shuffled_tasks(instance)], instance)[0][0].trips)
    sol = benchmark(GiantSolution, trips)
    assert sol.trips == tuple(trips)


def test_evaluate(benchmark, instance):
    """The first ILBIM individual."""
    sol = _population(instance)[0]
    assert benchmark(evaluate, sol, instance).energy > 0


def test_charged_energies(benchmark, instance):
    """The first ILBIM individual priced on a trip cache of its own."""
    sol = _population(instance)[0]
    energies = benchmark(lambda: charged_energies(sol.trips, instance, TripCache()))
    assert energies == _charged(sol, instance)


def test_charged_energies_warm(benchmark, instance):
    """The same on a cache that holds every trip's piece energies, as a run's
    cache holds the trips it has seen."""
    sol = _population(instance)[0]
    cache = TripCache()
    charged_energies(sol.trips, instance, cache)
    assert benchmark(charged_energies, sol.trips, instance, cache) == _charged(sol, instance)


@pytest.mark.parametrize("name", list(SPECS))
def test_init_population(benchmark, name):
    """The ten ILBIM individuals, their pick keys built once for all."""
    pop = benchmark(init_population, _orchard(name), SolverConfig().population)
    assert hashlib.sha256(repr([sol.trips for sol in pop]).encode()).hexdigest() == POPULATION_SHA256[name]


def test_build_distance_matrix(benchmark, instance):
    dist = benchmark(build_distance_matrix, instance.coords)
    assert np.array_equal(dist, instance.dist) and not dist.flags.writeable


def test_parse_instance_n965(benchmark):
    """An n=965 instance file read back, its distance matrix included."""
    inst = _orchard("n965")
    parsed = benchmark(parse_instance, emit_instance(inst))
    assert parsed.coords == inst.coords and parsed.yields == inst.yields
    assert np.array_equal(parsed.dist, inst.dist)


def test_generate_and_emit_n965(benchmark):
    """The n=965 orchard generated and written out as `gen` writes it, with
    no distance matrix built."""
    text = benchmark(lambda: emit_instance(generate_orchard(SPECS["n965"])))
    assert parse_instance(text).coords == _orchard("n965").coords


def test_composite_ranking_n965(benchmark):
    """The rankings of the ten ILBIM weights: w = 1 orders the tasks by
    descending depot distance, w = 0 by ascending yield."""
    inst = _orchard("n965")
    weights = [j / 9 for j in range(10)]
    rankings = benchmark(lambda: [composite_ranking(inst, w) for w in weights])
    assert all(sorted(ranking) == list(inst.task_ids) for ranking in rankings)
    assert np.all(np.diff(inst.dist[0, list(rankings[-1])]) <= 0)
    assert np.all(np.diff(np.asarray(inst.yields)[list(rankings[0])]) >= 0)


def test_pick_keys_n965(benchmark):
    """ILBIM's pick keys: the dense ranks of every distance row and of the
    negated yields."""
    inst = _orchard("n965")
    near, share = benchmark(pick_keys, inst)
    assert near.dtype == np.uint16 and near.shape == inst.dist.shape and share is not None


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


def _slot_states(trips, inst):
    cache = TripCache()
    return [slot_state(trip, inst, cache) for trip in trips]


def test_slot_state(benchmark, instance):
    """The slot states of the first ILBIM individual's trips, on a trip
    cache of its own at each call."""
    trips = _population(instance)[0].trips
    states = benchmark(_slot_states, trips, instance)
    separations = [kmeans_two([instance.coords[t] for t in trip]).separation if len(trip) > 1 else -math.inf
                   for trip in trips]
    assert [separation for separation, _, _ in states] == separations


@functools.cache
def _pools(inst):
    """The (target, candidate) trip pairs one seeded `clsm_step` from the
    first ILBIM individual hands to `recombine`, with what it got back."""
    cfg = SolverConfig()
    pools = []

    def recording(target, candidate, inst):
        pools.append(((target, candidate), recombine(target, candidate, inst)))
        return pools[-1][1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(clsm, "recombine", recording)
        clsm_step(_population(inst)[0], inst, cfg.intensity, cfg.population, random.Random(0))
    return pools


def test_recombine(benchmark, instance):
    """The sweep re-split of every pool of one seeded step."""
    pools = _pools(instance)
    out = benchmark(lambda: [recombine(target, candidate, instance) for (target, candidate), _ in pools])
    assert out == [split for _, split in pools] and len(out) > 1


def _warm_cache(call, seeds=range(1, 21)):
    """A trip cache filled by `call(rng, cache)` under each seed."""
    cache = TripCache()
    for seed in seeds:
        call(random.Random(seed), cache)
    return cache


@pytest.mark.parametrize("iterations", [1, 5])
@pytest.mark.parametrize("tasks", [3, 6])
def test_aco_tour_warm(benchmark, tasks, iterations):
    """`aco_tour` on a cache that holds its input's colony tables."""
    inst = _orchard("n965")
    trip = tuple(random.Random(tasks).sample(list(inst.task_ids), tasks))
    tour = functools.partial(aco_tour, trip, inst, SolverConfig().population, iterations)
    cache = _warm_cache(tour)
    assert tour(random.Random(0), cache) == tour(random.Random(0))
    out = benchmark(tour, random.Random(0), cache)
    assert trip_energy(out, inst) <= trip_energy(trip, inst)


def test_clsm_step_warm(benchmark, instance):
    """The step of `test_clsm_step` on a cache that earlier steps from the
    same individual filled."""
    cfg = SolverConfig()
    sol = _population(instance)[0]
    step = functools.partial(clsm_step, sol, instance, cfg.intensity, cfg.population)
    cache = _warm_cache(step, range(1, 4))
    assert step(random.Random(0), cache) == step(random.Random(0))
    out = benchmark(step, random.Random(0), cache)
    assert evaluate(out, instance).energy <= evaluate(sol, instance).energy


def _mutant(sol, inst, seed):
    """The split of the solution's task order after one mutation drawn
    from `seed`."""
    return _resplit([mutate(sol.task_sequence(), random.Random(seed), 1.0)], inst)[0][0]


def _makespan_args(case):
    """(energies, robots, e_max) of a `MAKESPAN_CASES` input."""
    if case == "giveup":
        fixture = json.loads(SEARCH_FIXTURE.read_text())["giveup"]
        energies = [float.fromhex(e) for e in fixture["energies"]]
        return energies, fixture["robots"], float.fromhex(fixture["e_max"])
    return _makespan_input(case), ROBOTS, _bound()


def _makespan_input(case):
    if case == "fallback":
        return [0.34 * _bound()] * 23
    inst = _orchard("n59")
    pop = _population(inst)
    sol = {
        "ffd": pop[-1],
        "l2": pop[-2],
        "exact": _mutant(pop[-2], inst, 1058),
    }[case]
    return _charged(sol, inst)


def _deciding_step(energies, m, e_max):
    """The step of `makespan_assign` that decides an input which passes its
    maximum and sum checks and has more trips than robots."""
    assert max(energies) <= e_max and sum(energies) <= m * e_max and len(energies) > m
    order = sorted(range(len(energies)), key=lambda i: (-energies[i], i))
    if scheduler._first_fit(order, energies, m, e_max) is not None:
        return "ffd"
    if scheduler._robots_lower_bound(energies, e_max) > m:
        return "l2"
    return "exact" if len(energies) <= scheduler.EXACT_TRIP_LIMIT else "budgeted"


@pytest.mark.parametrize("case", list(MAKESPAN_CASES))
def test_makespan_assign(benchmark, case):
    energies, robots, e_max = _makespan_args(case)
    step, found = MAKESPAN_CASES[case]
    assert _deciding_step(energies, robots, e_max) == step
    out = benchmark(scheduler.makespan_assign, energies, robots, e_max)
    assert (out is not None) == found


@functools.cache
def _fr1_input(case):
    if case.startswith("n965"):
        index, robots, share = {"n965-m8": (3, 8, 0.395), "n965-m150": (2, 150, 0.5854)}[case]
        inst = _orchard("n965")
        return _population(inst)[index], inst, robots, _bound("n965", share, robots)
    inst = _orchard("n59")
    pop = _population(inst)
    sol = {
        "fits": pop[-1],
        "split": _mutant(pop[-1], inst, 15),
        "infeasible": pop[0],
    }[case]
    return sol, inst, ROBOTS, _bound()


@pytest.mark.parametrize("case", list(REPAIR_CASES))
def test_repair(benchmark, case):
    sol, inst, m, e_max = _fr1_input(case)
    out, status = benchmark(repair, sol, inst, m, e_max, _charged(sol, inst))
    assert status is REPAIR_CASES[case]
    assert (out.schedule is None) == (status is RepairStatus.INFEASIBLE)


@pytest.mark.parametrize("case", list(REPAIR_CASES))
def test_score_with_framework_fr1(benchmark, case):
    sol, inst, m, e_max = _fr1_input(case)
    out = benchmark(score_with_framework, sol, inst, m, e_max, Framework.FR1, _charged(sol, inst))
    assert (out.energy == math.inf) == (REPAIR_CASES[case] is RepairStatus.INFEASIBLE)


def test_score_split_fr1(benchmark):
    """Fr1 scoring of a split, from the energies the split priced, at the
    sched-n60-fr1 bound."""
    inst = _orchard("n59")
    sol, energies = _resplit([_shuffled_tasks(inst)], inst)[0]
    out = benchmark(score_with_framework, sol, inst, ROBOTS, _bound(), Framework.FR1, energies)
    assert out == score_with_framework(sol, inst, ROBOTS, _bound(), Framework.FR1, _charged(sol, inst))
    assert math.fsum(energies) == evaluate(sol, inst).energy
