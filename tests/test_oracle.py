import random
from itertools import permutations

import pytest

from orchard_mtvrp.core import GiantSolution, Instance, decode_trips, evaluate, trip_energy
from orchard_mtvrp.oracle import (
    SizeError,
    exact_route_generation,
    exact_schedule,
    exact_tour,
    exhaustive_best_energy,
)

from conftest import random_instance


class TestExactTour:
    def test_single_task(self, line_instance):
        order, energy = exact_tour((1,), line_instance)
        assert order == (1,)
        assert energy == pytest.approx(trip_energy((1,), line_instance))

    def test_two_tasks_picks_cheaper_direction(self, line_instance):
        order, energy = exact_tour((1, 2), line_instance)
        both = {
            (1, 2): trip_energy((1, 2), line_instance),
            (2, 1): trip_energy((2, 1), line_instance),
        }
        assert energy == pytest.approx(min(both.values()))
        assert both[order] == pytest.approx(energy)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_permutation_sweep(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, 6)
        tasks = tuple(inst.task_ids)
        brute = min(trip_energy(p, inst) for p in permutations(tasks))
        order, energy = exact_tour(tasks, inst)
        assert energy == pytest.approx(brute, rel=1e-12)
        assert trip_energy(order, inst) == pytest.approx(energy, rel=1e-12)

    def test_size_cap(self, line_instance):
        with pytest.raises(SizeError):
            exact_tour(tuple(range(1, 14)), line_instance)

    def test_never_above_enumerated_orders(self):
        rng = random.Random(99)
        for _ in range(5):
            inst = random_instance(rng, 7)
            tasks = tuple(inst.task_ids)
            _, energy = exact_tour(tasks, inst)
            for p in permutations(tasks):
                assert energy <= trip_energy(p, inst) + 1e-9


class TestExactRouteGeneration:
    def test_single_task_forced(self):
        inst = Instance(
            coords=((0.0, 0.0), (3.0, 4.0)),
            yields=(0.0, 2.0),
            capacity=5.0,
            robot_weight=1.0,
        )
        result = exact_route_generation(inst)
        assert decode_trips(result.solution) == [(1,)]
        assert result.energy == pytest.approx(trip_energy((1,), inst))

    def test_capacity_forces_two_trips(self):
        inst = Instance(
            coords=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
            yields=(0.0, 4.0, 4.0),
            capacity=5.0,
            robot_weight=1.0,
        )
        result = exact_route_generation(inst)
        assert len(decode_trips(result.solution)) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_second_enumerator(self, seed):
        rng = random.Random(1000 + seed)
        inst = random_instance(rng, 5, capacity=18.0)
        result = exact_route_generation(inst)
        assert result.energy == pytest.approx(exhaustive_best_energy(inst), rel=1e-12)
        ev = evaluate(result.solution, inst)
        assert ev.energy == pytest.approx(result.energy, rel=1e-12)
        assert not ev.penalized

    def test_invariant_under_relabeling_and_rigid_motion(self):
        rng = random.Random(5)
        inst = random_instance(rng, 5)
        base = exact_route_generation(inst).energy

        relabel = list(inst.task_ids)
        rng.shuffle(relabel)
        shuffled = Instance(
            coords=(inst.coords[0],) + tuple(inst.coords[t] for t in relabel),
            yields=(0.0,) + tuple(inst.yields[t] for t in relabel),
            capacity=inst.capacity,
            robot_weight=inst.robot_weight,
        )
        assert exact_route_generation(shuffled).energy == pytest.approx(base, rel=1e-12)

        dx, dy = 13.5, -4.25
        moved = Instance(
            coords=tuple((x + dx, y + dy) for x, y in inst.coords),
            yields=inst.yields,
            capacity=inst.capacity,
            robot_weight=inst.robot_weight,
        )
        assert exact_route_generation(moved).energy == pytest.approx(base, rel=1e-12)

    def test_size_cap(self):
        rng = random.Random(3)
        inst = random_instance(rng, 9)
        with pytest.raises(SizeError):
            exact_route_generation(inst)

    def test_lower_bounds_random_solutions(self):
        rng = random.Random(21)
        inst = random_instance(rng, 6)
        optimum = exact_route_generation(inst).energy
        for _ in range(40):
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            tokens: list[int] = []
            for t in perm:
                if tokens and rng.random() < 0.4:
                    tokens.append(0)
                tokens.append(t)
            ev = evaluate(GiantSolution.from_tokens(tuple(tokens)), inst)
            if not ev.penalized:
                assert optimum <= ev.energy + 1e-9


class TestExactSchedule:
    def test_perfect_fit(self):
        assert exact_schedule([5.0, 5.0], 2, 5.0)

    def test_sum_bound(self):
        assert not exact_schedule([5.0, 5.0], 1, 9.0)

    def test_hand_case(self):
        assert exact_schedule([4.0, 3.0, 3.0, 2.0, 2.0], 2, 7.0)

    def test_single_trip_over_bound(self):
        assert not exact_schedule([7.0], 3, 6.5)

    def test_empty_is_feasible(self):
        assert exact_schedule([], 2, 1.0)

    def test_size_caps(self):
        with pytest.raises(SizeError):
            exact_schedule([1.0] * 11, 2, 100.0)
        with pytest.raises(SizeError):
            exact_schedule([1.0], 5, 100.0)
