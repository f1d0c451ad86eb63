import itertools
import math
import random

import pytest

from orchard_mtvrp import clsm
from orchard_mtvrp.clsm import (
    AcoParams,
    aco_tour,
    choose_candidate_trip,
    choose_target_trip,
    clsm_step,
    far_cluster,
    kmeans_two,
    recombine,
)
from orchard_mtvrp.core import GiantSolution, Instance, decode_trips, evaluate, trip_energy
from orchard_mtvrp.oracle import exact_tour

from conftest import random_instance


def _instance(points, yields, capacity, weight=10.0, depot=(0.0, 0.0)):
    return Instance(
        coords=(depot, *points),
        yields=(0.0, *yields),
        capacity=capacity,
        robot_weight=weight,
    )


class TestKmeansTwo:
    def test_two_points(self):
        split = kmeans_two([(0.0, 0.0), (10.0, 0.0)])
        assert sorted(map(len, (split.members_a, split.members_b))) == [1, 1]
        assert split.separation == pytest.approx(10.0)

    def test_coincident_points(self):
        split = kmeans_two([(1.0, 1.0), (1.0, 1.0)])
        assert split.separation == 0.0

    def test_two_pairs_split(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0)]
        split = kmeans_two(pts)
        groups = {frozenset(split.members_a), frozenset(split.members_b)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}
        assert split.separation == pytest.approx(10.0)

    def test_minimizes_within_cluster_sse(self):
        rng = random.Random(77)
        pts = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(3)]
        pts += [(rng.uniform(20, 25), rng.uniform(20, 25)) for _ in range(3)]

        def sse(groups):
            total = 0.0
            for g in groups:
                cx = sum(pts[i][0] for i in g) / len(g)
                cy = sum(pts[i][1] for i in g) / len(g)
                total += sum((pts[i][0] - cx) ** 2 + (pts[i][1] - cy) ** 2 for i in g)
            return total

        split = kmeans_two(pts)
        ours = sse([split.members_a, split.members_b])
        best = min(
            sse([picked, rest])
            for r in range(1, len(pts))
            for picked in itertools.combinations(range(len(pts)), r)
            if (rest := tuple(i for i in range(len(pts)) if i not in picked))
        )
        assert ours == pytest.approx(best)

    def test_assignment_fixpoint(self):
        rng = random.Random(13)
        pts = [(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(9)]
        split = kmeans_two(pts)
        for i in split.members_a:
            da = math.dist(pts[i], split.centroid_a)
            db = math.dist(pts[i], split.centroid_b)
            assert da <= db + 1e-12
        for i in split.members_b:
            da = math.dist(pts[i], split.centroid_a)
            db = math.dist(pts[i], split.centroid_b)
            assert db <= da + 1e-12


class TestChooseTargetTrip:
    def test_all_singletons_gives_nothing(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0)], [1.0, 1.0], 10.0)
        sol = GiantSolution((1, 0, 2))
        assert choose_target_trip(sol.trips, inst) is None

    def test_unique_multi_task_trip_wins(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1.0] * 3, 10.0)
        sol = GiantSolution((1, 2, 0, 3))
        picked = choose_target_trip(sol.trips, inst)
        assert picked is not None
        assert picked[0] == 0

    def test_widest_separation_wins(self):
        # trip 0 spans 10 units, trip 1 spans 3
        inst = _instance(
            [(0.0, 1.0), (10.0, 1.0), (0.0, 5.0), (3.0, 5.0)],
            [1.0] * 4,
            10.0,
        )
        sol = GiantSolution((1, 2, 0, 3, 4))
        picked = choose_target_trip(sol.trips, inst)
        assert picked[0] == 0
        assert picked[1].separation == pytest.approx(10.0)

    def test_relabeling_invariance(self):
        inst = _instance(
            [(0.0, 1.0), (10.0, 1.0), (0.0, 5.0), (3.0, 5.0)],
            [1.0] * 4,
            10.0,
        )
        a = choose_target_trip(GiantSolution((1, 2, 0, 3, 4)).trips, inst)
        b = choose_target_trip(GiantSolution((3, 4, 0, 1, 2)).trips, inst)
        assert a[1].separation == pytest.approx(b[1].separation)
        assert set(a[1].members_a + a[1].members_b) == {1, 2}
        assert set(b[1].members_a + b[1].members_b) == {1, 2}


class TestChooseCandidateTrip:
    def test_two_trips_picks_the_other(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0), (9.0, 9.0)], [1.0] * 3, 10.0)
        sol = GiantSolution((1, 2, 0, 3))
        assert choose_candidate_trip(sol.trips, 0, (1.5, 0.0), inst) == 1

    def test_nearest_centroid_wins(self):
        inst = _instance(
            [(0.0, 10.0), (1.0, 10.0), (0.0, 9.0), (0.0, 3.0)],
            [1.0] * 4,
            10.0,
        )
        sol = GiantSolution((1, 2, 0, 3, 0, 4))
        # far centroid around (0.5, 10): trip (3,) at distance ~1, trip (4,) ~7
        assert choose_candidate_trip(sol.trips, 0, (0.5, 10.0), inst) == 1

    def test_single_trip_has_no_candidate(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0)], [1.0] * 2, 10.0)
        sol = GiantSolution((1, 2))
        assert choose_candidate_trip(sol.trips, 0, (1.5, 0.0), inst) is None

    def test_far_cluster_tie_breaks_on_id_sum(self):
        from orchard_mtvrp.clsm import ClusterSplit

        split = ClusterSplit((1,), (4,), (0.0, 5.0), (5.0, 0.0), 5.0)
        members, _ = far_cluster(split, (0.0, 0.0))
        assert members == (4,)


class TestRecombine:
    def test_pool_of_two_forced_split(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0)], [3.0, 3.0], 10.0)
        a, b = recombine((1,), (2,), inst)
        assert sorted((*a, *b)) == [1, 2]
        assert len(a) == len(b) == 1

    def test_balances_loads(self):
        # four tasks of load 5 around a square, capacity 10 -> 10/10 split
        inst = _instance(
            [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)],
            [5.0] * 4,
            10.0,
        )
        a, b = recombine((1, 2), (3, 4), inst)
        load = lambda trip: sum(inst.yields[t] for t in trip)
        assert load(a) == load(b) == 10.0

    def test_sweep_boundaries_checked_exhaustively(self):
        rng = random.Random(5)
        inst = random_instance(rng, 6, capacity=30.0)
        a, b = recombine((1, 2, 3), (4, 5, 6), inst)
        assert sorted((*a, *b)) == [1, 2, 3, 4, 5, 6]
        la = sum(inst.yields[t] for t in a)
        lb = sum(inst.yields[t] for t in b)
        assert la <= inst.capacity and lb <= inst.capacity

    def test_overweight_pool_returned_unchanged(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [9.0, 9.0, 9.0], 10.0)
        a, b = recombine((1, 2), (3,), inst)
        assert (a, b) == ((1, 2), (3,))


class TestAcoTour:
    def test_single_task_unchanged(self, line_instance):
        rng = random.Random(0)
        assert aco_tour((1,), line_instance, AcoParams(), rng) == (1,)

    def test_two_tasks_keeps_better_direction(self, line_instance):
        rng = random.Random(0)
        out = aco_tour((2, 1), line_instance, AcoParams(), rng)
        assert trip_energy(out, line_instance) <= trip_energy((2, 1), line_instance)
        assert trip_energy(out, line_instance) == pytest.approx(
            min(trip_energy((1, 2), line_instance), trip_energy((2, 1), line_instance))
        )

    def test_never_worse_than_input(self):
        rng = random.Random(123)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(3, 8))
            tasks = list(inst.task_ids)
            rng.shuffle(tasks)
            out = aco_tour(tuple(tasks), inst, AcoParams(iterations=5), rng)
            assert sorted(out) == sorted(tasks)
            assert trip_energy(out, inst) <= trip_energy(tuple(tasks), inst) + 1e-9

    def test_near_optimal_on_small_trips(self):
        hits = 0
        runs = 100
        for seed in range(runs):
            rng = random.Random(seed)
            inst = random_instance(rng, 8)
            tasks = list(inst.task_ids)
            rng.shuffle(tasks)
            out = aco_tour(tuple(tasks), inst, AcoParams(), rng)
            _, optimal = exact_tour(tuple(tasks), inst)
            if trip_energy(out, inst) <= optimal * 1.02 + 1e-9:
                hits += 1
        assert hits >= 95


class TestClsmStep:
    def test_single_singleton_trip_unchanged(self):
        inst = _instance([(1.0, 0.0)], [1.0], 10.0)
        sol = GiantSolution((1,))
        assert clsm_step(sol, inst, 0.2, 10, random.Random(0)) == sol

    def test_stretched_trip_recombined_with_nearest(self):
        # trip (1, 5) stretches across the orchard; tasks 2..4 sit in two
        # side trips, one of which is centroid-nearest to the far cluster
        inst = _instance(
            [(0.0, 10.0), (1.0, 1.0), (2.0, 1.5), (9.0, 2.0), (1.0, 9.0)],
            [2.0] * 5,
            8.0,
        )
        sol = GiantSolution((1, 5, 0, 2, 3, 0, 4))
        out = clsm_step(sol, inst, 0.2, 10, random.Random(1))
        before = evaluate(sol, inst).energy
        after = evaluate(out, inst).energy
        assert after <= before
        tasks = sorted(t for trip in decode_trips(out) for t in trip)
        assert tasks == [1, 2, 3, 4, 5]

    def test_task_conservation_and_monotone_energy(self):
        rng = random.Random(2)
        for _ in range(500):
            inst = random_instance(rng, rng.randint(2, 10))
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            tokens: list[int] = []
            for t in perm:
                if tokens and rng.random() < 0.35:
                    tokens.append(0)
                tokens.append(t)
            sol = GiantSolution(tuple(tokens))
            out = clsm_step(sol, inst, 0.2, 6, rng)
            assert sorted(t for trip in decode_trips(out) for t in trip) == sorted(perm)
            assert (
                evaluate(out, inst).energy <= evaluate(sol, inst).energy + 1e-9
            )


def _random_split(rng, tasks, cut_probability):
    tokens = []
    for t in tasks:
        if tokens and rng.random() < cut_probability:
            tokens.append(0)
        tokens.append(t)
    return GiantSolution(tuple(tokens))


class TestStepMemos:
    def test_memoised_energy_matches_evaluate_exactly(self):
        # long trips on a tight capacity overload, so evaluate charges the
        # depot visits it inserts; the memoised sum must agree bit for bit,
        # also for a second solution that reuses most trips from the memo
        rng = random.Random(8)
        overloaded = 0
        for _ in range(200):
            inst = random_instance(rng, rng.randint(3, 14), capacity=12.0)
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            first = _random_split(rng, perm, 0.2)
            merged = [first.trips[0] + first.trips[1]] if len(first.trips) > 1 else []
            second = GiantSolution.from_trips([*merged, *first.trips[len(merged) * 2 :]])
            memo = {}
            for sol in (first, second):
                expected = evaluate(sol, inst)
                overloaded += expected.penalized
                got = math.fsum(
                    e for trip in sol.trips for e in clsm._piece_energies(trip, inst, memo)
                )
                assert got == expected.energy
        assert overloaded > 50

    def test_choices_unchanged_by_memo_from_other_solution(self):
        rng = random.Random(9)
        for _ in range(100):
            inst = random_instance(rng, rng.randint(4, 16))
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            first = _random_split(rng, perm, 0.3)
            if len(first.trips) < 2:
                continue
            # the second solution keeps all but the first two trips
            pooled = [t for trip in first.trips[:2] for t in trip]
            rng.shuffle(pooled)
            second = GiantSolution.from_trips(
                [tuple(pooled[:1]), tuple(pooled[1:]), *first.trips[2:]]
            )
            splits, centroids = {}, {}
            choose_target_trip(first.trips, inst, splits)
            for index in range(len(first.trips)):
                choose_candidate_trip(first.trips, index, (25.0, 25.0), inst, centroids)
            assert choose_target_trip(second.trips, inst, splits) == choose_target_trip(
                second.trips, inst
            )
            far_c = (rng.uniform(0, 50), rng.uniform(0, 50))
            for index in range(len(second.trips)):
                assert choose_candidate_trip(
                    second.trips, index, far_c, inst, centroids
                ) == choose_candidate_trip(second.trips, index, far_c, inst)

    def test_kmeans_runs_once_per_trip_and_new_trip(self, monkeypatch):
        calls = 0
        original = clsm.kmeans_two

        def counting(points):
            nonlocal calls
            calls += 1
            return original(points)

        monkeypatch.setattr(clsm, "kmeans_two", counting)
        rng = random.Random(10)
        for _ in range(20):
            inst = random_instance(rng, 40, capacity=30.0)
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            sol = _random_split(rng, perm, 0.25)
            intensity = 0.5
            trips = len(sol.trips)
            rounds = max(1, math.ceil(trips * intensity))
            calls = 0
            clsm_step(sol, inst, intensity, 4, rng)
            assert calls <= trips + 2 * rounds


def _reference_clsm_step(sol, inst, intensity, population, rng):
    """clsm_step as it was before the trip-list working form: every round
    rebuilds the whole solution from its trips and scores it with a full
    `evaluate`."""
    rounds = max(1, math.ceil(len(sol.trips) * intensity))
    best_sol = sol
    best_energy = evaluate(sol, inst).energy
    work = sol
    for _ in range(rounds):
        target = clsm.choose_target_trip(work.trips, inst)
        if target is None:
            break
        target_index, split = target
        _, far_c = far_cluster(split, inst.coords[0])
        candidate_index = clsm.choose_candidate_trip(work.trips, target_index, far_c, inst)
        if candidate_index is None:
            break
        current = work.trips
        new_a, new_b = clsm.recombine(current[target_index], current[candidate_index], inst)
        new_a = clsm.aco_tour(
            new_a, inst, AcoParams(population, max(1, math.ceil(len(new_a) * intensity))), rng
        )
        new_b = clsm.aco_tour(
            new_b, inst, AcoParams(population, max(1, math.ceil(len(new_b) * intensity))), rng
        )
        rebuilt = list(current)
        rebuilt[target_index] = new_a
        rebuilt[candidate_index] = new_b
        work = GiantSolution.from_trips(rebuilt)
        energy = evaluate(work, inst).energy
        if energy < best_energy:
            best_energy = energy
            best_sol = work
    return best_sol


class TestAgainstRebuildingReference:
    def test_same_result_moves_and_draws(self, monkeypatch):
        # tight capacities make many trips overloaded, so scoring has to
        # charge the inserted depot visits exactly as `evaluate` does
        moves: list[tuple] = []
        original = clsm.recombine

        def recording(a, b, inst):
            moves.append((tuple(a), tuple(b)))
            return original(a, b, inst)

        monkeypatch.setattr(clsm, "recombine", recording)
        rng = random.Random(11)
        overloaded = improved = 0
        for case in range(150):
            capacity = rng.choice((10.0, 14.0, None))
            inst = random_instance(rng, rng.randint(2, 24), capacity=capacity)
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            sol = _random_split(rng, perm, rng.choice((0.1, 0.3, 0.5)))
            overloaded += evaluate(sol, inst).penalized
            intensity = rng.choice((0.2, 0.5, 1.0))
            runs = []
            for step in (_reference_clsm_step, clsm_step):
                moves.clear()
                step_rng = random.Random(case)
                out = step(sol, inst, intensity, 4, step_rng)
                runs.append((out, list(moves), step_rng.random()))
            reference, got = runs
            assert got == reference
            assert got[0].trips == reference[0].trips
            improved += got[0] is not sol
        assert overloaded > 30
        assert improved > 30
