import itertools
import math
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp import clsm
from orchard_mtvrp.clsm import (
    ClusterSplit,
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


# The ant colony and the target and candidate choice as they were before the
# per-slot state: the colony prices every tour with `trip_energy` and weighs
# with numpy scalars, and the choices scan the trip tuples with strict
# comparisons. Their float sums run left to right, as `sum()` does on Python
# 3.11. The library must return the same tours and draw the same random
# numbers.


def aco_tour_reference(trip_tasks, inst, colony_size, iterations, rng):
    k = len(trip_tasks)
    if k == 1:
        return tuple(trip_tasks)
    best_order = tuple(trip_tasks)
    best_energy = trip_energy(best_order, inst)
    if k == 2:
        flipped = (trip_tasks[1], trip_tasks[0])
        return flipped if trip_energy(flipped, inst) < best_energy else best_order
    nodes = [0] + list(trip_tasks)
    eta = [
        [0.0 if i == j else 1.0 / max(inst.dist[nodes[i], nodes[j]], 1e-12) for j in range(k + 1)]
        for i in range(k + 1)
    ]
    tau = [[1.0] * (k + 1) for _ in range(k + 1)]
    alpha, beta = clsm._PHEROMONE_WEIGHT, clsm._HEURISTIC_WEIGHT
    for _ in range(iterations):
        for _ in range(colony_size):
            current = 0
            remaining = list(range(1, k + 1))
            order = []
            while remaining:
                weights = [(tau[current][j] ** alpha) * (eta[current][j] ** beta) for j in remaining]
                pick = _roulette_reference(remaining, weights, rng)
                order.append(pick)
                remaining.remove(pick)
                current = pick
            constructed = tuple(nodes[i] for i in order)
            for candidate in (constructed, constructed[::-1]):
                energy = trip_energy(candidate, inst)
                if energy < best_energy:
                    best_energy = energy
                    best_order = candidate
        for i in range(k + 1):
            for j in range(k + 1):
                tau[i][j] = max(clsm._PHEROMONE_FLOOR, tau[i][j] * (1.0 - clsm._EVAPORATION))
        index_of = {t: i + 1 for i, t in enumerate(trip_tasks)}
        path = [0] + [index_of[t] for t in best_order]
        for a, b in zip(path, path[1:]):
            tau[a][b] = min(clsm._PHEROMONE_CEILING, tau[a][b] + clsm._EVAPORATION)
    return best_order


def _roulette_reference(items, weights, rng):
    total = 0
    for w in weights:
        total = total + w
    if total <= 0:
        return items[rng.randrange(len(items))]
    spin = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if spin <= acc:
            return item
    return items[-1]


def _centroid_reference(points):
    xs = ys = 0
    for x, y in points:
        xs, ys = xs + x, ys + y
    return xs / len(points), ys / len(points)


def choose_target_trip_reference(trips, inst, splits=None):
    if splits is None:
        splits = {}
    best = None
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


def choose_candidate_trip_reference(trips, target_index, far_centroid, inst, centroids=None):
    if centroids is None:
        centroids = {}
    best_index, best_d = None, math.inf
    for index, trip in enumerate(trips):
        if index == target_index:
            continue
        centroid = centroids.get(trip)
        if centroid is None:
            centroid = centroids[trip] = _centroid_reference([inst.coords[t] for t in trip])
        d = math.hypot(centroid[0] - far_centroid[0], centroid[1] - far_centroid[1])
        if d < best_d:
            best_index, best_d = index, d
    return best_index


def _slots(trips: Sequence[tuple[int, ...]], inst, memo=None):
    """The per-slot lists `clsm_step` keeps: splits, separations, centroids."""
    memo = {} if memo is None else memo
    states = [clsm.slot_state(trip, inst, memo) for trip in trips]
    return [s[0] for s in states], [s[1] for s in states], [s[2] for s in states]


def target_of(trips, inst, memo=None):
    splits, separations, _ = _slots(trips, inst, memo)
    return choose_target_trip(separations, splits)


def candidate_of(trips, target_index, far_centroid, inst, memo=None):
    _, _, centroids = _slots(trips, inst, memo)
    return choose_candidate_trip(centroids, target_index, far_centroid)


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
        sol = GiantSolution.from_tokens((1, 0, 2))
        assert target_of(sol.trips, inst) is None

    def test_unique_multi_task_trip_wins(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [1.0] * 3, 10.0)
        sol = GiantSolution.from_tokens((1, 2, 0, 3))
        picked = target_of(sol.trips, inst)
        assert picked is not None
        assert picked[0] == 0

    def test_widest_separation_wins(self):
        # trip 0 spans 10 units, trip 1 spans 3
        inst = _instance(
            [(0.0, 1.0), (10.0, 1.0), (0.0, 5.0), (3.0, 5.0)],
            [1.0] * 4,
            10.0,
        )
        sol = GiantSolution.from_tokens((1, 2, 0, 3, 4))
        picked = target_of(sol.trips, inst)
        assert picked[0] == 0
        assert picked[1].separation == pytest.approx(10.0)

    def test_relabeling_invariance(self):
        inst = _instance(
            [(0.0, 1.0), (10.0, 1.0), (0.0, 5.0), (3.0, 5.0)],
            [1.0] * 4,
            10.0,
        )
        a = target_of(GiantSolution.from_tokens((1, 2, 0, 3, 4)).trips, inst)
        b = target_of(GiantSolution.from_tokens((3, 4, 0, 1, 2)).trips, inst)
        assert a[1].separation == pytest.approx(b[1].separation)
        assert set(a[1].members_a + a[1].members_b) == {1, 2}
        assert set(b[1].members_a + b[1].members_b) == {1, 2}


class TestChooseCandidateTrip:
    def test_two_trips_picks_the_other(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0), (9.0, 9.0)], [1.0] * 3, 10.0)
        sol = GiantSolution.from_tokens((1, 2, 0, 3))
        assert candidate_of(sol.trips, 0, (1.5, 0.0), inst) == 1

    def test_nearest_centroid_wins(self):
        inst = _instance(
            [(0.0, 10.0), (1.0, 10.0), (0.0, 9.0), (0.0, 3.0)],
            [1.0] * 4,
            10.0,
        )
        sol = GiantSolution.from_tokens((1, 2, 0, 3, 0, 4))
        # far centroid around (0.5, 10): trip (3,) at distance ~1, trip (4,) ~7
        assert candidate_of(sol.trips, 0, (0.5, 10.0), inst) == 1

    def test_single_trip_has_no_candidate(self):
        inst = _instance([(1.0, 0.0), (2.0, 0.0)], [1.0] * 2, 10.0)
        sol = GiantSolution.from_tokens((1, 2))
        assert candidate_of(sol.trips, 0, (1.5, 0.0), inst) is None

    def test_far_cluster_tie_breaks_on_id_sum(self):
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
        assert aco_tour((1,), line_instance, 10, 50, rng) == (1,)

    def test_two_tasks_keeps_better_direction(self, line_instance):
        rng = random.Random(0)
        out = aco_tour((2, 1), line_instance, 10, 50, rng)
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
            out = aco_tour(tuple(tasks), inst, 10, 5, rng)
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
            out = aco_tour(tuple(tasks), inst, 10, 50, rng)
            _, optimal = exact_tour(tuple(tasks), inst)
            if trip_energy(out, inst) <= optimal * 1.02 + 1e-9:
                hits += 1
        assert hits >= 95


class TestClsmStep:
    def test_single_singleton_trip_unchanged(self):
        inst = _instance([(1.0, 0.0)], [1.0], 10.0)
        sol = GiantSolution.from_tokens((1,))
        assert clsm_step(sol, inst, 0.2, 10, random.Random(0)) == sol

    def test_stretched_trip_recombined_with_nearest(self):
        # trip (1, 5) stretches across the orchard; tasks 2..4 sit in two
        # side trips, one of which is centroid-nearest to the far cluster
        inst = _instance(
            [(0.0, 10.0), (1.0, 1.0), (2.0, 1.5), (9.0, 2.0), (1.0, 9.0)],
            [2.0] * 5,
            8.0,
        )
        sol = GiantSolution.from_tokens((1, 5, 0, 2, 3, 0, 4))
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
            sol = GiantSolution.from_tokens(tuple(tokens))
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
    return GiantSolution.from_tokens(tuple(tokens))


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
            second = GiantSolution([*merged, *first.trips[len(merged) * 2 :]])
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
            second = GiantSolution(
                [tuple(pooled[:1]), tuple(pooled[1:]), *first.trips[2:]]
            )
            memo = {}
            _slots(first.trips, inst, memo)
            assert target_of(second.trips, inst, memo) == target_of(second.trips, inst)
            far_c = (rng.uniform(0, 50), rng.uniform(0, 50))
            for index in range(len(second.trips)):
                assert candidate_of(second.trips, index, far_c, inst, memo) == candidate_of(
                    second.trips, index, far_c, inst
                )

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
    `evaluate`, and the choices and the colony are the reference forms."""
    rounds = max(1, math.ceil(len(sol.trips) * intensity))
    best_sol = sol
    best_energy = evaluate(sol, inst).energy
    work = sol
    for _ in range(rounds):
        target = choose_target_trip_reference(work.trips, inst)
        if target is None:
            break
        target_index, split = target
        _, far_c = far_cluster(split, inst.coords[0])
        candidate_index = choose_candidate_trip_reference(work.trips, target_index, far_c, inst)
        if candidate_index is None:
            break
        current = work.trips
        new_a, new_b = clsm.recombine(current[target_index], current[candidate_index], inst)
        new_a = aco_tour_reference(
            new_a, inst, population, max(1, math.ceil(len(new_a) * intensity)), rng
        )
        new_b = aco_tour_reference(
            new_b, inst, population, max(1, math.ceil(len(new_b) * intensity)), rng
        )
        rebuilt = list(current)
        rebuilt[target_index] = new_a
        rebuilt[candidate_index] = new_b
        work = GiantSolution(rebuilt)
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


@st.composite
def lattice_instances(draw, min_n: int = 1, max_n: int = 8) -> Instance:
    """Small instances on a coarse lattice, so tasks (and the depot) often
    coincide and separations and centroid distances tie; or free
    coordinates."""
    n = draw(st.integers(min_n, max_n))
    grid = draw(st.booleans())
    coord = st.integers(0, 4).map(float) if grid else st.floats(0, 50, allow_nan=False)
    coords = [(draw(coord), draw(coord)) for _ in range(n + 1)]
    yields = [0.0] + [draw(st.sampled_from([1.0, 2.5, 4.0, 7.0])) for _ in range(n)]
    weight = draw(st.sampled_from([1.0, 4.0, 12.5]))
    return Instance(tuple(coords), tuple(yields), 40.0, weight)


class TestAcoMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_tour_and_draws(self, data):
        inst = data.draw(lattice_instances(max_n=8))
        trip = tuple(data.draw(st.permutations(list(inst.task_ids))))
        colony_size, iterations = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 2**32))
        runs = []
        for tour in (aco_tour_reference, aco_tour):
            rng = random.Random(seed)
            runs.append((tour(trip, inst, colony_size, iterations, rng), rng.random()))
        assert runs[1] == runs[0]

    def test_coincident_tasks(self):
        # tasks 1, 2 and 3 share a point, so their distances clamp to 1e-12
        inst = _instance([(3.0, 3.0)] * 3 + [(0.0, 3.0), (3.0, 0.0)], [2.0] * 5, 40.0)
        for seed in range(20):
            trip = tuple(random.Random(seed).sample(range(1, 6), 5))
            runs = []
            for tour in (aco_tour_reference, aco_tour):
                rng = random.Random(seed)
                runs.append((tour(trip, inst, 6, 4, rng), rng.random()))
            assert runs[1] == runs[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_local_energy_is_trip_energy(self, data):
        inst = data.draw(lattice_instances(max_n=8))
        trip = data.draw(st.permutations(list(inst.task_ids)))
        nodes = [0, *inst.task_ids]
        dist = [[inst.dist.item(a, b) for b in nodes] for a in nodes]
        got = clsm._local_energy(list(trip), dist, list(inst.yields), inst.robot_weight)
        assert got == trip_energy(trip, inst)

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    def test_pheromone_updated_between_iterations_only(self, monkeypatch, iterations):
        calls = 0
        original = clsm._update_pheromone

        def counting(tau, best):
            nonlocal calls
            calls += 1
            original(tau, best)

        monkeypatch.setattr(clsm, "_update_pheromone", counting)
        inst = random_instance(random.Random(4), 6)
        aco_tour(tuple(inst.task_ids), inst, 3, iterations, random.Random(0))
        assert calls == iterations - 1


class TestChoicesMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_target_and_candidates(self, data):
        inst = data.draw(lattice_instances(min_n=2, max_n=12))
        perm = data.draw(st.permutations(list(inst.task_ids)))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(perm), max_size=len(perm)))
        trips = _random_split_by(perm, cuts).trips
        target = choose_target_trip_reference(trips, inst)
        assert target_of(trips, inst) == target
        lattice = st.integers(0, 4).map(float)
        far_c = (data.draw(lattice), data.draw(lattice))
        for index in range(len(trips)):
            expected = choose_candidate_trip_reference(trips, index, far_c, inst)
            assert candidate_of(trips, index, far_c, inst) == expected

    def test_first_of_tied_separations(self):
        # two trips of the same shape: equal separations, the first wins
        inst = _instance([(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (3.0, 3.0)], [1.0] * 4, 10.0)
        trips = ((1, 2), (3, 4))
        assert target_of(trips, inst)[0] == choose_target_trip_reference(trips, inst)[0] == 0

    def test_candidate_distance_is_math_hypot(self):
        # math.hypot rounds the distance to task 3's centroid one unit in the
        # last place below the distance to task 2's; np.hypot rounds both to
        # the same float, so a scan over its values would keep task 2
        far_c = (0.0, 0.0)
        inst = _instance(
            [(9.0, 9.0), (47.418691216708694, 0.0), (-45.564747460088306, -13.129587411794105)],
            [1.0] * 3,
            10.0,
        )
        trips = ((1,), (2,), (3,))
        assert candidate_of(trips, 0, far_c, inst) == 2
        assert choose_candidate_trip_reference(trips, 0, far_c, inst) == 2


def _random_split_by(perm, cuts):
    tokens = []
    for t, cut in zip(perm, cuts):
        if tokens and cut:
            tokens.append(0)
        tokens.append(t)
    return GiantSolution.from_tokens(tuple(tokens))
