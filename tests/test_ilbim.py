import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp import OrchardSpec, generate_orchard
from orchard_mtvrp.core import (
    ConfigurationError,
    GiantSolution,
    Instance,
    decode_trips,
    evaluate,
)
from orchard_mtvrp.ilbim import (
    composite_ranking,
    construct_solution,
    dense_ranks,
    init_population,
    pick_keys,
)

from conftest import random_instance


def _instance(points, yields, capacity, weight=10.0):
    return Instance(
        coords=((0.0, 0.0), *points),
        yields=(0.0, *yields),
        capacity=capacity,
        robot_weight=weight,
    )


def reference_composite_ranking(inst, distance_weight):
    """The sort-based ranking: both orders sorted in Python with ties broken
    by task id, then the blended positions. composite_ranking must give the
    same tuple."""
    tasks = list(inst.task_ids)
    by_distance = sorted(tasks, key=lambda t: (-inst.dist[0, t], t))
    by_yield = sorted(tasks, key=lambda t: (inst.yields[t], t))
    pos_d = {t: i for i, t in enumerate(by_distance, start=1)}
    pos_y = {t: i for i, t in enumerate(by_yield, start=1)}
    w = distance_weight
    blended = sorted(tasks, key=lambda t: (w * pos_d[t] + (1 - w) * pos_y[t], t))
    return tuple(blended)


def reference_construct_solution(ranking, distance_weight, inst):
    """The sort-based construction: both orders are rebuilt in Python at
    every pick, with ties broken by task id. construct_solution must give
    the same solution."""
    remaining = list(ranking)
    w = distance_weight
    trips = []
    while remaining:
        current = remaining.pop(0)
        trip = [current]
        load = inst.yields[current]
        while remaining:
            headroom = inst.capacity - load
            feasible = [t for t in remaining if inst.yields[t] <= headroom]
            if not feasible:
                break
            by_proximity = sorted(feasible, key=lambda t: (inst.dist[current, t], t))
            by_share = sorted(feasible, key=lambda t: (-inst.yields[t] / headroom, t))
            pos_p = {t: i for i, t in enumerate(by_proximity, start=1)}
            pos_s = {t: i for i, t in enumerate(by_share, start=1)}
            pick = min(feasible, key=lambda t: (w * pos_p[t] + (1 - w) * pos_s[t], t))
            if inst.dist[current, 0] < inst.dist[current, pick]:
                break
            trip.append(pick)
            load += inst.yields[pick]
            remaining.remove(pick)
            current = pick
        trips.append(trip)
    return GiantSolution(trips)


# Grid points repeat distances (and may coincide); yields are drawn from a
# few non-integer values, or freely, so both sort keys have ties.
_TIED_YIELDS = st.sampled_from([0.5, 1.25, 2.5, 2.75, 3.0])
_TASK = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.one_of(_TIED_YIELDS, st.floats(min_value=0.1, max_value=3.0)),
)


class TestCompositeRanking:
    def setup_method(self):
        # (d, q) = (10, 5), (5, 9), (1, 1)
        self.inst = _instance(
            points=[(10.0, 0.0), (5.0, 0.0), (1.0, 0.0)],
            yields=[5.0, 9.0, 1.0],
            capacity=20.0,
        )

    def test_pure_distance_weight(self):
        assert composite_ranking(self.inst, 1.0) == (1, 2, 3)

    def test_pure_yield_weight(self):
        assert composite_ranking(self.inst, 0.0) == (3, 1, 2)

    def test_blended_hand_computation(self):
        # ranks: task1 0.5*1+0.5*2=1.5, task2 0.5*2+0.5*3=2.5, task3 0.5*3+0.5*1=2.0
        assert composite_ranking(self.inst, 0.5) == (1, 3, 2)

    def test_tie_break_by_id(self):
        inst = _instance(
            points=[(4.0, 0.0), (0.0, 4.0)],
            yields=[2.0, 2.0],
            capacity=10.0,
        )
        assert composite_ranking(inst, 1.0) == (1, 2)
        assert composite_ranking(inst, 0.0) == (1, 2)

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("spec", [OrchardSpec(20, 100, 0.6, seed=42), OrchardSpec(40, 400, 0.8, seed=1),
                                      OrchardSpec(70, 1225, 0.8, seed=1)])
    def test_matches_reference_on_orchards(self, spec, grid):
        """Integer yields tie on every orchard, and on lattices many depot
        distances tie too."""
        inst = generate_orchard(dataclasses.replace(spec, grid=grid))
        for w in [j / 9 for j in range(10)] + [0.5, 0.25, 0, 1]:
            ranking = composite_ranking(inst, w)
            assert ranking == reference_composite_ranking(inst, w)
            assert all(type(t) is int for t in ranking)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TASK, min_size=1, max_size=14), st.floats(min_value=0.0, max_value=1.0))
    def test_matches_reference_with_ties(self, tasks, w):
        inst = _instance(
            points=[(float(x), float(y)) for x, y, _ in tasks],
            yields=[q for _, _, q in tasks],
            capacity=3.0,
        )
        assert composite_ranking(inst, w) == reference_composite_ranking(inst, w)


class TestConstructSolution:
    def test_single_task(self):
        inst = _instance(points=[(3.0, 4.0)], yields=[2.0], capacity=10.0)
        sol = construct_solution(composite_ranking(inst, 0.7), 0.7, inst)
        assert decode_trips(sol) == [(1,)]

    def test_line_example_first_trip(self):
        # tasks at 10, 20, 30, 40 from the depot, yield 5 each, capacity 12:
        # the farthest task seeds the trip, its nearest feasible neighbour is
        # picked, then nothing else fits
        inst = _instance(
            points=[(10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)],
            yields=[5.0, 5.0, 5.0, 5.0],
            capacity=12.0,
        )
        sol = construct_solution(composite_ranking(inst, 1.0), 1.0, inst)
        assert decode_trips(sol)[0] == (4, 3)

    def test_single_trip_when_everything_fits_and_near(self):
        # tight cluster far from the depot: proximity test always passes
        inst = _instance(
            points=[(100.0, 0.0), (100.5, 0.0), (101.0, 0.0)],
            yields=[1.0, 1.0, 1.0],
            capacity=10.0,
        )
        sol = construct_solution(composite_ranking(inst, 1.0), 1.0, inst)
        assert len(decode_trips(sol)) == 1

    def test_every_task_once_and_feasible(self):
        rng = random.Random(31)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 15))
            for w in (0.0, 0.3, 0.7, 1.0):
                sol = construct_solution(composite_ranking(inst, w), w, inst)
                tasks = sorted(t for trip in decode_trips(sol) for t in trip)
                assert tasks == list(inst.task_ids)
                assert not evaluate(sol, inst).penalized


class TestInitPopulation:
    def test_weights_for_three(self):
        rng = random.Random(1)
        inst = random_instance(rng, 9)
        pop = init_population(inst, 3)
        assert pop[0] == construct_solution(composite_ranking(inst, 0.0), 0.0, inst)
        assert pop[1] == construct_solution(composite_ranking(inst, 0.5), 0.5, inst)
        assert pop[2] == construct_solution(composite_ranking(inst, 1.0), 1.0, inst)

    def test_weights_for_two(self):
        rng = random.Random(2)
        inst = random_instance(rng, 5)
        pop = init_population(inst, 2)
        assert pop[0] == construct_solution(composite_ranking(inst, 0.0), 0.0, inst)
        assert pop[1] == construct_solution(composite_ranking(inst, 1.0), 1.0, inst)

    def test_extreme_weights_seed_expected_tasks(self):
        rng = random.Random(3)
        inst = random_instance(rng, 8)
        far = max(inst.task_ids, key=lambda t: (inst.dist[0, t], -t))
        light = min(inst.task_ids, key=lambda t: (inst.yields[t], t))
        pop = init_population(inst, 2)
        assert pop[1].tokens[0] == far
        assert pop[0].tokens[0] == light

    def test_deterministic(self):
        rng = random.Random(4)
        inst = random_instance(rng, 12)
        assert init_population(inst, 6) == init_population(inst, 6)

    def test_population_one_uses_midpoint(self):
        rng = random.Random(5)
        inst = random_instance(rng, 6)
        pop = init_population(inst, 1)
        assert pop == [construct_solution(composite_ranking(inst, 0.5), 0.5, inst)]

    def test_zero_population_rejected(self):
        rng = random.Random(6)
        inst = random_instance(rng, 4)
        with pytest.raises(ConfigurationError):
            init_population(inst, 0)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_TASK, min_size=1, max_size=14),
        st.sampled_from([3.0, 3.75, 5.5, 9.0]),
        st.one_of(
            st.sampled_from([0.0, 1 / 9, 1 / 3, 0.5, 2 / 3, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    def test_small_instances_with_ties(self, tasks, capacity, w):
        inst = _instance(
            points=[(float(x), float(y)) for x, y, _ in tasks],
            yields=[q for _, _, q in tasks],
            capacity=capacity,
        )
        ranking = composite_ranking(inst, w)
        assert construct_solution(ranking, w, inst) == reference_construct_solution(
            ranking, w, inst
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
                st.sampled_from([0.5, 1.25, 1.5, 2.75]),
                st.sampled_from([0, 0, 1, -1]),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([3.0, 3.75, 5.5]),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_yields_one_double_apart(self, tasks, capacity, w):
        """Yields drawn from a few values, some moved to the next double up
        or down: the integer share key is taken only where no two distinct
        yields lie that close, and both share keys give the reference's
        picks."""
        inst = _instance(
            points=[(float(x), float(y)) for x, y, _, _ in tasks],
            yields=[math.nextafter(q, q + step) for _, _, q, step in tasks],
            capacity=capacity,
        )
        ranking = composite_ranking(inst, w)
        expected = reference_construct_solution(ranking, w, inst)
        near, share = pick_keys(inst)
        distinct = sorted(set(inst.yields[1:]))
        # Distinct yields from one drawn value lie at most two doubles apart.
        close = any(b <= math.nextafter(math.nextafter(a, b), b) for a, b in zip(distinct, distinct[1:]))
        assert (share is None) == close
        assert construct_solution(ranking, w, inst, (near, None)) == expected
        assert construct_solution(ranking, w, inst, (near, share)) == expected

    def test_share_key_ties_after_division(self):
        # yields 1.5 and the next double up differ, but divided by the
        # headroom 2.055 they round to the same share: the tie goes to the
        # lower id, where an order by yield alone would pick task 2. So the
        # share key stays the quotient.
        inst = _instance(
            points=[(100.0, 0.0), (100.0, 1.0), (100.0, 0.5)],
            yields=[1.5, math.nextafter(1.5, 2.0), 0.5],
            capacity=2.555,
        )
        assert pick_keys(inst)[1] is None
        ranking = composite_ranking(inst, 0.0)
        sol = construct_solution(ranking, 0.0, inst)
        assert sol == reference_construct_solution(ranking, 0.0, inst)
        assert sol.trips == ((3, 1), (2,))

    def test_population_at_n319(self):
        inst = generate_orchard(OrchardSpec(40, 400, 0.8, seed=1))
        assert inst.n == 319
        expected = [
            reference_construct_solution(composite_ranking(inst, w), w, inst)
            for w in (j / 9 for j in range(10))
        ]
        assert init_population(inst, 10) == expected


# sha256 of repr([sol.trips for sol in init_population(inst, 10)]) on the
# n=965 orchard, as recorded with float sort keys.
N965_POPULATION_SHA256 = "31e326ec3e81f01058b97be384131fd5779258e60efaf6b1bdd727e464ab2e7a"


class TestPickKeys:
    def test_dense_ranks(self):
        values = np.array([2.5, 0.0, 2.5, 1.0, 7.0, -0.0])
        assert dense_ranks(values).tolist() == [2, 0, 2, 1, 3, 0]
        assert dense_ranks(-values).tolist() == [1, 3, 1, 2, 0, 3]
        assert dense_ranks(np.full(300, 3.0)).tolist() == [0] * 300
        assert dense_ranks(values).dtype == np.uint8 and dense_ranks(np.arange(257.0)).dtype == np.uint16

    @pytest.mark.parametrize("spec, n, dtype", [
        (OrchardSpec(20, 100, 0.6, seed=42), 59, np.uint8),
        (OrchardSpec(70, 1225, 0.8, seed=1), 965, np.uint16),
    ])
    def test_keys_order_as_distances_and_yields(self, spec, n, dtype):
        inst = generate_orchard(spec)
        assert inst.n == n
        near, share = pick_keys(inst)
        assert near.dtype == dtype and share.dtype == dtype
        assert near.shape == inst.dist.shape
        for row in (0, 1, n // 2, n):
            order = inst.dist[row].argsort(kind="stable")
            assert np.array_equal(near[row].argsort(kind="stable"), order)
            keys, dists = near[row][order], inst.dist[row][order]
            assert np.array_equal(np.diff(keys.astype(int)) > 0, np.diff(dists) > 0)
            assert keys[0] == 0 and np.all(np.diff(keys.astype(int)) <= 1)
        yields = np.asarray(inst.yields)
        assert np.array_equal(share.argsort(kind="stable"), (-yields).argsort(kind="stable"))

    @pytest.mark.parametrize("spec", [
        OrchardSpec(20, 100, 0.6, seed=seed) for seed in (1, 42, 7001)
    ] + [OrchardSpec(40, 400, 0.8, seed=1), OrchardSpec(70, 1225, 0.8, seed=1)])
    def test_generated_orchards_take_the_integer_share_key(self, spec):
        assert pick_keys(generate_orchard(spec))[1] is not None

    def test_population_at_n965(self):
        inst = generate_orchard(OrchardSpec(70, 1225, 0.8, seed=1))
        pop = init_population(inst, 10)
        digest = hashlib.sha256(repr([sol.trips for sol in pop]).encode()).hexdigest()
        assert digest == N965_POPULATION_SHA256
