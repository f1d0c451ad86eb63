import math
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp.core import (
    ConfigurationError,
    GiantSolution,
    Instance,
    RepresentationError,
    build_distance_matrix,
    check_cover,
    decode_trips,
    evaluate,
    ordered_sum,
    trip_energy,
)

from conftest import random_instance


def assert_full_formula(coords):
    """The matrix equals, bit for bit, the squares of every coordinate
    difference summed over their last axis, rooted, with a zero diagonal."""
    pts = np.asarray(coords, dtype=float)
    n = len(pts)
    expected = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(expected, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = build_distance_matrix(coords)
    assert d.shape == (n, n) and d.dtype == np.float64
    assert d.tobytes() == expected.tobytes()


class TestDistanceMatrix:
    def test_three_four_five(self):
        d = build_distance_matrix([(0, 0), (3, 4)])
        assert d[0, 1] == 5.0
        assert d[1, 0] == 5.0

    def test_zero_diagonal_and_symmetry(self):
        rng = random.Random(7)
        coords = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(8)]
        d = build_distance_matrix(coords)
        assert np.all(np.diag(d) == 0)
        assert np.array_equal(d, d.T)

    def test_unit_square_diagonal(self):
        d = build_distance_matrix([(0, 0), (1, 0), (0, 1)])
        assert d[1, 2] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            build_distance_matrix([])

    @pytest.mark.parametrize("coords", [[(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)], [(0.0,), (1.0,)], [0.0, 1.0],
                                        [(0.0, 0.0), (1.0,)], [(0.0, 0.0), ("x", 1.0)]])
    def test_coordinates_not_pairs_rejected(self, coords):
        with pytest.raises(ConfigurationError, match=r"\(x, y\) pairs"):
            build_distance_matrix(coords)

    # Rows are built in blocks of 64.
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 300, 966, 1500])
    def test_bit_equal_to_full_formula(self, n):
        rng = random.Random(n)
        coords = [(rng.uniform(0, 70), rng.uniform(0, 70)) for _ in range(n)]
        assert_full_formula(coords)

    @pytest.mark.parametrize("n", [65, 129, 966])
    @pytest.mark.parametrize("kind", ["lattice", "negative", "wide"])
    def test_bit_equal_on_ties_signs_and_wide_ranges(self, kind, n):
        rng = random.Random(n)
        draw = {
            "lattice": lambda: 2.5 * rng.randint(0, 12),
            "negative": lambda: rng.uniform(-70, 0),
            "wide": lambda: rng.choice([-1, 1]) * rng.uniform(1, 10) * 10.0 ** rng.randint(-300, 149),
        }[kind]
        assert_full_formula([(draw(), draw()) for _ in range(n)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(min_value=-1e150, max_value=1e150)] * 2), min_size=1, max_size=20))
    def test_bit_equal_on_small_inputs(self, coords):
        assert_full_formula(coords)

    @pytest.mark.parametrize("n", [4, 200])
    def test_overflowing_distance_rejected_without_warning(self, n):
        coords = [(0.0, 0.0)] * n
        coords[1], coords[n - 1] = (1e200, 0.0), (0.0, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="distance between the depot and task 1 is not finite"):
                build_distance_matrix(coords)
            # Both differences are finite and so are their squares, but not
            # the sum of the squares.
            coords[1], coords[n - 1] = (1e154, 0.0), (0.0, 1e154)
            with pytest.raises(ConfigurationError, match=f"between task 1 and task {n - 1} is not finite"):
                build_distance_matrix(coords)

    @pytest.mark.parametrize("n", [3, 200])
    def test_read_only(self, n):
        d = build_distance_matrix([(i, i % 7) for i in range(n)])
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 1] = 1.0

    @pytest.mark.parametrize("n", [30, 200])
    def test_pickle_round_trip(self, n):
        rng = random.Random(3)
        inst = random_instance(rng, n)
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst
        assert np.array_equal(back.dist, inst.dist)
        assert np.array_equal(pickle.loads(pickle.dumps(inst.dist)), inst.dist)


class TestGiantSolution:
    def test_decode_splits_on_depot(self):
        sol = GiantSolution.from_tokens((0, 2, 8, 0, 5, 0))
        assert decode_trips(sol) == [(2, 8), (5,)]

    def test_singleton(self):
        assert decode_trips(GiantSolution.from_tokens((0, 1, 0))) == [(1,)]

    def test_single_trip(self):
        assert decode_trips(GiantSolution.from_tokens((0, 1, 2, 3, 0))) == [(1, 2, 3)]

    def test_duplicate_rejected(self):
        with pytest.raises(RepresentationError):
            GiantSolution.from_tokens((1, 2, 0, 1))

    def test_canonical_form_strips_boundary_and_doubled_zeros(self):
        assert GiantSolution.from_tokens((0, 0, 1, 0, 0, 2, 0)).tokens == (1, 0, 2)

    def test_trips_round_trip(self):
        trips = [(4, 2), (3,), (1, 5)]
        assert decode_trips(GiantSolution(trips)) == trips

    @pytest.mark.parametrize("trips", [[(1, 0, 2)], [(2,), (0,)], [(-1, 2)]])
    def test_id_below_one_rejected(self, trips):
        with pytest.raises(RepresentationError):
            GiantSolution(trips)

    @given(st.data())
    def test_trips_and_tokens_agree(self, data):
        perm = data.draw(st.permutations(range(1, data.draw(st.integers(0, 8)) + 1)))
        # zeros[i] markers go before perm[i], zeros[-1] after the last task;
        # every marker also opens a trip, so runs of markers give empty trips
        zeros = data.draw(st.lists(st.integers(0, 3), min_size=len(perm) + 1,
                                   max_size=len(perm) + 1))
        tokens: list[int] = []
        trips: list[list[int]] = [[]]
        for t, before in zip([*perm, None], zeros):
            tokens += [0] * before
            trips += [[] for _ in range(before)]
            if t is not None:
                tokens.append(t)
                trips[-1].append(t)
        built, read = GiantSolution(trips), GiantSolution.from_tokens(tokens)
        assert built == read and hash(built) == hash(read)
        assert built.trips == read.trips == tuple(tuple(trip) for trip in trips if trip)
        assert built.tokens == read.tokens
        assert read.tokens[:1] != (0,) and read.tokens[-1:] != (0,)
        assert all(a or b for a, b in zip(read.tokens, read.tokens[1:]))
        if perm:
            again = data.draw(st.sampled_from(perm))
            with pytest.raises(RepresentationError):
                GiantSolution([*trips, [again]])
            with pytest.raises(RepresentationError):
                GiantSolution.from_tokens([*tokens, again])

    @given(
        st.lists(st.integers(min_value=0, max_value=6), max_size=12).filter(
            lambda toks: len([t for t in toks if t]) == len({t for t in toks if t})
        )
    )
    def test_canonicalization_idempotent(self, tokens):
        sol = GiantSolution.from_tokens(tuple(tokens))
        again = GiantSolution.from_tokens(sol.tokens)
        assert again.tokens == sol.tokens
        assert 0 not in (sol.tokens[:1] + sol.tokens[-1:])


class TestTripEnergy:
    def test_single_task_by_hand(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0)),
            yields=(0.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
        # out empty: 10*20, back loaded: 10*(20+5)
        assert trip_energy((1,), inst) == pytest.approx(450.0)

    def test_two_tasks_by_hand(self, line_instance):
        # 10*20 + 10*(20+5) + 20*(20+10)
        assert trip_energy((1, 2), line_instance) == pytest.approx(1050.0)

    def test_degenerate_weightless(self):
        inst = Instance(
            coords=((0.0, 0.0), (3.0, 0.0), (3.0, 4.0)),
            yields=(0.0, 1e-300, 1e-300),
            capacity=1.0,
            robot_weight=1e-300,
        )
        assert trip_energy((1, 2), inst) == pytest.approx(0.0, abs=1e-290)

    def test_empty_trip_rejected(self, line_instance):
        with pytest.raises(RepresentationError):
            trip_energy((), line_instance)

    def test_unknown_id_rejected(self, line_instance):
        with pytest.raises(RepresentationError):
            trip_energy((9,), line_instance)

    def test_positive_when_weighted(self, line_instance):
        assert trip_energy((2,), line_instance) > 0


class TestEvaluate:
    def test_two_singleton_trips(self, line_instance):
        ev = evaluate(GiantSolution.from_tokens((1, 0, 2)), line_instance)
        assert ev.energy == pytest.approx(450.0 + 900.0)
        assert not ev.penalized
        assert not ev.penalized

    def test_overload_penalty_by_hand(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=8.0,
            robot_weight=20.0,
        )
        ev = evaluate(GiantSolution.from_tokens((1, 2)), inst)
        # expands to [1],[2]: 450 + (20*20 + 20*25)
        assert ev.energy == pytest.approx(1350.0)
        assert ev.penalized
        assert ev.penalized
        assert [t.tasks for t in ev.trips] == [(1,), (2,)]

    def test_zero_task_instance(self):
        inst = Instance(coords=((0.0, 0.0),), yields=(0.0,), capacity=10.0, robot_weight=1.0)
        ev = evaluate(GiantSolution.from_tokens(()), inst)
        assert ev.energy == 0.0
        assert not ev.penalized

    def test_missing_task_rejected(self, line_instance):
        with pytest.raises(RepresentationError):
            evaluate(GiantSolution.from_tokens((1,)), line_instance)

    @pytest.mark.parametrize("tasks, message", [
        ((1,), "solution does not cover the task set (missing=[2], unknown=[])"),
        ((1, 2, 3, 0), "solution does not cover the task set (missing=[], unknown=[0, 3])"),
        ((2, 1, 2), "task ids must be distinct"),
    ])
    def test_cover_errors(self, line_instance, tasks, message):
        for _ in range(2):  # the task set is built on the first call and kept
            with pytest.raises(RepresentationError) as err:
                check_cover(tasks, line_instance)
            assert str(err.value) == message
        check_cover((2, 1), line_instance)

    def test_decomposition_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = random_instance(rng, rng.randint(1, 9))
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            tokens = []
            for t in perm:
                if tokens and rng.random() < 0.3:
                    tokens.append(0)
                tokens.append(t)
            sol = GiantSolution.from_tokens(tuple(tokens))
            ev = evaluate(sol, inst)
            assert ev.energy == pytest.approx(
                sum(trip_energy(t.tasks, inst) for t in ev.trips), rel=1e-12
            )

    def test_penalized_flag_false_on_feasible(self):
        rng = random.Random(13)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 8))
            sol = GiantSolution([(t,) for t in inst.task_ids])
            ev = evaluate(sol, inst)
            assert not ev.penalized
            assert not ev.penalized

    def test_splitting_never_breaks_per_trip_loads(self):
        rng = random.Random(17)
        inst = random_instance(rng, 8)
        single = GiantSolution.from_tokens(tuple(inst.task_ids))
        split = GiantSolution([(1, 2, 3), (4, 5), (6, 7, 8)])
        def loads(sol):
            return [sum(inst.yields[task] for task in t.tasks) for t in evaluate(sol, inst).trips]

        before = max(loads(single))
        after = max(loads(split))
        assert after <= before


class TestOrderedSum:
    def test_adds_left_to_right_without_compensation(self):
        # a compensated sum (Python >= 3.12 `sum()`, `math.fsum`) gives 1.0
        values = [1e16, 1.0, -1e16]
        assert ordered_sum(values) == 0.0
        assert ordered_sum(iter(values)) == 0.0
        assert math.fsum(values) == 1.0

    def test_matches_plain_loop(self):
        rng = random.Random(3)
        for _ in range(100):
            values = [rng.uniform(-1e6, 1e6) for _ in range(rng.randint(0, 20))]
            total = 0.0
            for v in values:
                total = total + v
            assert ordered_sum(values) == total


class TestInstanceValidation:
    def test_yield_above_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Instance(
                coords=((0.0, 0.0), (1.0, 0.0)),
                yields=(0.0, 11.0),
                capacity=10.0,
                robot_weight=1.0,
            )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            Instance(
                coords=((0.0, 0.0), (1.0, 0.0)),
                yields=(0.0, 1.0),
                capacity=10.0,
                robot_weight=0.0,
            )

    @pytest.mark.parametrize("field, value", [
        ("coords", ((0.0, 0.0), (math.nan, 0.0))), ("coords", ((0.0, math.inf), (1.0, 0.0))),
        ("capacity", math.inf), ("capacity", math.nan), ("robot_weight", math.inf),
        ("robot_weight", math.nan),
    ])
    def test_non_finite_data_rejected(self, field, value):
        data = dict(coords=((0.0, 0.0), (1.0, 0.0)), yields=(0.0, 1.0), capacity=10.0,
                    robot_weight=1.0)
        with pytest.raises(ConfigurationError, match="finite"):
            Instance(**{**data, field: value})

    def test_triangle_inequality_from_euclidean(self):
        rng = random.Random(23)
        inst = random_instance(rng, 6)
        d = inst.dist
        k = inst.n + 1
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    assert d[i, j] <= d[i, l] + d[l, j] + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_depot_insertion_preserves_coverage(n, seed):
    rng = random.Random(seed)
    inst = random_instance(rng, n)
    perm = list(inst.task_ids)
    rng.shuffle(perm)
    sol = GiantSolution.from_tokens(tuple(perm))
    cut = rng.randint(0, len(perm))
    with_sep = GiantSolution.from_tokens(tuple(perm[:cut]) + (0,) + tuple(perm[cut:]))
    tasks_of = lambda s: sorted(t for trip in decode_trips(s) for t in trip)
    assert tasks_of(with_sep) == tasks_of(sol)
