import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp import scheduler
from orchard_mtvrp.core import (
    GiantSolution,
    Instance,
    decode_trips,
    evaluate,
    expand_overloads,
    ordered_sum,
    trip_energy,
)
from orchard_mtvrp.evolution import SolverConfig
from orchard_mtvrp.ilbim import init_population
from orchard_mtvrp.instances import OrchardSpec, generate_orchard
from orchard_mtvrp.oracle import exact_schedule
from orchard_mtvrp.scheduler import (
    Framework,
    RepairStatus,
    Schedule,
    makespan_assign,
    repair,
    score_with_framework,
    thresholds,
)

from conftest import random_instance


def _charged(sol, inst):
    """The energies `evaluate` charges for the trips of `sol`, as a run hands
    them to `repair` and `score_with_framework`."""
    return [t.energy for t in evaluate(sol, inst).trips]


def _validate(schedule: Schedule, energies, m, e_max):
    assert len(schedule.assignment) == len(energies)
    assert all(0 <= r < m for r in schedule.assignment)
    loads = [0.0] * m
    for i, r in enumerate(schedule.assignment):
        loads[r] += energies[i]
    for expected, reported in zip(loads, schedule.robot_energies):
        assert reported == pytest.approx(expected)
        assert reported <= e_max + 1e-9


class TestMakespanAssign:
    def test_perfect_fit(self):
        s = makespan_assign([5.0, 5.0, 5.0], 3, 5.0)
        assert s is not None
        assert sorted(s.assignment) == [0, 1, 2]
        _validate(s, [5.0, 5.0, 5.0], 3, 5.0)

    def test_sum_bound_infeasible(self):
        assert makespan_assign([6.0, 5.0], 1, 10.0) is None

    def test_hand_case(self):
        s = makespan_assign([4.0, 3.0, 3.0, 2.0, 2.0], 2, 7.0)
        assert s is not None
        _validate(s, [4.0, 3.0, 3.0, 2.0, 2.0], 2, 7.0)

    def test_single_energy_above_bound(self):
        assert makespan_assign([11.0, 1.0], 4, 10.0) is None

    def test_ffd_miss_exact_hit(self):
        # FFD packs 6,4 | 5 and strands 3+3; the exact search finds 6,3 | 5,4  wait
        energies = [6.0, 5.0, 4.0, 3.0, 3.0]
        s = makespan_assign(energies, 2, 11.0)
        assert s is not None
        _validate(s, energies, 2, 11.0)

    def test_agrees_with_exhaustive_oracle(self):
        # the second half draws trips between a third and three quarters of
        # the bound, where the L2 lower bound rejects inputs that pass the
        # per-trip and total-energy checks
        rng = random.Random(55)
        l2_rejected = 0
        for case in range(2000):
            t = rng.randint(1, 10)
            m = rng.randint(1, 4)
            e_max = rng.uniform(5.0, 20.0)
            if case < 1000:
                energies = [rng.uniform(0.5, 10.0) for _ in range(t)]
            else:
                energies = [e_max * rng.uniform(0.34, 0.75) for _ in range(t)]
            witness = makespan_assign(energies, m, e_max)
            feasible = exact_schedule(energies, m, e_max)
            assert (witness is not None) == feasible
            if witness is not None:
                _validate(witness, energies, m, e_max)
            l2_rejected += (
                t > m
                and max(energies) <= e_max
                and sum(energies) <= m * e_max
                and scheduler._robots_lower_bound(energies, e_max) > m
            )
        assert l2_rejected > 50

    def test_empty_trip_list(self):
        s = makespan_assign([], 2, 1.0)
        assert s is not None
        assert s.assignment == ()

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_max_item_test_is_the_scan_of_every_trip(self, data):
        """The max-item rejection reads `max(energies, default=0.0) > e_max`:
        on non-negative finite energies and a positive bound, the empty list
        and bounds equal to a trip's energy included, it gives the verdict
        of scanning every trip, and a rejected input has no witness."""
        energies = data.draw(st.lists(st.floats(0.0, 50.0), max_size=10))
        if energies and data.draw(st.booleans()):
            e_max = data.draw(st.sampled_from(energies).filter(lambda e: e > 0))
        else:
            e_max = data.draw(st.floats(0.0, 60.0, exclude_min=True))
        over = any(e > e_max for e in energies)
        assert (max(energies, default=0.0) > e_max) == over
        m = data.draw(st.integers(1, 4))
        witness = makespan_assign(energies, m, e_max)
        assert (witness is not None) == exact_schedule(energies, m, e_max)
        if over:
            assert witness is None


# The rejection steps of makespan_assign as they were before the one-pass L2
# bound and dominance pruning: the fast forms must give their answers.


def _reference_robots_lower_bound(energies, e_max):
    items = sorted(energies, reverse=True)
    best = 1
    thresholds_ = sorted({e for e in items if e <= e_max / 2})
    for alpha in [0.0, *thresholds_]:
        huge = [e for e in items if e > e_max - alpha]
        large = [e for e in items if e_max - alpha >= e > e_max / 2]
        medium = [e for e in items if e_max / 2 >= e >= alpha]
        spare = len(large) * e_max - ordered_sum(large)
        overflow = ordered_sum(medium) - spare
        bound = len(huge) + len(large)
        if overflow > 0:
            bound += math.ceil(overflow / e_max - 1e-12)
        best = max(best, bound)
    return best


def _reference_exact_search(order, energies, m, e_max):
    items = [(energies[i], i) for i in order]
    assignment = [-1] * len(energies)
    dead = set()

    def solve(remaining, robots_left, robot):
        if not remaining:
            return True
        if robots_left <= 0:
            return False
        if len(remaining) <= robots_left:
            for e, i in remaining:
                assignment[i] = robot
                robot += 1
            return True
        if ordered_sum(e for e, _ in remaining) > robots_left * e_max * (1 + 1e-12):
            return False
        key = (frozenset(i for _, i in remaining), robots_left)
        if key in dead:
            return False
        anchor_e, anchor_i = remaining[0]
        pool = remaining[1:]
        for chosen in _reference_maximal_completions(pool, e_max - anchor_e):
            assignment[anchor_i] = robot
            chosen_ids = set()
            for e, i in chosen:
                assignment[i] = robot
                chosen_ids.add(i)
            rest = [it for it in pool if it[1] not in chosen_ids]
            if solve(rest, robots_left - 1, robot + 1):
                return True
        dead.add(key)
        return False

    if solve(items, m, 0):
        loads = [0.0] * m
        for i, r in enumerate(assignment):
            if r >= 0:
                loads[r] += energies[i]
        return Schedule(tuple(assignment), tuple(loads))
    return None


def _reference_maximal_completions(pool, capacity):
    out = []
    chosen = []

    def rec(i, cap_left, min_excluded):
        if i == len(pool):
            if min_excluded > cap_left:
                out.append((capacity - cap_left, list(chosen)))
            return
        e, idx = pool[i]
        if e <= cap_left:
            chosen.append((e, idx))
            rec(i + 1, cap_left - e, min_excluded)
            chosen.pop()
        rec(i + 1, cap_left, min(min_excluded, e))

    rec(0, capacity, math.inf)
    out.sort(key=lambda pair: -pair[0])
    return [subset for _, subset in out]


def _assignment_case(rng):
    """Up to 22 trip energies, none above e_max, and 1 to 8 robots, mostly
    about as many as their volume needs, so the search has work to do.
    A quarter of the cases draw whole numbers (many ties), a quarter one or
    two decimals, whose sums land exactly on e_max, and a quarter fill 2 to
    5 robots to exactly e_max with whole numbers; a fifth of the cases have
    a trip of exactly e_max."""
    t = rng.randint(1, 22)
    kind = rng.randrange(4)
    if kind == 3:
        m, e_max = rng.randint(2, 5), float(rng.randint(10, 30))
        energies = []
        for _ in range(m):
            left = int(e_max)
            while left > 0 and len(energies) < 22:
                part = min(left, rng.randint(1, int(e_max * 0.6)))
                energies.append(float(part))
                left -= part
        rng.shuffle(energies)
        return energies, m, e_max
    if kind == 0:
        e_max = rng.uniform(1.0, 100.0)
        energies = [rng.uniform(0.02, 1.0) * e_max for _ in range(t)]
    elif kind == 1:
        e_max = rng.choice([0.7, 1.0, 1.2, 2.5])
        energies = [round(rng.uniform(0.01, 1.0) * e_max, rng.choice([1, 2])) for _ in range(t)]
    else:
        e_max = float(rng.randint(5, 30))
        energies = [float(rng.randint(1, int(e_max))) for _ in range(t)]
    energies = [min(e, e_max) for e in energies if e > 0] or [e_max]
    if rng.random() < 0.2:
        energies[rng.randrange(len(energies))] = e_max
    needed = math.ceil(ordered_sum(energies) / e_max)
    m = min(8, max(1, needed + rng.choice((-1, 0, 0, 1))))
    return energies, m, e_max


def _decreasing(energies):
    return sorted(range(len(energies)), key=lambda i: (-energies[i], i))


class TestRejectionStepsMatchReference:
    def test_lower_bound(self):
        rng = random.Random(61)
        above_m = 0
        for _ in range(4000):
            energies, m, e_max = _assignment_case(rng)
            bound = scheduler._robots_lower_bound(energies, e_max)
            assert bound == _reference_robots_lower_bound(energies, e_max), (energies, e_max)
            above_m += bound > m
        assert above_m > 500

    def test_maximal_completions(self):
        rng = random.Random(62)
        for _ in range(3000):
            energies, _, e_max = _assignment_case(rng)
            pool = [(energies[i], i) for i in _decreasing(energies)][:16]
            if rng.random() < 0.5:
                capacity = e_max - pool[0][0]
                pool = pool[1:]
            else:
                capacity = rng.choice([rng.uniform(0.0, 1.2) * e_max, e_max, 0.0])
            got = scheduler._maximal_completions(pool, capacity)
            assert got == _reference_maximal_completions(pool, capacity), (pool, capacity)

    def test_exact_search_verdict_and_witness(self):
        rng = random.Random(63)
        verdicts = {True: 0, False: 0}
        for _ in range(4000):
            energies, m, e_max = _assignment_case(rng)
            order = _decreasing(energies)
            got = scheduler._exact_search(order, energies, m, e_max)
            assert got == _reference_exact_search(order, energies, m, e_max), (energies, m, e_max)
            verdicts[got is not None] += 1
        assert min(verdicts.values()) > 1000

    def test_a_longer_completion_is_not_dominated(self):
        # The anchor 15 leaves 10: {5, 5} comes first and fails, since
        # 11, 11, 9, 9, 4, 4, 2 do not fill two robots to exactly 25; {4, 4, 2}
        # is no larger rank by rank but longer, and its remainder 11 + 9 + 5
        # twice is the witness.
        energies = [15.0, 11.0, 11.0, 9.0, 9.0, 5.0, 5.0, 4.0, 4.0, 2.0]
        assert scheduler._first_fit(_decreasing(energies), energies, 3, 25.0) is None
        assert scheduler._robots_lower_bound(energies, 25.0) == 3
        witness = makespan_assign(energies, 3, 25.0)
        assert witness == _reference_exact_search(_decreasing(energies), energies, 3, 25.0)
        assert witness.robot_energies == (25.0, 25.0, 25.0)

    def test_benchmark_exact_input_takes_at_most_half_the_completion_calls(self, monkeypatch):
        # `benchmarks/test_kernels.py`'s "exact" input: 14 trips that the exact
        # search proves unassignable to 8 robots. Before dominance pruning the
        # proof called _maximal_completions 5 times.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "test_kernels.py"
        spec = importlib.util.spec_from_file_location("kernel_benchmarks", path)
        kernels = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernels)
        energies, e_max = kernels._makespan_input("exact"), kernels._bound()
        assert kernels._deciding_step(energies, kernels.ROBOTS, e_max) == "exact"
        calls = 0
        original = scheduler._maximal_completions

        def counting(pool, capacity, *args):
            nonlocal calls
            calls += 1
            return original(pool, capacity, *args)

        monkeypatch.setattr(scheduler, "_maximal_completions", counting)
        assert makespan_assign(energies, kernels.ROBOTS, e_max) is None
        assert 0 < calls <= 5 / 2


class TestRepair:
    def _line(self, capacity=100.0):
        return Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=capacity,
            robot_weight=20.0,
        )

    def test_feasible_input_unchanged(self):
        inst = self._line()
        sol = GiantSolution.from_tokens((1, 0, 2))
        out, status = repair(sol, inst, 2, 1e6, _charged(sol, inst))
        assert status is RepairStatus.REPAIRED
        assert out.solution == sol

    def test_long_trip_split_to_meet_bound(self):
        inst = self._line()
        sol = GiantSolution.from_tokens((1, 2))  # single trip, energy 1050
        # two robots, bound below 1050 but above each singleton trip energy
        out, status = repair(sol, inst, 2, 1000.0, _charged(sol, inst))
        assert status is RepairStatus.REPAIRED
        trips = decode_trips(out.solution)
        assert sorted(t for trip in trips for t in trip) == [1, 2]
        energies = [trip_energy(t, inst) for t in trips]
        assert makespan_assign(energies, 2, 1000.0) is not None

    def test_unsatisfiable_bound_reports_infeasible(self):
        inst = self._line()
        sol = GiantSolution.from_tokens((1, 2))
        out, status = repair(sol, inst, 2, 100.0, _charged(sol, inst))
        assert status is RepairStatus.INFEASIBLE
        assert sorted(t for trip in decode_trips(out.solution) for t in trip) == [1, 2]

    def test_contracts_on_constructed_infeasible_fixtures(self):
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            inst = random_instance(rng, rng.randint(3, 9))
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            tokens: list[int] = []
            for t in perm:
                if tokens and rng.random() < 0.25:
                    tokens.append(0)
                tokens.append(t)
            sol = GiantSolution.from_tokens(tuple(tokens))
            ev = evaluate(sol, inst)
            energies = [t.energy for t in ev.trips]
            m = rng.randint(1, 3)
            # bound between the best possible single-trip maximum and the
            # current makespan so the input is infeasible but repair has room
            e_max = max(energies) * rng.uniform(0.55, 0.95)
            if makespan_assign(energies, m, e_max) is not None:
                continue
            checked += 1
            reference, reference_status, trace, _ = _reference_repair(sol, inst, m, e_max)
            out, status = repair(sol, inst, m, e_max, energies)
            assert (out.solution, status) == (reference, reference_status)
            out_trips = decode_trips(out.solution)
            assert sorted(t for trip in out_trips for t in trip) == sorted(perm)
            for trip in out_trips:
                assert sum(inst.yields[t] for t in trip) <= inst.capacity + 1e-9
            for previous, new in trace:
                assert new <= previous + 1e-9
            out_energies = [trip_energy(t, inst) for t in out_trips]
            if status is RepairStatus.REPAIRED:
                assert makespan_assign(out_energies, m, e_max) is not None
            else:
                assert makespan_assign(out_energies, m, e_max) is None

    def test_capacity_overflow_expanded_before_split(self):
        inst = self._line(capacity=8.0)
        sol = GiantSolution.from_tokens((1, 2))  # load 10 > 8, expansion forced
        out, status = repair(sol, inst, 2, 1e6, _charged(sol, inst))
        assert status is RepairStatus.REPAIRED
        assert decode_trips(out.solution) == [(1,), (2,)]


def _reference_repair(sol, inst, m, e_max):
    """repair as it was before it kept the trip energies in step with the
    trips: every feasibility check and the queue order recompute every trip
    energy. Like `repair`, a failed repair makes no closing re-check of the
    trips its last check rejected. Returns the result, the status, the accepted moves as
    (previous_combined, new_combined) and the number of moves tried."""
    expanded, _ = expand_overloads(sol.trips, inst)
    trips = [list(t) for t in expanded]
    trace: list[tuple[float, float]] = []
    tried = 0

    def feasible():
        return scheduler.makespan_assign([trip_energy(t, inst) for t in trips], m, e_max) is not None

    def done(status):
        return GiantSolution(trips), status, trace, tried

    if feasible():
        return done(RepairStatus.REPAIRED)
    queue = sorted(range(len(trips)), key=lambda i: (-trip_energy(trips[i], inst), i))
    for trip_a in [trips[i] for i in queue]:
        trip_b: list[int] = []
        z_com = math.inf
        while len(trip_a) > 1:
            tried += 1
            task = trip_a.pop()
            trip_b.insert(0, task)
            e_new = trip_energy(trip_a, inst) + trip_energy(trip_b, inst)
            if e_new > z_com:
                trip_b.pop(0)
                trip_a.append(task)
                break
            trace.append((z_com, e_new))
            z_com = e_new
            if len(trip_b) == 1:
                trips.insert(trips.index(trip_a) + 1, trip_b)
            if feasible():
                return done(RepairStatus.REPAIRED)
    return done(RepairStatus.INFEASIBLE)


def _repair_cases(rng, count):
    """Random solutions, many with overloaded trips, with a bound below
    their current makespan so that repair has to move tasks."""
    while count:
        inst = random_instance(rng, rng.randint(2, 14), capacity=rng.choice((12.0, 20.0, None)))
        perm = list(inst.task_ids)
        rng.shuffle(perm)
        tokens: list[int] = []
        for t in perm:
            if tokens and rng.random() < 0.2:
                tokens.append(0)
            tokens.append(t)
        sol = GiantSolution.from_tokens(tuple(tokens))
        energies = _charged(sol, inst)
        m = rng.randint(1, 4)
        e_max = max(energies) * rng.uniform(0.3, 1.1)
        yield sol, inst, m, e_max
        count -= 1


class TestRepairAgainstRecomputingReference:
    def test_same_result_trace_and_checks(self, monkeypatch):
        checks: list[tuple[tuple[float, ...], int, float]] = []
        original = scheduler.makespan_assign

        def recording(energies, m, e_max):
            checks.append((tuple(energies), m, e_max))
            return original(energies, m, e_max)

        monkeypatch.setattr(scheduler, "makespan_assign", recording)
        rng = random.Random(21)
        statuses = set()
        overloaded = 0
        for sol, inst, m, e_max in _repair_cases(rng, 400):
            overloaded += evaluate(sol, inst).penalized
            checks.clear()
            out, status, trace, _ = _reference_repair(sol, inst, m, e_max)
            reference = (out, out.trips, status, list(checks))
            energies = _charged(sol, inst)
            checks.clear()
            got, got_status = repair(sol, inst, m, e_max, energies)
            assert (got.solution, got.solution.trips, got_status, checks) == reference
            assert all(new <= previous for previous, new in trace)
            statuses.add(status)
        assert statuses == set(RepairStatus)
        assert overloaded > 50

    def test_each_move_computes_two_trip_energies(self, monkeypatch):
        calls = 0
        original = scheduler.trip_energy

        def counting(trip, inst):
            nonlocal calls
            calls += 1
            return original(trip, inst)

        rng = random.Random(22)
        moved = 0
        for sol, inst, m, e_max in _repair_cases(rng, 200):
            reference, _, _, tried = _reference_repair(sol, inst, m, e_max)
            moved += tried > 0
            energies = _charged(sol, inst)
            monkeypatch.setattr(scheduler, "trip_energy", counting)
            calls = 0
            out, _ = repair(sol, inst, m, e_max, energies)
            assert calls == 2 * tried
            monkeypatch.undo()
            assert out.solution == reference
        assert moved > 50


def _peel(trip, inst):
    """The pieces one trip leaves when `repair` fails, from the move-accept
    rule: cutting before the last task, then one task earlier each time,
    the first cut is always taken, and each later one while its head and
    tail cost no more than the pair of the cut before; a one-task trip
    stays whole."""
    if len(trip) == 1:
        return [trip]
    pairs = [(trip[:cut], trip[cut:]) for cut in range(len(trip) - 1, 0, -1)]
    costs = [trip_energy(head, inst) + trip_energy(tail, inst) for head, tail in pairs]
    taken = 1
    while taken < len(costs) and costs[taken] <= costs[taken - 1]:
        taken += 1
    return list(pairs[taken - 1])


class TestFailedRepairIsPerTripPeels:
    """A trip's peel depends on that trip alone: when `repair` fails, its
    trips are each expanded input trip's peel, in trip order."""

    def _check(self, sol, inst, m, e_max):
        out, status = repair(sol, inst, m, e_max, _charged(sol, inst))
        if status is RepairStatus.REPAIRED:
            return False
        expanded, _ = expand_overloads(sol.trips, inst)
        assert out.solution.trips == tuple(piece for trip in expanded for piece in _peel(trip, inst))
        return True

    def test_random_cases(self):
        failed = sum(self._check(*case) for case in _repair_cases(random.Random(23), 400))
        assert failed > 50

    def test_a_cut_that_ties_the_pair_before_is_taken(self):
        """Three tasks at one point: both cuts of their trip cost 21, so the
        walk takes the second. Generated orchards almost never tie."""
        inst = Instance(
            coords=((0.0, 0.0),) + ((3.0, 0.0),) * 3,
            yields=(0.0, 1.0, 1.0, 1.0),
            capacity=10.0,
            robot_weight=1.0,
        )
        sol = GiantSolution.from_tokens((1, 2, 3))
        assert self._check(sol, inst, 1, 1.0)
        assert repair(sol, inst, 1, 1.0, _charged(sol, inst))[0].solution.trips == ((1,), (2, 3))

    def test_paper_scale_failure(self):
        """ILBIM individual 3 at n=965 with 8 robots at 0.395 of Z_single / 8,
        the bounded paper-scale run where every repair fails."""
        inst = generate_orchard(OrchardSpec(70, 1225, 0.8, seed=1))
        sol = init_population(inst, SolverConfig.population)[3]
        z_single = math.fsum(trip_energy((t,), inst) for t in inst.task_ids)
        assert self._check(sol, inst, 8, 0.395 * z_single / 8)


class TestRepairScoresItsResult:
    def test_energy_and_witness_match_a_fresh_scoring(self):
        rng = random.Random(21)
        statuses = set()
        for sol, inst, m, e_max in _repair_cases(rng, 400):
            out, status = repair(sol, inst, m, e_max, _charged(sol, inst))
            statuses.add(status)
            if status is RepairStatus.INFEASIBLE:
                assert out.energy == math.inf
                assert out.schedule is None
                continue
            ev = evaluate(out.solution, inst)
            assert not ev.penalized
            assert out.energy == ev.energy
            _validate(out.schedule, [t.energy for t in ev.trips], m, e_max)
        assert statuses == set(RepairStatus)


class TestThresholds:
    def test_arithmetic(self):
        assert thresholds(300.0, 2) == (225.0, 255.0)
        assert thresholds(300.0, 5) == (90.0, 102.0)

    def test_six_scenarios_shape(self):
        scenarios = [
            (m, bound)
            for m in (2, 5, 8)
            for bound in thresholds(300.0, m)
        ]
        assert len(scenarios) == 6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            thresholds(0.0, 2)
        with pytest.raises(ValueError):
            thresholds(10.0, 0)


class TestFrameworkScoring:
    def test_unbounded_emax_matches_plain_evaluation(self):
        rng = random.Random(3)
        inst = random_instance(rng, 6)
        sol = GiantSolution([(t,) for t in inst.task_ids])
        plain = evaluate(sol, inst).energy
        for fw in Framework:
            scored = score_with_framework(sol, inst, 2, math.inf, fw, _charged(sol, inst))
            assert scored.energy == pytest.approx(plain)
            assert scored.solution == sol

    def test_fr1_repairs_in_place(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
        sol = GiantSolution.from_tokens((1, 2))
        scored = score_with_framework(sol, inst, 2, 1000.0, Framework.FR1, _charged(sol, inst))
        assert scored.schedule is not None
        assert scored.energy < math.inf
        assert len(decode_trips(scored.solution)) == 2

    def test_fr1_marks_unrepairable_infinite(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
        sol = GiantSolution.from_tokens((1, 2))
        scored = score_with_framework(sol, inst, 2, 100.0, Framework.FR1, _charged(sol, inst))
        assert scored.energy == math.inf
        assert scored.schedule is None

    def test_fr2_marks_infeasible_without_repair(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
        sol = GiantSolution.from_tokens((1, 2))
        scored = score_with_framework(sol, inst, 2, 1000.0, Framework.FR2, _charged(sol, inst))
        assert scored.energy == math.inf
        assert scored.solution == sol

    def test_fr3_ignores_bound_during_run(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
        sol = GiantSolution.from_tokens((1, 2))
        scored = score_with_framework(sol, inst, 2, 100.0, Framework.FR3, _charged(sol, inst))
        assert scored.energy == pytest.approx(1050.0)
        assert scored.schedule is None


class TestLargeTripFallback:
    def test_witness_found_beyond_exact_limit(self):
        rng = random.Random(2)
        energies = [rng.uniform(1.0, 3.0) for _ in range(25)]
        s = makespan_assign(energies, 5, 16.0)
        assert s is not None
        _validate(s, energies, 5, 16.0)

    def test_sum_bound_still_exact_beyond_limit(self):
        energies = [2.0] * 25
        assert makespan_assign(energies, 2, 20.0) is None

    def test_search_finds_witness_after_first_fit_decreasing_fails(self):
        energies = [0.34, 0.27, 0.42, 0.12, 0.4, 0.47, 0.37, 0.53, 0.13, 0.37, 0.11, 0.29,
                    0.48, 0.13, 0.53, 0.56, 0.14, 0.57, 0.27, 0.23, 0.17, 0.48, 0.11, 0.34]
        assert len(energies) > scheduler.EXACT_TRIP_LIMIT
        decreasing = sorted(range(len(energies)), key=lambda i: (-energies[i], i))
        assert scheduler._first_fit(decreasing, energies, 8, 1.0) is None
        assert scheduler._robots_lower_bound(energies, 1.0) <= 8
        s = makespan_assign(energies, 8, 1.0)
        assert s is not None
        _validate(s, energies, 8, 1.0)

    def test_assignable_input_beyond_limit_is_placed(self):
        energies = [0.45, 0.44, 0.43, 0.42, 0.41, 0.41, 0.39, 0.38, 0.35, 0.35, 0.34, 0.32,
                    0.32, 0.31, 0.3, 0.3, 0.27, 0.27, 0.27, 0.26, 0.26, 0.21, 0.21, 0.21]
        decreasing = sorted(range(len(energies)), key=lambda i: (-energies[i], i))
        witness = scheduler._exact_search(decreasing, energies, 8, 1.0)
        assert witness is not None
        _validate(witness, energies, 8, 1.0)
        s = makespan_assign(energies, 8, 1.0)
        assert s is not None
        _validate(s, energies, 8, 1.0)

    def test_a_budget_short_of_the_witness_gives_none(self, monkeypatch):
        # The search places this input at its 568th step: with fewer steps it
        # stops with None, never with another witness.
        energies = [0.45, 0.44, 0.43, 0.42, 0.41, 0.41, 0.39, 0.38, 0.35, 0.35, 0.34, 0.32,
                    0.32, 0.31, 0.3, 0.3, 0.27, 0.27, 0.27, 0.26, 0.26, 0.21, 0.21, 0.21]
        witness = scheduler._exact_search(_decreasing(energies), energies, 8, 1.0)
        for budget, expected in ((1, None), (567, None), (568, witness), (569, witness)):
            monkeypatch.setattr(scheduler, "_SEARCH_STEPS", budget)
            assert makespan_assign(energies, 8, 1.0) == expected, budget


def _fixture_case(case):
    return [float.fromhex(e) for e in case["energies"]], case["robots"], float.fromhex(case["e_max"])


def _reaches_search(energies, m, e_max):
    """Whether `makespan_assign` hands the input to `_exact_search`: it passes
    the max and sum tests, fails first-fit-decreasing and passes L2."""
    return (max(energies) <= e_max and ordered_sum(energies) <= m * e_max * (1 + 1e-12)
            and len(energies) > m
            and scheduler._first_fit(_decreasing(energies), energies, m, e_max) is None
            and scheduler._robots_lower_bound(energies, e_max) <= m)


class TestSearchAboveLimit:
    """The search under its step budget, above EXACT_TRIP_LIMIT trips: on the
    inputs measured runs handed it, from `tests/fixtures/search_above_limit.json`
    (its "about" says which runs), and on random ones."""

    FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "search_above_limit.json").read_text())

    @pytest.mark.parametrize("index", [0, 1])
    def test_run_input_is_placed_with_the_unbudgeted_witness(self, index):
        # 37 and 38 trips on 8 robots, placed at 38,644 and 58,312 steps.
        energies, m, e_max = _fixture_case(self.FIXTURE["placed"][index])
        assert len(energies) > scheduler.EXACT_TRIP_LIMIT and _reaches_search(energies, m, e_max)
        s = makespan_assign(energies, m, e_max)
        assert s is not None
        assert s == scheduler._exact_search(_decreasing(energies), energies, m, e_max)
        _validate(s, energies, m, e_max)

    def test_paper_scale_input_gives_up_within_the_budget(self, monkeypatch):
        # 336 trips on 100 robots, their energies 99.7 % of m * e_max.
        energies, m, e_max = _fixture_case(self.FIXTURE["giveup"])
        assert len(energies) == 336 and _reaches_search(energies, m, e_max)
        used = 0
        original = scheduler._maximal_completions

        def counting(pool, capacity, steps):
            def step(_):
                nonlocal used
                used += 1
            return original(pool, capacity, map(step, steps))

        monkeypatch.setattr(scheduler, "_maximal_completions", counting)
        assert makespan_assign(energies, m, e_max) is None
        assert used == scheduler._SEARCH_STEPS

    def test_any_witness_is_the_unbudgeted_one(self):
        # 23 to 28 trips and as many robots as their volume needs: half fill
        # robots to exactly e_max with whole numbers, half draw two decimals.
        rng = random.Random(64)
        outcomes = {True: 0, False: 0}
        for _ in range(1500):
            t = rng.randint(23, 28)
            if rng.random() < 0.5:
                e_max, energies = float(rng.randint(10, 30)), []
                while len(energies) < t:
                    left = int(e_max)
                    while left > 0 and len(energies) < t:
                        part = min(left, rng.randint(1, int(e_max * 0.6)))
                        energies.append(float(part))
                        left -= part
                rng.shuffle(energies)
            else:
                e_max, energies = 1.0, [round(rng.uniform(0.05, 0.6), 2) for _ in range(t)]
            m = math.ceil(ordered_sum(energies) / e_max)
            if not _reaches_search(energies, m, e_max):
                continue
            s = makespan_assign(energies, m, e_max)
            outcomes[s is not None] += 1
            if s is not None:
                assert s == scheduler._exact_search(_decreasing(energies), energies, m, e_max)
        assert outcomes[True] > 50 and outcomes[False] > 5, outcomes
