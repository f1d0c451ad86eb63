"""The split program and the trip energy against their numpy-indexing forms.

`evolution._resplit` and `core.trip_energy` read the distance matrix in
whatever way is fastest, but must do the same floating-point operations in
the same order as the straightforward versions below, which index the numpy
matrix once per arc; the split runs over a batch of permutations at once,
and each column must come out as the one-permutation loop below splits it.
Results are compared exactly: equal tokens for the split, equal Python
floats for the energy, and the split's trip energies, priced from a trip
cache, equal to `trip_energy`'s.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp.clsm import TripCache
from orchard_mtvrp.core import GiantSolution, Instance, RepresentationError, trip_energy
from orchard_mtvrp.evolution import _SURVIVAL_MARGIN, _resplit, mutate
from orchard_mtvrp.instances import OrchardSpec, generate_orchard


def resplit_reference(perm: Sequence[int], inst: Instance) -> GiantSolution:
    """The optimal split, indexing the numpy matrix once or twice per arc."""
    n = len(perm)
    if n == 0:
        return GiantSolution.from_tokens(())
    _, cut_before = _split_program_reference(perm, inst)
    trips: list[tuple[int, ...]] = []
    end = n
    while end > 0:
        start = cut_before[end]
        trips.append(tuple(perm[start:end]))
        end = start
    return GiantSolution(reversed(trips))


def _split_program_reference(perm: Sequence[int], inst: Instance) -> tuple[list[float], list[int]]:
    """The split program's best totals and cuts: `best[j]` is the least
    total over the splits of `perm[:j]`, and its last trip starts at
    `cut_before[j]`."""
    n = len(perm)
    d = inst.dist
    w = inst.robot_weight
    best = [math.inf] * (n + 1)
    cut_before = [0] * (n + 1)
    best[0] = 0.0
    for i in range(n):
        if best[i] == math.inf:
            continue
        load = 0.0
        open_energy = d[0, perm[i]] * w
        for j in range(i, n):
            load += inst.yields[perm[j]]
            if load > inst.capacity:
                break
            if j > i:
                open_energy += d[perm[j - 1], perm[j]] * (w + load - inst.yields[perm[j]])
            total = best[i] + open_energy + d[perm[j], 0] * (w + load)
            if total < best[j + 1]:
                best[j + 1] = total
                cut_before[j + 1] = i
    return best, cut_before


def trip_energy_reference(trip_tasks: Sequence[int], inst: Instance) -> float:
    """One trip's energy, indexing the numpy matrix once per arc."""
    d = inst.dist
    w = inst.robot_weight
    energy = d[0, trip_tasks[0]] * w
    load = inst.yields[trip_tasks[0]]
    for prev, nxt in zip(trip_tasks, trip_tasks[1:]):
        energy += d[prev, nxt] * (w + load)
        load += inst.yields[nxt]
    energy += d[trip_tasks[-1], 0] * (w + load)
    return float(energy)


CAPACITY = 12.0


@st.composite
def instances(draw, max_n: int = 14, lattice: bool = False) -> Instance:
    """Small instances built to produce ties and boundary loads: lattice or
    free coordinates, and yields that either divide the capacity exactly,
    are free, or all exceed half the capacity (so every trip is a singleton).
    `lattice` puts the tasks on integer points of one line through the
    depot, with exact yields: every distance is an integer and every sum
    exact, so cut sets of equal cost tie exactly."""
    n = draw(st.integers(1, max_n))
    grid = lattice or draw(st.booleans())
    coord = st.integers(0, 6).map(float) if grid else st.floats(0, 50, allow_nan=False)
    if lattice:
        coords = [(0.0, 0.0)] + [(draw(st.integers(-3, 3).map(float)), 0.0) for _ in range(n)]
    else:
        coords = [(0.0, 0.0)] + [(draw(coord), draw(coord)) for _ in range(n)]
    kind = "exact" if lattice else draw(st.sampled_from(["exact", "free", "over-half"]))
    if kind == "exact":
        task_yield = st.sampled_from([CAPACITY / k for k in (1, 2, 3, 4, 6)])
    elif kind == "free":
        task_yield = st.floats(0.5, CAPACITY, allow_nan=False)
    else:
        task_yield = st.floats(CAPACITY / 2, CAPACITY, exclude_min=True, allow_nan=False)
    yields = [0.0] + [draw(task_yield) for _ in range(n)]
    weight = draw(st.sampled_from([1.0, 4.0, 7.5, 40.0]))
    return Instance(tuple(coords), tuple(yields), CAPACITY, weight)


@st.composite
def instance_and_perm(draw, max_n: int = 14, lattice: bool = False) -> tuple[Instance, list[int]]:
    inst = draw(instances(max_n, lattice))
    return inst, draw(st.permutations(list(inst.task_ids)))


@st.composite
def instance_and_perms(draw, max_n: int = 14, lattice: bool = False) -> tuple[Instance, list[list[int]]]:
    """One instance and a batch of 1-6 of its task permutations."""
    inst = draw(instances(max_n, lattice))
    perms = draw(st.lists(st.permutations(list(inst.task_ids)), min_size=1, max_size=6))
    return inst, perms


class TestResplitMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(instance_and_perm())
    def test_same_split(self, case):
        inst, perm = case
        expected = resplit_reference(perm, inst)
        for given_perm in (perm, tuple(perm)):
            got, energies = _resplit([given_perm], inst)[0]
            assert got.tokens == expected.tokens
            assert got.trips == expected.trips
            assert energies == [trip_energy_reference(trip, inst) for trip in got.trips]

    @settings(max_examples=300, deadline=None)
    @given(instance_and_perm(max_n=16, lattice=True))
    def test_same_split_on_a_lattice(self, case):
        """Many cut sets cost exactly the same here, so the program's
        tie-breaks are compared too: a total must beat the best so far
        strictly to move a cut."""
        inst, perm = case
        got, energies = _resplit([perm], inst)[0]
        assert got.trips == resplit_reference(perm, inst).trips
        assert energies == [trip_energy_reference(trip, inst) for trip in got.trips]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_single_task(self, data):
        inst = data.draw(instances(max_n=1))
        assert _resplit([[1]], inst)[0][0].tokens == resplit_reference([1], inst).tokens == (1,)

    def test_empty_permutation(self, line_instance):
        assert _resplit([[]], line_instance) == [(GiantSolution.from_tokens(()), [])]
        assert _resplit([], line_instance) == []

    def test_exactly_full_trips_are_kept_whole(self):
        # Four tasks of yield capacity/2 on one line: the split may pair
        # them (load exactly the capacity) and must agree on which pairs.
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (11.0, 0.0), (12.0, 0.0), (13.0, 0.0)),
            yields=(0.0, 6.0, 6.0, 6.0, 6.0),
            capacity=12.0,
            robot_weight=1.0,
        )
        for perm in ([1, 2, 3, 4], [4, 3, 2, 1], [1, 3, 2, 4]):
            got, energies = _resplit([perm], inst)[0]
            assert got == resplit_reference(perm, inst)
            assert energies == [trip_energy(trip, inst) for trip in got.trips]
            assert all(sum(inst.yields[t] for t in trip) <= inst.capacity for trip in got.trips)

    @pytest.mark.parametrize("spec", [OrchardSpec(20, 100, 0.6, seed=42), OrchardSpec(40, 400, 0.8, seed=1)])
    def test_generated_orchards(self, spec):
        inst = generate_orchard(spec)
        rng = random.Random(5)
        cache = TripCache()
        for _ in range(10):
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            got, energies = _resplit([perm], inst)[0]
            assert got.tokens == resplit_reference(perm, inst).tokens
            assert energies == [trip_energy(trip, inst) for trip in got.trips]
            _check_shared_cache(inst, perm, cache)

    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(lambda lattice: instance_and_perm(max_n=16, lattice=lattice)))
    def test_kept_trips_are_priced_from_a_shared_cache(self, case):
        _check_shared_cache(*case, TripCache())


class TestBatch:
    """Each column of a batch is split, priced and judged as it would be
    alone: the reference's cuts, `trip_energy`'s energies and the fsum
    rule's verdict."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.booleans().flatmap(lambda lattice: instance_and_perms(max_n=16, lattice=lattice)),
        st.data(),
    )
    def test_mixed_verdicts_in_one_batch(self, case, data):
        inst, perms = case
        expected = [resplit_reference(perm, inst) for perm in perms]
        energies = [[trip_energy_reference(trip, inst) for trip in sol.trips] for sol in expected]
        split_energies = [math.fsum(e) for e in energies]
        cutoff = data.draw(st.sampled_from([*split_energies, math.inf]))
        cutoff = _near(cutoff, data.draw(st.integers(-1, 1))) if cutoff < math.inf else cutoff
        got = _resplit(perms, inst, cutoff)
        assert len(got) == len(perms)
        for sol, charged, split_energy, result in zip(expected, energies, split_energies, got):
            if split_energy > cutoff:
                assert result is None
            else:
                assert result[0].trips == sol.trips
                assert result[1] == charged
        assert got == [_resplit([perm], inst, cutoff)[0] for perm in perms]

    @pytest.mark.parametrize("spec", [OrchardSpec(20, 100, 0.6, seed=42), OrchardSpec(40, 400, 0.8, seed=1)])
    def test_shuffles_and_mutants(self, spec):
        """A batch of shuffles and mutants of one of them, the inputs a
        random start and a generation split, at one cutoff that keeps some
        columns and skips others."""
        inst = generate_orchard(spec)
        rng = random.Random(11)
        shuffle = list(inst.task_ids)
        rng.shuffle(shuffle)
        perms = [shuffle]
        while len(perms) < 8:
            perms.append(list(mutate(tuple(perms[rng.randrange(len(perms))]), rng, 1.0)))
            rng.shuffle(shuffle)
            perms.append(list(shuffle))
        expected = [resplit_reference(perm, inst) for perm in perms]
        split_energies = [math.fsum(map(trip_energy, sol.trips, itertools.repeat(inst))) for sol in expected]
        cutoff = sorted(split_energies)[len(perms) // 2]
        got = _resplit(perms, inst, cutoff, TripCache())
        assert [result is None for result in got] == [e > cutoff for e in split_energies]
        assert 0 < got.count(None) < len(perms)
        for sol, result in zip(expected, got):
            if result is not None:
                assert result[0].trips == sol.trips
                assert result[1] == [trip_energy(trip, inst) for trip in sol.trips]


def _check_shared_cache(inst: Instance, perm: Sequence[int], cache: TripCache) -> None:
    """A split leaves each kept trip's one-piece energy in the cache it is
    given, its energies are `trip_energy`'s, and splitting the same
    permutation again admits nothing."""
    got, energies = _resplit([perm], inst, math.inf, cache)[0]
    assert energies == [trip_energy(trip, inst) for trip in got.trips]
    assert [cache.pieces[trip] for trip in got.trips] == [(e,) for e in energies]
    entries = cache.entries
    assert _resplit([perm], inst, math.inf, cache) == [(got, energies)]
    assert cache.entries == entries


def _near(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


class TestSkipVerdict:
    """`_resplit` skips a split, returning None, exactly when the fsum of
    its trip energies lies above the cutoff, whether the program's own total
    `best[n]` decides it before any pricing or the priced energies do."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.booleans().flatmap(lambda lattice: instance_and_perm(max_n=16, lattice=lattice)),
        st.sampled_from(["fsum", "total"]),
        st.sampled_from([-1, 0, 1]),
        st.integers(-3, 3),
    )
    def test_same_verdict_as_the_fsum_rule(self, case, anchor, margins, ulps):
        inst, perm = case
        split = _resplit([perm], inst)[0]
        split_energy = math.fsum(split[1])
        base = split_energy if anchor == "fsum" else _split_program_reference(perm, inst)[0][-1]
        cutoff = _near(base * (1 + _SURVIVAL_MARGIN) ** margins, ulps)
        got = _resplit([perm], inst, cutoff)[0]
        assert (got is None) == (split_energy > cutoff)
        assert got is None or got == split

    @pytest.mark.parametrize("spec", [OrchardSpec(20, 100, 0.6, seed=42), OrchardSpec(40, 400, 0.8, seed=1)])
    def test_generated_orchards(self, monkeypatch, spec):
        """A total a few ulps above the widened cutoff is skipped before the
        energies are priced; from the widened cutoff on, they decide."""
        inst = generate_orchard(spec)
        rng = random.Random(3)
        sums = 0

        def counting(values):
            nonlocal sums
            sums += 1
            return fsum(values)

        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", counting)
        for _ in range(10):
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            split = _resplit([perm], inst)[0]
            split_energy = fsum(split[1])
            widened = _split_program_reference(perm, inst)[0][-1] / (1 + _SURVIVAL_MARGIN)
            for ulps in range(-3, 4):
                cutoff = _near(widened, ulps)
                before = sums
                got = _resplit([perm], inst, cutoff)[0]
                assert (got is None) == (split_energy > cutoff)
                assert got is None or got == split
                if abs(ulps) > 1:  # the rounding of the widening decides +-1 ulp
                    assert (sums == before) == (ulps < 0)
            for cutoff in (_near(split_energy, -1), split_energy):
                assert (_resplit([perm], inst, cutoff)[0] is None) == (cutoff < split_energy)


@st.composite
def instance_and_trip(draw) -> tuple[Instance, list[int]]:
    """A trip of distinct tasks in any order, with no capacity check, so
    overloaded trips are included."""
    inst = draw(instances(max_n=10))
    perm = draw(st.permutations(list(inst.task_ids)))
    return inst, perm[: draw(st.integers(1, len(perm)))]


class TestTripEnergyMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(instance_and_trip())
    def test_same_float(self, case):
        inst, trip = case
        got = trip_energy(trip, inst)
        assert type(got) is float
        assert got == trip_energy_reference(trip, inst)
        assert trip_energy(tuple(trip), inst) == got

    def test_overloaded_trip(self):
        inst = Instance(
            coords=((0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (1.0, 7.0)),
            yields=(0.0, 9.0, 9.0, 9.0),
            capacity=10.0,
            robot_weight=2.5,
        )
        for trip in ((1, 2, 3), (3, 1, 2), (2, 3)):
            got = trip_energy(trip, inst)
            assert type(got) is float
            assert got == trip_energy_reference(trip, inst)

    def test_generated_orchard(self):
        inst = generate_orchard(OrchardSpec(70, 1225, 0.8, seed=1))
        rng = random.Random(9)
        for _ in range(200):
            trip = rng.sample(list(inst.task_ids), rng.randint(1, 8))
            assert trip_energy(trip, inst) == trip_energy_reference(trip, inst)

    @pytest.mark.parametrize("trip", [(0,), (1, 0), (3,), (1, 3), (-1,), (2, -2)])
    def test_zero_or_unknown_id_rejected(self, line_instance, trip):
        with pytest.raises(RepresentationError):
            trip_energy(trip, line_instance)
