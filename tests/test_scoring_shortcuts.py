"""Every scoring shortcut of `run_aedga` against a fresh scoring.

A run prices every solution it scores, the trips of its offspring
permutations' optimal splits included, from the energies its trip cache
holds (`charged_energies`), and hands back a memo's earlier result for a
repeated input. The split also returns a skip verdict, and no trips, for
an offspring whose split energy lies above the survival cutoff. Here a checking memo recomputes every hit from scratch, with
`evaluate` and, with robots, `score_with_framework`, and gives every skip
verdict, first or held, a fresh scoring that must lie above every parent's
energy; a checking split and a checking `charged_energies` compare every
priced energy list with `evaluate`'s trip energies, and every solution
built without checks (`GiantSolution.trusted`) is compared with the
checked one. Every comparison is exact.

The skip rests on a bound, tested here too: a split permutation scores
infinite or at least the fsum of its split energies, since `repair` only
adds cuts to the split, and without robots or under Fr3 it scores exactly
that fsum.
"""

from __future__ import annotations

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp import evolution
from orchard_mtvrp.core import GiantSolution, RepresentationError, evaluate, trip_energy
from orchard_mtvrp.evolution import RunResult, SolverConfig, run_aedga
from orchard_mtvrp.instances import OrchardSpec, generate_orchard
from orchard_mtvrp.scheduler import Framework, Individual, RepairStatus, repair, score_with_framework

SPEC = OrchardSpec(20, 60, 0.6, seed=42)
ROBOTS = 8
# name -> (framework, e_max as a share of Z_single / ROBOTS), where Z_single
# serves every task on a trip of its own. On this orchard of 40 tasks, Fr1's
# repair always fails at 0.3 and both fails and succeeds at 0.6; Fr2 finds a
# schedulable start at 0.8.
BOUNDED = {
    "Fr1-0.3": (Framework.FR1, 0.3),
    "Fr1-0.6": (Framework.FR1, 0.6),
    "Fr2-0.8": (Framework.FR2, 0.8),
    "Fr3-0.6": (Framework.FR3, 0.6),
}
SEEDS = (0, 1, 2)
# The (config, init) pairs whose runs over SEEDS leave offspring unscheduled.
# Fr1 at 0.3, and at 0.6 from random starts, never reaches a population of
# finite energies within the budget, so it has no survival cutoff.
SKIPPING = {
    (name, init) for name in ("unbounded", "Fr3-0.6") for init in ("ilbim", "random")
} | {("Fr1-0.6", "ilbim"), ("Fr2-0.8", "ilbim"), ("Fr2-0.8", "random")}


@pytest.fixture(scope="module")
def inst():
    return generate_orchard(SPEC)


def _config(inst, name: str, init: str, seed: int) -> SolverConfig:
    fields = {"budget_evals": 300, "init": init, "seed": seed}
    if name in BOUNDED:
        framework, share = BOUNDED[name]
        z_single = math.fsum(trip_energy((t,), inst) for t in inst.task_ids)
        fields.update(framework=framework, robots=ROBOTS, energy_bound=share * z_single / ROBOTS)
    return SolverConfig(**fields)


def _checked_run(monkeypatch, inst, cfg: SolverConfig) -> tuple[RunResult, dict[str, int]]:
    """Run with every memo hit, every skip verdict, every priced split,
    every solution priced from the trip cache, every solution built
    without checks and, under Fr2, every individual handed to selection
    checked; return the result and how many of each were checked."""
    split, price, cutoff = evolution._resplit, evolution.charged_energies, evolution._survival_cutoff
    trusted, select = GiantSolution.trusted, evolution.environmental_selection
    checked = {"hits": 0, "skipped": 0, "splits": 0, "priced": 0, "trusted": 0, "fr2_selections": 0}
    parents: list[Individual] = []

    def fresh(key) -> Individual:
        sol = key if isinstance(key, GiantSolution) else split([key], inst)[0][0]
        ev = evaluate(sol, inst)
        if cfg.robots is None:
            return Individual(sol, ev.energy)
        energies = [t.energy for t in ev.trips]
        return score_with_framework(sol, inst, cfg.robots, cfg.energy_bound, cfg.framework, energies)

    def recording_cutoff(pop, population):
        parents[:] = pop
        return cutoff(pop, population)

    class CheckingMemo(evolution._Memo):
        def __call__(self, inputs, score):
            scored: list = []
            out = super().__call__(inputs, lambda new: scored.extend(new) or score(new))
            assert len(out) == len(inputs)
            for given, ind in zip(inputs, out):
                if ind is None:
                    # A skip verdict, first or held: scored, it would lose to every parent.
                    assert not isinstance(given, GiantSolution)
                    assert fresh(given).energy > max(p.energy for p in parents)
                    checked["skipped"] += 1
                elif given not in scored:
                    assert ind == fresh(given)
                    checked["hits"] += 1
            return out

    def checking_split(perms, inst, cutoff=math.inf, cache=None):
        batch = split(perms, inst, cutoff, cache)
        assert len(batch) == len(perms)
        for perm, got in zip(perms, batch):
            sol, energies = split([perm], inst)[0]
            assert all(type(e) is float for e in energies)
            assert energies == [t.energy for t in evaluate(sol, inst).trips]
            assert (got is None) == (math.fsum(energies) > cutoff)
            assert got is None or got == (sol, energies)
            checked["splits"] += 1
        return batch

    def checking_price(trips, inst, cache):
        energies = price(trips, inst, cache)
        assert all(type(e) is float for e in energies)
        assert energies == [t.energy for t in evaluate(GiantSolution(trips), inst).trips]
        checked["priced"] += 1
        return energies

    def checking_trusted(cls, trips, sequence=None):
        sol = trusted(trips, sequence)
        assert type(sol.trips) is tuple and all(type(trip) is tuple for trip in sol.trips)
        assert sol == GiantSolution(sol.trips)
        assert sol.task_sequence() == tuple(itertools.chain.from_iterable(sol.trips))
        checked["trusted"] += 1
        return sol

    def checking_selection(pool_parents, offspring, population):
        if cfg.framework is Framework.FR2 and cfg.robots is not None:
            # Fr2 deletes what has no schedule: its parents and offspring all have one.
            assert all(ind.schedule is not None for ind in [*pool_parents, *offspring])
            checked["fr2_selections"] += 1
        return select(pool_parents, offspring, population)

    monkeypatch.setattr(evolution, "_Memo", CheckingMemo)
    monkeypatch.setattr(evolution, "environmental_selection", checking_selection)
    monkeypatch.setattr(evolution, "_survival_cutoff", recording_cutoff)
    monkeypatch.setattr(evolution, "_resplit", checking_split)
    monkeypatch.setattr(evolution, "charged_energies", checking_price)
    monkeypatch.setattr(GiantSolution, "trusted", classmethod(checking_trusted))
    return run_aedga(inst, cfg), checked


@pytest.mark.parametrize("init", ["ilbim", "random"])
@pytest.mark.parametrize("name", ["unbounded", *BOUNDED])
def test_every_shortcut_matches_a_fresh_scoring(monkeypatch, inst, name, init):
    checked = {"hits": 0, "skipped": 0, "splits": 0, "priced": 0, "trusted": 0, "fr2_selections": 0}
    for seed in SEEDS:
        for key, count in _checked_run(monkeypatch, inst, _config(inst, name, init, seed))[1].items():
            checked[key] += count
    assert checked["hits"] > 0 and checked["splits"] > 0 and checked["priced"] > 0 and checked["trusted"] > 0
    assert (checked["skipped"] > 0) == ((name, init) in SKIPPING)
    assert (checked["fr2_selections"] > 0) == (name == "Fr2-0.8")


def test_checked_runs_give_the_same_result(monkeypatch, inst):
    """The checks observe and do not steer: a checked run ends where a
    plain one does."""
    cfg = _config(inst, "Fr1-0.6", "ilbim", 0)
    plain = run_aedga(inst, cfg)
    result, checked = _checked_run(monkeypatch, inst, cfg)
    assert result == plain
    assert checked["hits"] > 0 and checked["splits"] > 0  # the checks ran


@pytest.mark.parametrize("name", ["unbounded", *BOUNDED])
def test_skipping_offspring_keeps_the_answers(monkeypatch, inst, name):
    """With the survival cutoff off, every offspring is scheduled, and every
    run ends where the default one does."""
    skipped = 0

    calls = 0

    class CountingMemo(evolution._Memo):
        def __call__(self, inputs, score):
            nonlocal calls, skipped
            out = super().__call__(inputs, score)
            calls += 1
            skipped += out.count(None)
            return out

    runs = [(init, seed) for init in ("ilbim", "random") for seed in SEEDS]
    with monkeypatch.context() as patched:
        patched.setattr(evolution, "_Memo", CountingMemo)
        default = [run_aedga(inst, _config(inst, name, init, seed)) for init, seed in runs]
    assert calls > 0
    assert (skipped > 0) == any((name, init) in SKIPPING for init, _ in runs)
    monkeypatch.setattr(evolution, "_survival_cutoff", lambda pop, population: math.inf)
    assert [run_aedga(inst, _config(inst, name, init, seed)) for init, seed in runs] == default


def _scored(energy: float, trips) -> Individual:
    return Individual(GiantSolution(trips), energy)


def test_survival_cutoff_lies_just_above_the_worst_of_distinct_finite_parents():
    pop = [_scored(2.0, [(1,), (2,)]), _scored(5.0, [(2, 1)]), _scored(3.0, [(1, 2)])]
    cutoff = evolution._survival_cutoff(pop, 3)
    assert 5.0 < cutoff <= 5.0 * (1 + 1e-6)
    assert evolution._survival_cutoff(pop, 4) == math.inf  # fewer than P members
    assert evolution._survival_cutoff([], 2) == math.inf
    repeated = pop[:2] + [_scored(3.0, [(2, 1)])]
    assert evolution._survival_cutoff(repeated, 3) == math.inf
    unscheduled = pop[:2] + [_scored(math.inf, [(1, 2)])]
    assert evolution._survival_cutoff(unscheduled, 3) == math.inf


def _split_scorings(inst, perm, e_max):
    sol, energies = evolution._resplit([perm], inst)[0]
    split_energy = math.fsum(energies)
    for framework in (Framework.FR1, Framework.FR2):
        ind = score_with_framework(sol, inst, ROBOTS, e_max, framework, energies)
        assert ind.energy == math.inf or ind.energy >= split_energy
    assert score_with_framework(sol, inst, ROBOTS, e_max, Framework.FR3, energies).energy == split_energy
    repaired, status = repair(sol, inst, ROBOTS, e_max, energies)
    # The repaired trips refine the split: same order, every split cut kept.
    assert tuple(itertools.chain.from_iterable(repaired.solution.trips)) == tuple(perm)
    ends = set(itertools.accumulate(map(len, repaired.solution.trips)))
    assert set(itertools.accumulate(map(len, sol.trips))) <= ends
    return status, len(repaired.solution.trips) > len(sol.trips)


def _z_single(inst) -> float:
    return math.fsum(trip_energy((t,), inst) for t in inst.task_ids)


@settings(max_examples=150, deadline=None)
@given(perm=st.permutations(list(range(1, 41))), share=st.sampled_from([0.3, 0.6, 0.8, 1.2]))
def test_a_split_scores_at_least_its_split_energy(inst, perm, share):
    """The bound the survival cutoff rests on: under Fr1 and Fr2 an offspring
    scores infinite or at least its split energy, under Fr3 exactly that,
    and `repair` only adds cuts to the split it is handed."""
    assert inst.n == len(perm)
    _split_scorings(inst, perm, share * _z_single(inst) / ROBOTS)


@pytest.mark.parametrize("share", [0.3, 0.8])
def test_the_split_bound_holds_where_repair_fails_and_succeeds(inst, share):
    """On the splits of random permutations `repair` always fails at 0.3;
    at 0.8 it both fails and succeeds by adding cuts."""
    rng = random.Random(7)
    outcomes = set()
    for _ in range(40):
        perm = list(inst.task_ids)
        rng.shuffle(perm)
        outcomes.add(_split_scorings(inst, perm, share * _z_single(inst) / ROBOTS))
    if share == 0.3:
        assert outcomes == {(RepairStatus.INFEASIBLE, True)}
    else:
        assert {(RepairStatus.INFEASIBLE, True), (RepairStatus.REPAIRED, True)} <= outcomes


@pytest.mark.parametrize("bad", ["missing", "repeated", "unknown"])
def test_a_permutation_that_is_not_the_task_ids_is_rejected(monkeypatch, inst, bad):
    """Scoring a split permutation keeps `evaluate`'s cover check."""

    def broken_crossover(p1, p2, rng):
        perm = list(p1)
        if bad == "missing":
            perm.pop()
        elif bad == "repeated":
            perm[-1] = perm[0]
        else:
            perm[-1] = inst.n + 1
        return tuple(perm), tuple(perm)

    monkeypatch.setattr(evolution, "crossover", broken_crossover)
    cfg = SolverConfig(budget_evals=50, crossover_rate=1.0, mutation_rate=0.0, use_clsm=False)
    with pytest.raises(RepresentationError):
        run_aedga(inst, cfg)


def test_a_solution_that_is_not_the_task_ids_is_rejected(monkeypatch, inst):
    """Scoring a solution from the trip cache keeps `evaluate`'s cover check.
    No crossover or mutation runs, so no permutation check can catch the
    CLSM result's lost trip instead."""
    monkeypatch.setattr(evolution, "clsm_step", lambda sol, *args: GiantSolution(sol.trips[1:]))
    cfg = SolverConfig(budget_evals=50, crossover_rate=0.0, mutation_rate=0.0)
    with pytest.raises(RepresentationError):
        run_aedga(inst, cfg)


@pytest.mark.parametrize("name", ["unbounded", *BOUNDED])
def test_the_memo_size_leaves_the_answers(monkeypatch, inst, name):
    """When the memo drops an entry changes no answer, since scoring is
    deterministic and draws nothing: with no memo beyond the batch, and with
    one generation of it, every run ends where the default one does. Every
    split is made by `score_all`'s scoring callback, at most once per memo
    call, and a smaller memo splits more."""
    runs = [_config(inst, name, init, seed) for init in ("ilbim", "random") for seed in SEEDS]
    split = evolution._resplit
    splits = batches = 0

    def splitting(perms, inst, cutoff=math.inf, cache=None):
        nonlocal splits, batches
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "score_new"
        while caller.f_code.co_name != "score_all":  # the memo's call, in between
            caller = caller.f_back
            assert caller.f_code.co_name in ("__call__", "score_all")
        splits += len(perms)
        batches += 1
        return split(perms, inst, cutoff, cache)

    class CountingMemo(evolution._Memo):
        def __call__(self, inputs, score):
            before = batches
            out = super().__call__(inputs, score)
            assert batches - before <= 1
            return out

    monkeypatch.setattr(evolution, "_resplit", splitting)
    monkeypatch.setattr(evolution, "_Memo", CountingMemo)
    default = [run_aedga(inst, cfg) for cfg in runs]
    split_counts = [splits]
    for generations in (1, 0):
        monkeypatch.setattr(evolution, "_MEMO_GENERATIONS", generations)
        assert [run_aedga(inst, cfg) for cfg in runs] == default
        split_counts.append(splits - sum(split_counts))
    assert split_counts[0] < split_counts[2]


def _scoring(scored: list, score):
    """A memo's scoring callback that records the inputs it is handed."""
    return lambda new: [scored.append(key) or score(key) for key in new]


def test_memo_keeps_the_most_recently_used_entries():
    memo = evolution._Memo(2)
    scored: list = []

    def fresh(key):
        return Individual(GiantSolution([key]), float(key[0]))

    for key in [(1,), (2,), (1,), (3,), (2,), (1,)]:
        assert memo([key], _scoring(scored, fresh)) == [fresh(key)]
    # (1,) was used after (2,), so (3,) pushed (2,) out, and then (2,) pushed (1,).
    assert scored == [(1,), (2,), (3,), (2,), (1,)]
    assert len(memo.entries) == 2


def test_memo_is_trimmed_once_after_a_batch():
    """A batch larger than the memo is scored whole, each distinct input
    once, and then the memo keeps the most recently used of its inputs."""
    memo = evolution._Memo(2)
    scored: list = []

    def fresh(key):
        return Individual(GiantSolution([key]), float(key[0]))

    batch = [(1,), (2,), (3,), (1,), (2,)]
    assert memo(batch, _scoring(scored, fresh)) == list(map(fresh, batch))
    assert scored == [(1,), (2,), (3,)]
    # Used last: (1,), then (2,); so (3,) went.
    for key in [(2,), (1,), (3,)]:
        assert memo([key], _scoring(scored, fresh)) == [fresh(key)]
    assert scored == [(1,), (2,), (3,), (3,)]


def test_memo_holds_a_skip_as_its_verdict():
    """A held skip is handed back as None without scoring again, and keeps
    its place among the most recently used entries."""
    memo = evolution._Memo(2)
    scored: list = []

    def fresh(key):
        return None if key == (3, 1, 2) else Individual(GiantSolution([key]), 1.0)

    for key in [(3, 1, 2), (3, 1, 2), (1, 2, 3), (3, 1, 2), (2, 3, 1), (3, 1, 2)]:
        assert (memo([key], _scoring(scored, fresh)) == [None]) == (key == (3, 1, 2))
    assert scored == [(3, 1, 2), (1, 2, 3), (2, 3, 1)]


@pytest.mark.parametrize("name, init", sorted(SKIPPING))
def test_survival_cutoff_never_rises_once_finite(monkeypatch, inst, name, init):
    """What lets the memo hold a skip as a verdict: once the cutoff is
    finite, no later generation's cutoff lies above it, so an input skipped
    once would be skipped again."""
    cutoff = evolution._survival_cutoff
    changes = 0
    for seed in SEEDS:
        cutoffs: list[float] = []

        def recording(pop, population):
            cutoffs.append(cutoff(pop, population))
            return cutoffs[-1]

        monkeypatch.setattr(evolution, "_survival_cutoff", recording)
        run_aedga(inst, _config(inst, name, init, seed))
        finite = list(itertools.dropwhile(math.isinf, cutoffs))
        assert all(later <= earlier for earlier, later in zip(finite, finite[1:]))
        assert math.inf not in finite
        changes += len(set(finite)) - 1
    assert changes > 0


@pytest.mark.parametrize("init", ["ilbim", "random"])
@pytest.mark.parametrize("name", ["unbounded", *BOUNDED])
def test_every_scored_individual_keeps_its_input_order(monkeypatch, inst, name, init):
    """What lets the memo hold a permutation's individual as trip lengths:
    every individual a run scores afresh, from a split, an unchanged
    solution or `repair`, keeps the task sequence of its input."""
    checked = 0

    class CheckingMemo(evolution._Memo):
        def __call__(self, inputs, score):
            def checking(new):
                nonlocal checked
                out = score(new)
                assert len(out) == len(new)
                for given, ind in zip(new, out):
                    if ind is not None:
                        sequence = given.trips if isinstance(given, GiantSolution) else (given,)
                        assert list(itertools.chain(*ind.solution.trips)) == list(itertools.chain(*sequence))
                        checked += 1
                return out

            return super().__call__(inputs, checking)

    monkeypatch.setattr(evolution, "_Memo", CheckingMemo)
    for seed in SEEDS:
        run_aedga(inst, _config(inst, name, init, seed))
    assert checked > 0


@pytest.mark.parametrize("trips", [[(3, 1), (2,)], [(3,), (1, 2)]])
def test_memo_hands_back_what_it_was_given(trips):
    """The trips follow the permutation's order, as every scored
    individual's do, so the memo holds the individual as trip lengths; a
    hit gives it back."""
    memo = evolution._Memo(4)
    stored = Individual(GiantSolution(trips), 7.5)
    scored: list = []
    for given in [(3, 1, 2), (3, 1, 2), stored.solution, stored.solution]:
        assert memo([given], _scoring(scored, lambda key: stored)) == [stored]
    assert scored == [(3, 1, 2), stored.solution]
