"""Every scoring shortcut of `run_aedga` against a fresh scoring.

A run scores its offspring permutations from the trip energies its optimal
split prices, every other solution from the energies its trip cache holds
(`charged_energies`), and hands back a memo's earlier result for a
repeated input. Here a checking memo recomputes every hit from scratch,
with `evaluate` and, with robots, `score_with_framework`, and a checking
split and a checking `charged_energies` compare every priced energy list
with `evaluate`'s trip energies. Every comparison is exact.
"""

from __future__ import annotations

import math

import pytest

from orchard_mtvrp import evolution
from orchard_mtvrp.core import GiantSolution, RepresentationError, evaluate, trip_energy
from orchard_mtvrp.evolution import RunResult, SolverConfig, run_aedga
from orchard_mtvrp.instances import OrchardSpec, generate_orchard
from orchard_mtvrp.scheduler import Framework, Individual, score_with_framework

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
    """Run with every memo hit, every priced split and every solution priced
    from the trip cache checked; return the result and how many of each
    were checked."""
    split, price = evolution._resplit, evolution.charged_energies
    checked = {"hits": 0, "splits": 0, "priced": 0}

    def fresh(key) -> Individual:
        sol = key if isinstance(key, GiantSolution) else split(key, inst)[0]
        ev = evaluate(sol, inst)
        if cfg.robots is None:
            return Individual(sol, ev.energy)
        energies = [t.energy for t in ev.trips]
        return score_with_framework(sol, inst, cfg.robots, cfg.energy_bound, cfg.framework, energies)

    class CheckingMemo(evolution._Memo):
        def get(self, given, score):
            scored = []
            ind = super().get(given, lambda key: scored.append(key) or score(key))
            if not scored:
                assert ind == fresh(given)
                checked["hits"] += 1
            return ind

    def checking_split(perm, inst):
        sol, energies = split(perm, inst)
        assert all(type(e) is float for e in energies)
        assert energies == [t.energy for t in evaluate(sol, inst).trips]
        checked["splits"] += 1
        return sol, energies

    def checking_price(trips, inst, cache):
        energies = price(trips, inst, cache)
        assert all(type(e) is float for e in energies)
        assert energies == [t.energy for t in evaluate(GiantSolution(trips), inst).trips]
        checked["priced"] += 1
        return energies

    monkeypatch.setattr(evolution, "_Memo", CheckingMemo)
    monkeypatch.setattr(evolution, "_resplit", checking_split)
    monkeypatch.setattr(evolution, "charged_energies", checking_price)
    return run_aedga(inst, cfg), checked


@pytest.mark.parametrize("init", ["ilbim", "random"])
@pytest.mark.parametrize("name", ["unbounded", *BOUNDED])
def test_every_shortcut_matches_a_fresh_scoring(monkeypatch, inst, name, init):
    checked = {"hits": 0, "splits": 0, "priced": 0}
    for seed in SEEDS:
        for key, count in _checked_run(monkeypatch, inst, _config(inst, name, init, seed))[1].items():
            checked[key] += count
    assert checked["hits"] > 0 and checked["splits"] > 0 and checked["priced"] > 0


def test_checked_runs_give_the_same_result(monkeypatch, inst):
    """The checks observe and do not steer: a checked run ends where a
    plain one does."""
    cfg = _config(inst, "Fr1-0.6", "ilbim", 0)
    plain = run_aedga(inst, cfg)
    assert _checked_run(monkeypatch, inst, cfg)[0] == plain


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


def test_memo_keeps_the_most_recently_used_entries():
    memo = evolution._Memo(2)
    scored: list = []

    def fresh(key):
        scored.append(key)
        return Individual(GiantSolution([key]), float(key[0]))

    for key in [(1,), (2,), (1,), (3,), (2,), (1,)]:
        assert memo.get(key, fresh) == fresh(key)
        scored.pop()
    # (1,) was used after (2,), so (3,) pushed (2,) out, and then (2,) pushed (1,).
    assert scored == [(1,), (2,), (3,), (2,), (1,)]
    assert len(memo.entries) == 2


@pytest.mark.parametrize("trips", [[(3, 1), (2,)], [(3,), (1, 2)], [(1, 3), (2,)]])
def test_memo_hands_back_what_it_was_given(trips):
    """Whether or not the trips follow the permutation's order, so that the
    memo holds the individual as trip lengths, a hit gives it back."""
    memo = evolution._Memo(4)
    stored = Individual(GiantSolution(trips), 7.5)
    scored: list = []
    for given in [(3, 1, 2), (3, 1, 2), stored.solution, stored.solution]:
        assert memo.get(given, lambda key: scored.append(key) or stored) == stored
    assert scored == [(3, 1, 2), stored.solution]
