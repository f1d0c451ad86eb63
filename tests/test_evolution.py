import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp import ilbim
from orchard_mtvrp.core import ConfigurationError, GiantSolution, Instance, evaluate
from orchard_mtvrp.evolution import (
    Individual,
    SolverConfig,
    crossover,
    _rank,
    _resplit,
    eass_select,
    environmental_selection,
    mutate,
    passed_on,
    run_aedga,
    selection_probabilities,
)
from orchard_mtvrp.oracle import exact_route_generation
from orchard_mtvrp.scheduler import Framework

from conftest import random_instance


class TestSelectionProbabilities:
    def test_zero_counts_uniform(self):
        probs = selection_probabilities((0,) * 6, 0.1)
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in probs)

    def test_single_success_hand_values(self):
        probs = selection_probabilities((0, 1, 0, 0, 0, 0), 0.1)
        expected = (1 / 15, 10 / 15, 1 / 15, 1 / 15, 1 / 15, 1 / 15)
        for p, e in zip(probs, expected):
            assert p == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_uniform_counts_stay_uniform(self, k):
        for width in range(1, 7):
            probs = selection_probabilities((k,) * width, 0.1)
            assert all(p == pytest.approx(1 / width, abs=1e-12) for p in probs)

    def test_scale_invariance_in_counts(self):
        assert selection_probabilities((1, 4, 2), 0.25) == pytest.approx(
            selection_probabilities((2, 8, 4), 0.25), abs=1e-15
        )

    def test_sums_to_one(self):
        rng = random.Random(1)
        for _ in range(50):
            width = rng.randint(1, 10)
            counts = tuple(rng.randint(0, 9) for _ in range(width))
            assert sum(selection_probabilities(counts, 1 / rng.randint(2, 20))) == pytest.approx(1.0)


def _fake_population(energies):
    return [
        Individual(GiantSolution([(i + 1,)]), e)
        for i, e in enumerate(energies)
    ]


class TestEassSelect:
    def test_smallest_window_is_elitist(self):
        pop = _fake_population(sorted(range(10)))
        for seed in range(20):
            ind, idx = eass_select(pop, (0,), random.Random(seed))
            assert ind is pop[0]
            assert idx == 0

    def test_biased_counts_dominate_sampling(self):
        pop = _fake_population(sorted(range(10)))
        rng = random.Random(42)
        hits = sum(1 for _ in range(10_000) if eass_select(pop, (0, 50, 0, 0, 0, 0), rng)[1] == 1)
        assert hits / 10_000 > 0.6
        assert hits / 10_000 == pytest.approx(10 / 15, abs=0.02)

    def test_window_respects_population_rank(self):
        pop = _fake_population(sorted(range(10)))
        rng = random.Random(7)
        picked = {eass_select(pop, (0, 0, 1), rng)[0].energy for _ in range(200)}
        assert picked == {0, 1, 2}


class SelfSwap(random.Random):
    """Fires every mutation as a swap of position 0 with itself."""

    def random(self):
        return 0.0

    def randrange(self, *a):
        return 0


class TestVariation:
    def test_identical_parents_preserve_order(self):
        rng = random.Random(1)
        inst = random_instance(rng, 8)
        parent = tuple(inst.task_ids)
        assert crossover(parent, parent, rng) == (parent, parent)

    def test_full_span_cut_gives_parent_order(self):
        rng = random.Random(2)
        inst = random_instance(rng, 6)
        p1 = tuple(inst.task_ids)
        p2 = tuple(reversed(inst.task_ids))

        class FullSpan(random.Random):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def randint(self, a, b):
                self.calls += 1
                return a if self.calls == 1 else b

        assert crossover(p1, p2, FullSpan()) == (p1, p2)

    def test_children_conserve_tasks_and_feasibility(self):
        rng = random.Random(3)
        for _ in range(1000):
            inst = random_instance(rng, rng.randint(2, 12))
            perm1 = list(inst.task_ids)
            perm2 = list(inst.task_ids)
            rng.shuffle(perm1)
            rng.shuffle(perm2)
            children = crossover(tuple(perm1), tuple(perm2), rng)
            for child, (sol, _) in zip(children, _resplit(children, inst)):
                assert sorted(child) == list(inst.task_ids)
                assert not evaluate(sol, inst).penalized

    def test_mutation_rate_zero_is_identity(self):
        rng = random.Random(4)
        inst = random_instance(rng, 7)
        perm = tuple(inst.task_ids)
        assert mutate(perm, rng, 0.0) is perm
        sol = GiantSolution.from_tokens(perm)
        assert passed_on(sol, inst, rng, 0.0) is sol

    def test_self_swap_is_identity(self):
        inst = random_instance(random.Random(5), 4)
        sol = GiantSolution.from_tokens((1, 0, 2, 3, 0, 4))
        assert mutate(sol.task_sequence(), SelfSwap(), 1.0) == sol.task_sequence()
        assert passed_on(sol, inst, SelfSwap(), 1.0) is sol

    def test_overloaded_parent_is_split_after_a_move_that_changes_nothing(self):
        inst = Instance(
            coords=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
            yields=(0.0, 6.0, 6.0),
            capacity=10.0,
            robot_weight=1.0,
        )
        sol = GiantSolution([(1, 2)])  # one trip over the capacity
        assert passed_on(sol, inst, random.Random(0), 0.0) is sol
        assert passed_on(sol, inst, SelfSwap(), 1.0) == (1, 2)

    def test_mutants_valid_and_feasible(self):
        rng = random.Random(6)
        for _ in range(1000):
            inst = random_instance(rng, rng.randint(2, 12))
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            out = mutate(tuple(perm), rng, 1.0)
            assert sorted(out) == list(inst.task_ids)
            assert not evaluate(_resplit([out], inst)[0][0], inst).penalized


class TestEnvironmentalSelection:
    def test_elitism_keeps_parents_when_offspring_worse(self):
        parents = _fake_population([1.0, 2.0])
        offspring = _fake_population([5.0, 6.0])
        kept = environmental_selection(parents, offspring, 2)
        assert [k.energy for k in kept] == [1.0, 2.0]

    def test_population_one_keeps_global_best(self):
        parents = _fake_population([3.0])
        offspring = _fake_population([1.0, 2.0])
        kept = environmental_selection(parents, offspring, 1)
        assert [k.energy for k in kept] == [1.0]

    def test_tie_break_prefers_fewer_trips(self):
        a = Individual(GiantSolution.from_tokens((1, 0, 2)), 7.0)
        b = Individual(GiantSolution.from_tokens((1, 2)), 7.0)
        kept = environmental_selection([a], [b], 1)
        assert kept[0] is b

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_trips_rank_and_deduplicate_as_tokens_do(self, data):
        """Ranking and deduplicating on `trips` keeps the individuals, in the
        order, that ranking and deduplicating on the giant tours (`tokens`)
        kept: a trip's end sorts below any task id, as a 0-marker does."""
        pool = []
        for _ in range(data.draw(st.integers(1, 12))):
            perm = data.draw(st.permutations(range(1, data.draw(st.integers(1, 5)) + 1)))
            cuts = data.draw(st.lists(st.booleans(), min_size=len(perm), max_size=len(perm)))
            trips, trip = [], []
            for task, cut in zip(perm, cuts):
                if cut and trip:
                    trips.append(trip)
                    trip = []
                trip.append(task)
            energy = data.draw(st.sampled_from([1.0, 2.0]))
            pool.append(Individual(GiantSolution([*trips, trip]), energy))
        pool += [Individual(GiantSolution(ind.solution.trips), ind.energy)
                 for ind in data.draw(st.lists(st.sampled_from(pool), max_size=4))]

        def by_tokens(ind):
            return ind.energy, len(ind.solution.trips), ind.solution.tokens

        ranked = sorted(pool, key=by_tokens)
        assert list(map(id, sorted(pool, key=_rank))) == list(map(id, ranked))
        seen, unique, repeats = set(), [], []
        for ind in ranked:
            (repeats if ind.solution.tokens in seen else unique).append(ind)
            seen.add(ind.solution.tokens)
        split = data.draw(st.integers(0, len(pool)))
        size = data.draw(st.integers(1, len(pool)))
        kept = environmental_selection(pool[:split], pool[split:], size)
        assert list(map(id, kept)) == list(map(id, (unique + repeats)[:size]))


def _far_heavy_pair() -> Instance:
    return Instance(
        coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
        yields=(0.0, 5.0, 5.0),
        capacity=100.0,
        robot_weight=20.0,
    )


class TestRunAedga:
    def test_single_task_forced_optimum(self):
        inst = Instance(
            coords=((0.0, 0.0), (3.0, 4.0)),
            yields=(0.0, 2.0),
            capacity=10.0,
            robot_weight=7.0,
        )
        result = run_aedga(inst, SolverConfig(budget_evals=50, seed=1))
        assert result.best.tokens == (1,)
        assert result.best_energy == pytest.approx(5 * 7 + 5 * 9)

    def test_same_seed_same_trace(self):
        rng = random.Random(8)
        inst = random_instance(rng, 8)
        cfg = SolverConfig(budget_evals=400, seed=123)
        a = run_aedga(inst, cfg)
        b = run_aedga(inst, cfg)
        assert a.history == b.history
        assert a.best == b.best
        assert a.evaluations == b.evaluations

    def test_best_energy_monotone_and_archive_consistent(self):
        rng = random.Random(9)
        inst = random_instance(rng, 10)
        result = run_aedga(inst, SolverConfig(budget_evals=600, seed=5))
        energies = [stat.best_energy for stat in result.history]
        assert energies == sorted(energies, reverse=True) or all(
            a >= b for a, b in zip(energies, energies[1:])
        )
        final_counts = result.history[-1].archive_counts
        assert all(c >= 0 for c in final_counts)

    def test_budget_zero_returns_initial_best(self):
        rng = random.Random(10)
        inst = random_instance(rng, 6)
        result = run_aedga(inst, SolverConfig(budget_evals=0, seed=2))
        assert result.generations == 1
        assert len(result.history) == 1

    def test_matches_oracle_on_tiny_instances(self):
        hits = 0
        for seed in range(10):
            rng = random.Random(200 + seed)
            inst = random_instance(rng, 5, capacity=16.0)
            result = run_aedga(inst, SolverConfig(budget_evals=3000, seed=seed))
            optimum = exact_route_generation(inst).energy
            assert result.best_energy >= optimum - 1e-9
            if result.best_energy <= optimum * 1.0 + 1e-9:
                hits += 1
        assert hits >= 9

    def test_random_init_flag(self):
        rng = random.Random(11)
        inst = random_instance(rng, 8)
        a = run_aedga(inst, SolverConfig(budget_evals=100, seed=3, init="random"))
        assert a.status == "ok"
        assert sorted(a.best.task_sequence()) == list(inst.task_ids)

    def test_unbounded_emax_matches_plain_run(self):
        rng = random.Random(12)
        inst = random_instance(rng, 7)
        plain = run_aedga(inst, SolverConfig(budget_evals=300, seed=4))
        for fw in Framework:
            bounded = run_aedga(
                inst,
                SolverConfig(
                    budget_evals=300, seed=4, robots=2, energy_bound=math.inf, framework=fw
                ),
            )
            assert bounded.best == plain.best
            assert [s.best_energy for s in bounded.history] == [
                s.best_energy for s in plain.history
            ]

    def test_fr1_repairs_first_generation(self):
        # single far-out heavy pair: the balanced initializer puts both tasks
        # in one trip, which overshoots the per-robot bound until repair
        # splits it
        inst = _far_heavy_pair()
        result = run_aedga(
            inst,
            SolverConfig(
                budget_evals=0, seed=1, robots=2, energy_bound=1000.0,
                framework=Framework.FR1,
            ),
        )
        assert result.status == "ok"
        assert result.schedule is not None
        assert result.best_energy < math.inf
        assert max(result.schedule.robot_energies) <= 1000.0

    def test_fr2_unsatisfiable_reports_infeasible(self):
        inst = _far_heavy_pair()
        result = run_aedga(
            inst,
            SolverConfig(
                budget_evals=100, seed=1, robots=2, energy_bound=100.0,
                framework=Framework.FR2,
            ),
        )
        assert result.status == "infeasible"

    @pytest.mark.parametrize("init", ["ilbim", "random"])
    def test_fr2_scores_an_unschedulable_start_once(self, init):
        # Every single-task trip exceeds the bound, so no start individual
        # can be scheduled: the run reports its one start, scored once.
        result = run_aedga(
            _far_heavy_pair(),
            SolverConfig(budget_evals=0, seed=1, robots=2, energy_bound=100.0,
                         framework=Framework.FR2, init=init),
        )
        assert result.status == "infeasible"
        assert result.evaluations == SolverConfig.population
        assert result.generations == 1

    def test_fr2_builds_an_unschedulable_ilbim_start_once(self, monkeypatch):
        built = 0
        original = ilbim.init_population

        def counting(*args):
            nonlocal built
            built += 1
            return original(*args)

        monkeypatch.setattr(ilbim, "init_population", counting)
        result = run_aedga(
            _far_heavy_pair(),
            SolverConfig(budget_evals=100, seed=1, robots=2, energy_bound=100.0,
                         framework=Framework.FR2),
        )
        assert result.status == "infeasible"
        assert built == 1

    def test_fr3_repairs_at_termination(self):
        inst = _far_heavy_pair()
        result = run_aedga(
            inst,
            SolverConfig(
                budget_evals=50, seed=1, robots=2, energy_bound=1000.0,
                framework=Framework.FR3,
            ),
        )
        assert result.status == "ok"
        assert result.schedule is not None
        assert max(result.schedule.robot_energies) <= 1000.0

    def test_fr3_unsatisfiable_reports_infinite_energy(self):
        # every single-task trip already exceeds the bound, so no final
        # individual can be scheduled: like Fr1 and Fr2, the energy is inf
        inst = _far_heavy_pair()
        result = run_aedga(
            inst,
            SolverConfig(
                budget_evals=100, seed=1, robots=2, energy_bound=100.0,
                framework=Framework.FR3,
            ),
        )
        assert result.status == "infeasible"
        assert result.best_energy == math.inf
        assert result.schedule is None

    def test_population_size_fixed_after_selection(self):
        rng = random.Random(13)
        inst = random_instance(rng, 9)
        cfg = SolverConfig(population=6, budget_evals=200, seed=6)
        result = run_aedga(inst, cfg)
        assert result.status == "ok"
        # indirect check: the run completed and produced a valid best
        assert sorted(result.best.task_sequence()) == list(inst.task_ids)


def test_archive_counts_monotone_and_bounded():
    rng = random.Random(14)
    inst = random_instance(rng, 9)
    result = run_aedga(inst, SolverConfig(budget_evals=500, seed=7))
    previous = None
    for stat in result.history:
        total = sum(stat.archive_counts)
        if previous is not None:
            assert total >= previous
        previous = total
    assert previous <= result.generations - 1


class TestSolverConfigValidation:
    def test_edge_values_accepted(self):
        # the CLI tests check the values just outside these
        SolverConfig(budget_evals=0, crossover_rate=0.0, mutation_rate=1.0)
        SolverConfig(robots=1, energy_bound=math.inf, stagnation_evals=1)

    @pytest.mark.parametrize("top_fraction", [0.35, 0.45, 0.25, 0.15, 0.05, 1.1, math.nan])
    def test_top_fraction_off_the_ladder_rejected(self, top_fraction):
        # run_aedga sizes its window ladder as round(top_fraction * 10)
        with pytest.raises(ConfigurationError, match="top_fraction must be one of"):
            SolverConfig(top_fraction=top_fraction)

    def test_every_ladder_step_accepted(self):
        for k in range(1, 11):
            SolverConfig(top_fraction=k / 10)
            SolverConfig(top_fraction=k * 0.1)  # 0.30000000000000004 and kin

    @pytest.mark.parametrize("framework", [1, None])
    def test_framework_must_name_a_framework(self, framework):
        with pytest.raises(ValueError, match="is not a valid Framework"):
            SolverConfig(framework=framework, robots=2, energy_bound=1e9)


def test_scoring_and_selection_share_one_individual_type():
    from orchard_mtvrp import scheduler

    assert Individual is scheduler.Individual
    assert Individual(GiantSolution.from_tokens((1,)), 1.0).schedule is None


@pytest.mark.parametrize("settings", [{"robots": 1}, {"energy_bound": 1.0}])
def test_robots_and_energy_bound_only_together(settings):
    with pytest.raises(ConfigurationError, match="together"):
        SolverConfig(**settings)
