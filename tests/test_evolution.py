import math
import random

import pytest

from orchard_mtvrp.core import ConfigurationError, GiantSolution, Instance, evaluate
from orchard_mtvrp.evolution import (
    Archive,
    Individual,
    SolverConfig,
    crossover,
    eass_select,
    environmental_selection,
    mutate,
    run_aedga,
    selection_probabilities,
    update_archive,
)
from orchard_mtvrp.oracle import exact_route_generation
from orchard_mtvrp.scheduler import Framework

from conftest import random_instance


class TestSelectionProbabilities:
    def test_zero_counts_uniform(self):
        archive = Archive(ranges=tuple(i / 10 for i in range(1, 7)), counts=(0,) * 6, smoothing=0.1)
        probs = selection_probabilities(archive)
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in probs)

    def test_single_success_hand_values(self):
        archive = Archive(ranges=tuple(i / 10 for i in range(1, 7)), counts=(0, 1, 0, 0, 0, 0), smoothing=0.1)
        probs = selection_probabilities(archive)
        expected = (1 / 15, 10 / 15, 1 / 15, 1 / 15, 1 / 15, 1 / 15)
        for p, e in zip(probs, expected):
            assert p == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_uniform_counts_stay_uniform(self, k):
        for width in range(1, 7):
            archive = Archive(
                ranges=tuple(i / 10 for i in range(1, width + 1)),
                counts=(k,) * width,
                smoothing=0.1,
            )
            probs = selection_probabilities(archive)
            assert all(p == pytest.approx(1 / width, abs=1e-12) for p in probs)

    def test_scale_invariance_in_counts(self):
        base = Archive(ranges=(0.1, 0.2, 0.3), counts=(1, 4, 2), smoothing=0.25)
        doubled = Archive(ranges=(0.1, 0.2, 0.3), counts=(2, 8, 4), smoothing=0.25)
        assert selection_probabilities(base) == pytest.approx(
            selection_probabilities(doubled), abs=1e-15
        )

    def test_sums_to_one(self):
        rng = random.Random(1)
        for _ in range(50):
            width = rng.randint(1, 10)
            archive = Archive(
                ranges=tuple(i / 10 for i in range(1, width + 1)),
                counts=tuple(rng.randint(0, 9) for _ in range(width)),
                smoothing=1 / rng.randint(2, 20),
            )
            assert sum(selection_probabilities(archive)) == pytest.approx(1.0)


def _fake_population(energies):
    return [
        Individual(GiantSolution([(i + 1,)]), e)
        for i, e in enumerate(energies)
    ]


class TestEassSelect:
    def test_first_generation_takes_best(self):
        pop = _fake_population([1.0, 2.0, 3.0])
        archive = Archive.fresh(0.6, 10)
        ind, idx = eass_select(pop, archive, 1, random.Random(0))
        assert ind is pop[0]
        assert idx is None

    def test_smallest_window_is_elitist(self):
        pop = _fake_population(sorted(range(10)))
        archive = Archive(ranges=(0.1,), counts=(0,), smoothing=0.1)
        for seed in range(20):
            ind, idx = eass_select(pop, archive, 2, random.Random(seed))
            assert ind is pop[0]
            assert idx == 0

    def test_biased_counts_dominate_sampling(self):
        pop = _fake_population(sorted(range(10)))
        archive = Archive(
            ranges=tuple(i / 10 for i in range(1, 7)),
            counts=(0, 50, 0, 0, 0, 0),
            smoothing=0.1,
        )
        rng = random.Random(42)
        hits = sum(1 for _ in range(10_000) if eass_select(pop, archive, 2, rng)[1] == 1)
        assert hits / 10_000 > 0.6
        assert hits / 10_000 == pytest.approx(10 / 15, abs=0.02)

    def test_window_respects_population_rank(self):
        pop = _fake_population(sorted(range(10)))
        archive = Archive(ranges=(0.3,), counts=(0,), smoothing=0.1)
        rng = random.Random(7)
        picked = {eass_select(pop, archive, 2, rng)[0].energy for _ in range(200)}
        assert picked == {0, 1, 2}


class TestUpdateArchive:
    def test_increment_on_improvement(self):
        archive = Archive.fresh(0.6, 10)
        out = update_archive(archive, 1, True)
        assert out.counts == (0, 1, 0, 0, 0, 0)

    def test_no_improvement_no_change(self):
        archive = Archive.fresh(0.6, 10)
        assert update_archive(archive, 1, False).counts == archive.counts

    def test_sentinel_no_change(self):
        archive = Archive.fresh(0.6, 10)
        assert update_archive(archive, None, True).counts == archive.counts


class TestVariation:
    def test_identical_parents_preserve_order(self):
        rng = random.Random(1)
        inst = random_instance(rng, 8)
        parent = GiantSolution.from_tokens(tuple(inst.task_ids))
        c1, c2 = crossover(parent, parent, inst, rng)
        assert c1.task_sequence() == parent.task_sequence()
        assert c2.task_sequence() == parent.task_sequence()

    def test_full_span_cut_gives_parent_order(self):
        rng = random.Random(2)
        inst = random_instance(rng, 6)
        p1 = GiantSolution.from_tokens(tuple(inst.task_ids))
        p2 = GiantSolution.from_tokens(tuple(reversed(inst.task_ids)))

        class FullSpan(random.Random):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def randint(self, a, b):
                self.calls += 1
                return a if self.calls == 1 else b

        c1, c2 = crossover(p1, p2, inst, FullSpan())
        assert c1.task_sequence() == p1.task_sequence()
        assert c2.task_sequence() == p2.task_sequence()

    def test_children_conserve_tasks_and_feasibility(self):
        rng = random.Random(3)
        for _ in range(1000):
            inst = random_instance(rng, rng.randint(2, 12))
            perm1 = list(inst.task_ids)
            perm2 = list(inst.task_ids)
            rng.shuffle(perm1)
            rng.shuffle(perm2)
            c1, c2 = crossover(
                GiantSolution.from_tokens(tuple(perm1)), GiantSolution.from_tokens(tuple(perm2)), inst, rng
            )
            for child in (c1, c2):
                assert sorted(child.task_sequence()) == list(inst.task_ids)
                assert not evaluate(child, inst).penalized

    def test_mutation_rate_zero_is_identity(self):
        rng = random.Random(4)
        inst = random_instance(rng, 7)
        sol = GiantSolution.from_tokens(tuple(inst.task_ids))
        assert mutate(sol, inst, rng, 0.0) is sol

    def test_self_swap_is_identity(self):
        inst = random_instance(random.Random(5), 4)
        sol = GiantSolution.from_tokens((1, 0, 2, 3, 0, 4))

        class SelfSwap(random.Random):
            def random(self):
                return 0.0  # always fire

            def randrange(self, *a):
                return 0  # op=swap, i=j=0

        assert mutate(sol, inst, SelfSwap(), 1.0) is sol

    def test_mutants_valid_and_feasible(self):
        rng = random.Random(6)
        for _ in range(1000):
            inst = random_instance(rng, rng.randint(2, 12))
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            out = mutate(GiantSolution.from_tokens(tuple(perm)), inst, rng, 1.0)
            assert sorted(out.task_sequence()) == list(inst.task_ids)
            assert not evaluate(out, inst).penalized


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
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
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
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
        result = run_aedga(
            inst,
            SolverConfig(
                budget_evals=100, seed=1, robots=2, energy_bound=100.0,
                framework=Framework.FR2,
            ),
        )
        assert result.status == "infeasible"

    def test_fr3_repairs_at_termination(self):
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
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
        inst = Instance(
            coords=((0.0, 0.0), (10.0, 0.0), (20.0, 0.0)),
            yields=(0.0, 5.0, 5.0),
            capacity=100.0,
            robot_weight=20.0,
        )
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
