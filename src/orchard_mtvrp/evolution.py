"""The evolutionary outer loop with experience-guided local search targeting.

Each generation selects one individual for the clustering local search (the
selection window is learned from past successes and smoothed with a Lehmer
mean), applies classic order-crossover and permutation mutations to breed
offspring, and keeps the best individuals of parents plus offspring. The
route-scheduling frameworks hook in as per-generation scoring policies.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import ilbim
from .clsm import clsm_step
from .core import (
    ConfigurationError,
    GiantSolution,
    Instance,
    evaluate,
    expand_overloads,
    ordered_sum,
)
from .scheduler import Framework, Individual, Schedule, finalize_fr3, score_with_framework


@dataclass(frozen=True)
class Archive:
    """Success counts per selection-window width (0.1, 0.2, ..., p)."""

    ranges: tuple[float, ...]
    counts: tuple[int, ...]
    smoothing: float  # blend weight toward uniformity, 1/P

    @staticmethod
    def fresh(top_fraction: float, population: int) -> "Archive":
        width = round(top_fraction * 10)
        return Archive(
            ranges=tuple(i / 10 for i in range(1, width + 1)),
            counts=tuple(0 for _ in range(width)),
            smoothing=1.0 / population,
        )


def selection_probabilities(archive: Archive) -> tuple[float, ...]:
    """Window sampling distribution: normalized counts blended with their
    Lehmer mean (sum of squares over sum), renormalized to sum 1."""
    total = sum(archive.counts)
    if total == 0:
        shares = [1.0 / len(archive.counts)] * len(archive.counts)
    else:
        shares = [c / total for c in archive.counts]
    lehmer = ordered_sum(s * s for s in shares) / ordered_sum(shares)
    c = archive.smoothing
    weights = [(1 - c) * s + c * lehmer for s in shares]
    norm = ordered_sum(weights)
    return tuple(w / norm for w in weights)


def eass_select(
    population: Sequence[Individual],
    archive: Archive,
    generation: int,
    rng: random.Random,
) -> tuple[Individual, int | None]:
    """Pick the local search target. The first generation always takes the
    incumbent best; afterwards a window width is sampled by the archive
    probabilities and a uniform pick is made among the top of that window."""
    if generation <= 1:
        return population[0], None
    probs = selection_probabilities(archive)
    spin = rng.random()
    acc = 0.0
    index = len(probs) - 1
    for i, p in enumerate(probs):
        acc += p
        if spin <= acc:
            index = i
            break
    width = archive.ranges[index]
    k = max(1, math.ceil(width * len(population)))
    k = min(k, len(population))
    return population[rng.randrange(k)], index


def update_archive(archive: Archive, range_index: int | None, improved_best: bool) -> Archive:
    if range_index is None or not improved_best:
        return archive
    counts = list(archive.counts)
    counts[range_index] += 1
    return replace(archive, counts=tuple(counts))


def _resplit(perm: Sequence[int], inst: Instance) -> GiantSolution:
    """Optimal separator placement for a fixed task order: a shortest-path
    dynamic program over cut positions restricted to capacity-feasible trips.

    Greedy splitting (cut only on overflow) cannot express solutions that
    deliberately run an extra light trip, which the load-dependent energy
    often rewards; the dynamic program reaches every feasible split of the
    permutation and never does worse than greedy.

    The depot legs and consecutive arcs of the permutation are gathered from
    the distance matrix once per call, as Python floats, so the O(n*L) inner
    loop does plain float arithmetic; the operations and their order are
    those of indexing the matrix per arc, so the split is the same.
    """
    n = len(perm)
    if n == 0:
        return GiantSolution(())
    d = inst.dist
    order = np.asarray(perm)
    out_leg = d[0, order].tolist()
    back_leg = d[order, 0].tolist()
    arc = d[order[:-1], order[1:]].tolist()  # arc[j - 1] joins perm[j - 1] to perm[j]
    y = [inst.yields[t] for t in perm]
    w = inst.robot_weight
    capacity = inst.capacity
    best = [math.inf] * (n + 1)
    cut_before = [0] * (n + 1)
    best[0] = 0.0
    for i in range(n):
        if best[i] == math.inf:
            continue
        load = 0.0
        open_energy = out_leg[i] * w
        for j in range(i, n):
            load += y[j]
            if load > capacity:
                break
            if j > i:
                open_energy += arc[j - 1] * (w + load - y[j])
            total = best[i] + open_energy + back_leg[j] * (w + load)
            if total < best[j + 1]:
                best[j + 1] = total
                cut_before[j + 1] = i
    trips: list[tuple[int, ...]] = []
    end = n
    while end > 0:
        start = cut_before[end]
        trips.append(tuple(perm[start:end]))
        end = start
    return GiantSolution(reversed(trips))


def crossover(
    parent1: GiantSolution,
    parent2: GiantSolution,
    inst: Instance,
    rng: random.Random,
) -> tuple[GiantSolution, GiantSolution]:
    """Order crossover on the separator-stripped permutations; separators are
    re-derived by the optimal-split program so children stay capacity-feasible."""
    p1 = parent1.task_sequence()
    p2 = parent2.task_sequence()
    n = len(p1)
    a, b = rng.randint(0, n), rng.randint(0, n)
    lo, hi = min(a, b), max(a, b)

    def ox(donor: tuple[int, ...], filler: tuple[int, ...]) -> list[int]:
        middle = donor[lo:hi]
        used = set(middle)
        rest = [t for t in filler[hi:] + filler[:hi] if t not in used]
        child: list[int] = [0] * n
        child[lo:hi] = middle
        positions = list(range(hi, n)) + list(range(0, lo))
        for pos, t in zip(positions, rest):
            child[pos] = t
        return child

    return _resplit(ox(p1, p2), inst), _resplit(ox(p2, p1), inst)


def mutate(sol: GiantSolution, inst: Instance, rng: random.Random, rate: float) -> GiantSolution:
    """With probability `rate`, one of swap / segment reversal / relocation
    on the task permutation, separators re-derived by the optimal split. A
    draw that leaves the permutation of a feasible input unchanged returns
    the input untouched."""
    if rng.random() >= rate:
        return sol
    perm = list(sol.task_sequence())
    n = len(perm)
    if n == 0:
        return sol
    op = rng.randrange(3)
    if op == 0:
        i, j = rng.randrange(n), rng.randrange(n)
        perm[i], perm[j] = perm[j], perm[i]
    elif op == 1:
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        perm[i : j + 1] = reversed(perm[i : j + 1])
    else:
        i = rng.randrange(n)
        t = perm.pop(i)
        perm.insert(rng.randrange(n), t)
    if tuple(perm) == sol.task_sequence() and not expand_overloads(sol.trips, inst)[1]:
        return sol
    return _resplit(perm, inst)


def _rank(ind: Individual) -> tuple:
    """Sort key: lower energy, then fewer trips, then smaller tokens."""
    return (ind.energy, len(ind.solution.trips), ind.solution.tokens)


def environmental_selection(
    parents: Sequence[Individual], offspring: Sequence[Individual], population: int
) -> list[Individual]:
    """Elitist truncation of parents plus offspring; ties prefer fewer trips,
    then lexicographically smaller token sequences.

    Distinct genomes take precedence over repeats of better ones: without
    this the population collapses to copies of the incumbent within a few
    generations and single-move mutation cannot escape two-move local optima.
    """
    pool = sorted([*parents, *offspring], key=_rank)
    seen: set[tuple[int, ...]] = set()
    unique: list[Individual] = []
    repeats: list[Individual] = []
    for ind in pool:
        if ind.solution.tokens in seen:
            repeats.append(ind)
        else:
            seen.add(ind.solution.tokens)
            unique.append(ind)
    return (unique + repeats)[:population]


@dataclass
class SolverConfig:
    """Run parameters.

    Exactly one budget applies: wall-clock seconds (checked once per
    generation) or a count of solution scorings; when neither is given the
    wall-clock default of n seconds is used. `init="random"` swaps the
    balanced initializer for uniform shuffles and `use_clsm=False` disables
    the local search (the two ablation variants).
    """

    population: int = 10
    top_fraction: float = 0.6
    intensity: float = 0.2
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    budget_seconds: float | None = None
    budget_evals: int | None = None
    framework: Framework = Framework.FR1
    robots: int | None = None
    energy_bound: float | None = None
    init: str = "ilbim"
    use_clsm: bool = True
    stagnation_evals: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ConfigurationError("population must be >= 2")
        if not 0.1 <= self.top_fraction <= 1.0:
            raise ConfigurationError("top_fraction must lie in [0.1, 1]")
        if not 0 < self.intensity <= 1.0:
            raise ConfigurationError("intensity must lie in (0, 1]")
        if self.init not in ("ilbim", "random"):
            raise ConfigurationError(f"unknown init {self.init!r}")
        if not (0 <= self.crossover_rate <= 1 and 0 <= self.mutation_rate <= 1):
            raise ConfigurationError("crossover_rate and mutation_rate must lie in [0, 1]")
        for name, least in (("budget_seconds", 0), ("budget_evals", 0), ("robots", 1),
                            ("stagnation_evals", 1)):
            if getattr(self, name) is not None and not getattr(self, name) >= least:
                raise ConfigurationError(f"{name} must be >= {least}")
        if self.energy_bound is not None and not self.energy_bound > 0:
            raise ConfigurationError("energy_bound must be positive")
        if isinstance(self.framework, str):
            self.framework = Framework(self.framework)


@dataclass(frozen=True)
class GenerationStat:
    generation: int
    best_energy: float
    archive_counts: tuple[int, ...]


@dataclass(frozen=True)
class RunResult:
    best: GiantSolution
    best_energy: float
    schedule: Schedule | None
    status: str  # "ok" or "infeasible"
    history: tuple[GenerationStat, ...]
    evaluations: int
    generations: int


_FR2_RETRIES = 3


def run_aedga(inst: Instance, cfg: SolverConfig, rng: random.Random | None = None) -> RunResult:
    """Full solver run: balanced initialization, then generations of
    experience-targeted local search, crossover/mutation, elitist selection,
    and (when a robot count and energy bound are set) the configured
    scheduling framework."""
    if rng is None:
        rng = random.Random(cfg.seed)
    rs_active = cfg.robots is not None and cfg.energy_bound is not None
    framework = cfg.framework

    budget_evals = cfg.budget_evals
    budget_seconds = cfg.budget_seconds
    if budget_evals is None and budget_seconds is None:
        budget_seconds = float(max(1, inst.n))
    start = time.monotonic()

    evals = 0
    last_improvement_eval = 0

    def score(sol: GiantSolution) -> Individual:
        nonlocal evals
        evals += 1
        if rs_active:
            return score_with_framework(sol, inst, cfg.robots, cfg.energy_bound, framework)
        return Individual(sol, evaluate(sol, inst).energy)

    def fresh_population() -> list[GiantSolution]:
        if cfg.init == "random":
            out = []
            for _ in range(cfg.population):
                perm = list(inst.task_ids)
                rng.shuffle(perm)
                out.append(_resplit(perm, inst))
            return out
        return ilbim.init_population(inst, cfg.population)

    def fr2_refill(pop: list[Individual]) -> list[Individual] | None:
        """Keep only schedulable individuals, topping back up to size with
        clones of the best survivors, or fresh individuals when none survive."""
        alive = [ind for ind in pop if ind.energy != math.inf]
        for _ in range(_FR2_RETRIES):
            if alive:
                break
            alive = [
                ind
                for ind in (score(s) for s in fresh_population())
                if ind.energy != math.inf
            ]
        if not alive:
            return None
        alive.sort(key=lambda ind: ind.energy)
        i = 0
        while len(alive) < cfg.population:
            alive.append(alive[i % len(alive)])
            i += 1
        return alive

    pop = [score(s) for s in fresh_population()]
    status = "ok"
    if rs_active and framework is Framework.FR2:
        refilled = fr2_refill(pop)
        if refilled is None:
            status = "infeasible"
        else:
            pop = refilled
    pop.sort(key=_rank)
    pop = pop[: cfg.population]
    best = pop[0]
    archive = Archive.fresh(cfg.top_fraction, cfg.population)
    history = [GenerationStat(1, best.energy, archive.counts)]
    generation = 1

    def budget_left() -> bool:
        if status != "ok":
            return False
        if budget_evals is not None and evals >= budget_evals:
            return False
        if budget_seconds is not None and time.monotonic() - start >= budget_seconds:
            return False
        if (
            cfg.stagnation_evals is not None
            and evals - last_improvement_eval >= cfg.stagnation_evals
        ):
            return False
        return True

    while budget_left():
        generation += 1
        target, range_index = eass_select(pop, archive, generation, rng)
        if cfg.use_clsm:
            searched = clsm_step(target.solution, inst, cfg.intensity, cfg.population, rng)
        else:
            searched = target.solution
        new_ind = score(searched)
        improved = new_ind.energy < best.energy
        archive = update_archive(archive, range_index, improved)
        if improved:
            best = new_ind
            last_improvement_eval = evals

        offspring: list[Individual] = [new_ind]
        order = list(range(len(pop)))
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            if rng.random() < cfg.crossover_rate:
                c1, c2 = crossover(pop[a].solution, pop[b].solution, inst, rng)
            else:
                c1, c2 = pop[a].solution, pop[b].solution
            for child in (c1, c2):
                offspring.append(score(mutate(child, inst, rng, cfg.mutation_rate)))
        if len(order) % 2:
            lone = pop[order[-1]].solution
            offspring.append(score(mutate(lone, inst, rng, cfg.mutation_rate)))

        if rs_active and framework is Framework.FR2:
            refilled = fr2_refill(pop + offspring)
            if refilled is None:
                status = "infeasible"
                break
            pop = environmental_selection(refilled, (), cfg.population)
        else:
            pop = environmental_selection(pop, offspring, cfg.population)
        if pop[0].energy < best.energy:
            best = pop[0]
            last_improvement_eval = evals
        history.append(GenerationStat(generation, best.energy, archive.counts))

    schedule = best.schedule
    if rs_active and framework is Framework.FR3 and status == "ok":
        # The incumbent is usually pop[0] as well; score each genome once.
        candidates = dict.fromkeys([best.solution] + [ind.solution for ind in pop])
        final = finalize_fr3(list(candidates), inst, cfg.robots, cfg.energy_bound)
        if final is None:
            status = "infeasible"
            best = Individual(best.solution, math.inf)
        else:
            best = final
            schedule = final.schedule
    elif rs_active and status == "ok" and (best.energy == math.inf or best.schedule is None):
        status = "infeasible"

    return RunResult(
        best=best.solution,
        best_energy=best.energy,
        schedule=schedule,
        status=status,
        history=tuple(history),
        evaluations=evals,
        generations=generation,
    )
