"""The evolutionary outer loop with experience-guided local search targeting.

Each generation selects one individual for the clustering local search (the
selection window is learned from past successes and smoothed with a Lehmer
mean), applies classic order-crossover and permutation mutations to breed
offspring, and keeps the best individuals of parents plus offspring. The
route-scheduling frameworks hook in as per-generation scoring policies.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ilbim
from .clsm import TripCache, charged_energies, clsm_step
from .core import (
    ConfigurationError,
    GiantSolution,
    Instance,
    check_cover,
    expand_overloads,
    ordered_sum,
)
from .scheduler import Framework, Individual, Schedule, score_with_framework


def selection_probabilities(counts: Sequence[int], smoothing: float) -> tuple[float, ...]:
    """Window sampling distribution: the windows' success shares (uniform
    before any success) blended with their Lehmer mean (sum of squares over
    sum) by weight `smoothing`, renormalized to sum 1."""
    total = sum(counts)
    if total == 0:
        shares = [1.0 / len(counts)] * len(counts)
    else:
        shares = [c / total for c in counts]
    lehmer = ordered_sum(s * s for s in shares) / ordered_sum(shares)
    weights = [(1 - smoothing) * s + smoothing * lehmer for s in shares]
    norm = ordered_sum(weights)
    return tuple(w / norm for w in weights)


def eass_select(
    population: Sequence[Individual],
    counts: Sequence[int],
    rng: random.Random,
) -> tuple[Individual, int]:
    """Pick the local search target and the index of its window: window i,
    the top (i + 1) / 10 of the population, is sampled by the probabilities
    of its success count `counts[i]` (smoothed by 1/P, P the population
    size), and a uniform pick is made among the top of that window."""
    # Roulette: the first window whose running total reaches the spin.
    running = list(itertools.accumulate(selection_probabilities(counts, 1.0 / len(population))))
    index = min(bisect.bisect_left(running, rng.random()), len(running) - 1)
    k = max(1, math.ceil((index + 1) / 10 * len(population)))
    k = min(k, len(population))
    return population[rng.randrange(k)], index


# What `run_aedga` scores: a task permutation, scored through its optimal
# split, or a solution scored as it is.
ScoringInput = tuple[int, ...] | GiantSolution


# An offspring permutation scores infinite or the fsum of the trip energies
# of its optimal split or of a refinement of it (`repair` only adds cuts),
# so in exact arithmetic it costs at least the split's optimum.
# `trip_energy` and `fsum` add non-negative terms (at most n trips
# of n tasks), so a priced fsum lies within a relative e = (3n + 5) * 2**-53
# of its exact cost, and the split program's total of a cut set (`best[n]`
# for the kept one) within F * e, F = 1 + capacity / robot weight, since its
# arc factor (w + load) - y is rounded relative to w + load. F is 4 on
# every generated or parsed orchard. Chaining these, a split's fsum lies
# above the offspring's score by a relative 2 * (1 + F) * e at most, and
# `best[n]` above the split's fsum by (1 + F) * e at most: both below this
# margin for every n up to 10**5 at F = 4. So a `best[n]` above cutoff *
# (1 + margin) puts the split's fsum, and the score, above the cutoff.
_SURVIVAL_MARGIN = 1e-9


def _resplit(
    perms: Sequence[Sequence[int]], inst: Instance, cutoff: float = math.inf, cache: TripCache | None = None
) -> list[tuple[GiantSolution, list[float]] | None]:
    """Optimal separator placement for fixed task orders: a shortest-path
    dynamic program over cut positions restricted to capacity-feasible
    trips, run over a batch of permutations of one length at once. Returns
    one result per permutation: its split solution and its trips'
    energies, priced by `charged_energies` from `cache` (a fresh `TripCache`
    when none is given), or None, a skip verdict, when their fsum lies above
    `cutoff`.

    Greedy splitting (cut only on overflow) cannot express solutions that
    deliberately run an extra light trip, which the load-dependent energy
    often rewards; the dynamic program reaches every feasible split of the
    permutation and never does worse than greedy.

    Each column of the batch gets the operations, in the order, of the
    one-permutation loop that extends a trip from its start one arc at a
    time. For each trip length k, numpy arrays over (end, permutation) hold
    the load, summed left to right from the trip's start, the open energy
    `out * w`, then `open += arc * ((w + load) - y)` per added task, and the
    return leg `back * (w + load)`, or inf once the load passes the
    capacity: every yield is positive, so loads only grow with k and inf
    stands where the loop would break. One Python loop over the ends then
    forms `(best[start] + open) + back` for the at most K starts of each
    end, in place, and keeps their minimum as `best[end]`. The starts are
    laid out ascending, so the first minimum that `argmin` finds among the
    same sums, after the loop, is the smallest start among equals: the cut
    the loop makes when a total must beat the best so far strictly. The
    tables are `cache.split_tables`, reused from call to call.

    The program only supplies the cuts (as in Prins's split). A kept trip
    never overflows, since the program keeps the same left-to-right load
    that `expand_overloads` adds up, so its pieces are the trip alone and
    its charged energy is `trip_energy`'s: the energies are those
    `evaluate` charges, and their `math.fsum` is its energy.

    The program's own total is tested first, against the cutoff widened by
    `_SURVIVAL_MARGIN`, so most skips cost the program alone. Only a kept
    split gets its trip tuples; its solution holds the permutation as its
    sequence.
    """
    perms = [tuple(perm) for perm in perms]
    cache = TripCache() if cache is None else cache
    if not perms or not perms[0]:
        return [(GiantSolution(()), []) for _ in perms]
    order = np.array(perms).T  # (position, permutation)
    n, batch = order.shape
    d = inst.dist
    y = np.asarray(inst.yields)[order]
    w = inst.robot_weight
    capacity = inst.capacity
    # K, the longest trip that fits somewhere in the batch.
    load = y.copy()
    longest = 1
    while longest < n:
        load[: n - longest] += y[longest:]
        if (load[: n - longest] > capacity).all():
            break
        longest += 1
    # sums[end - 1, K - k] and back[end - 1, K - k] price the trip of k
    # tasks at positions end - k to end - 1, so the start rises along axis 1.
    size = 2 * n * longest * batch
    if cache.split_tables.size < size:
        cache.split_tables = np.empty(size)
    sums, back = cache.split_tables[:size].reshape(2, n, longest, batch)
    back_leg = d[order, 0]
    arc = d[order[:-1], order[1:]]  # arc[j - 1] joins position j - 1 to j
    load = y.copy()
    for k in range(1, longest + 1):
        col, m = longest - k, n - k + 1  # m: the starts of a k-task trip
        if k == 1:
            np.multiply(d[0, order], w, out=sums[:, col])
        else:
            load[:m] += y[k - 1 :]
            np.multiply(arc[k - 2 :], (w + load[:m]) - y[k - 1 :], out=sums[k - 1 :, col])
            sums[k - 1 :, col] += sums[k - 2 : n - 1, col + 1]
            sums[: k - 1, col] = 0.0
            back[: k - 1, col] = math.inf
        np.multiply(back_leg[k - 1 :], w + load[:m], out=back[k - 1 :, col])
        back[k - 1 :, col][load[:m] > capacity] = math.inf
    best = np.full((longest + n + 1, batch), math.inf)  # best[K + i] is best[i]
    best[longest] = 0.0
    for end in range(1, n + 1):
        total = sums[end - 1]
        total += best[end : end + longest]
        total += back[end - 1]
        np.minimum.reduce(total, axis=0, out=best[longest + end])
    kept = np.flatnonzero(best[-1] <= cutoff * (1 + _SURVIVAL_MARGIN))
    # The trip that ends before `end` starts at end - K + step.
    steps = sums[:, :, kept].argmin(axis=1)
    out: list[tuple[GiantSolution, list[float]] | None] = [None] * batch
    for column, steps_before in zip(kept.tolist(), steps.T.tolist()):
        ends = [n]
        while ends[-1] > 0:
            ends.append(ends[-1] - longest + steps_before[ends[-1] - 1])
        ends.reverse()
        perm = perms[column]
        trips = tuple(perm[start:end] for start, end in zip(ends, ends[1:]))
        energies = charged_energies(trips, inst, cache)
        if math.fsum(energies) <= cutoff:
            out[column] = (GiantSolution.trusted(trips, perm), energies)
    return out


def crossover(
    p1: tuple[int, ...], p2: tuple[int, ...], rng: random.Random
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order crossover of two task permutations (a parent's separator-stripped
    `task_sequence`). The caller splits each child, after mutation, with the
    optimal-split program, so children stay capacity-feasible."""
    n = len(p1)
    a, b = rng.randint(0, n), rng.randint(0, n)
    lo, hi = min(a, b), max(a, b)

    def ox(donor: tuple[int, ...], filler: tuple[int, ...]) -> tuple[int, ...]:
        # the filler's other tasks, read from `hi` on, fill from `hi` on
        middle = donor[lo:hi]
        used = set(middle)
        rest = [t for t in filler[hi:] if t not in used]
        rest += [t for t in filler[:hi] if t not in used]
        return (*rest[n - hi :], *middle, *rest[: n - hi])

    return ox(p1, p2), ox(p2, p1)


def mutate(given: tuple[int, ...], rng: random.Random, rate: float) -> tuple[int, ...]:
    """With probability `rate`, one of swap / segment reversal / relocation
    on a task permutation. Returns `given` itself when the draw does not
    fire or there is no task, else a new tuple, which equals `given` when
    the move changes nothing (a swap of a position with itself)."""
    if rng.random() >= rate:
        return given
    perm = list(given)
    n = len(perm)
    if n == 0:
        return given
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
    return tuple(perm)


def passed_on(
    parent: GiantSolution, inst: Instance, rng: random.Random, rate: float
) -> ScoringInput:
    """The scoring input of a parent that no crossover touched, after
    mutation: the parent itself when the draw did not fire, or left its
    permutation as it was and the parent is not overloaded; else the
    mutated permutation, to be split."""
    perm = parent.task_sequence()
    mutant = mutate(perm, rng, rate)
    if mutant is perm or (mutant == perm and not expand_overloads(parent.trips, inst)[1]):
        return parent
    return mutant


def _rank(ind: Individual) -> tuple:
    """Sort key: lower energy, then fewer trips, then smaller trips. Trip
    tuples order solutions as their giant tours do: a trip's end sorts below
    any task id, as the 0-marker does."""
    return (ind.energy, len(ind.solution.trips), ind.solution.trips)


def environmental_selection(
    parents: Sequence[Individual], offspring: Sequence[Individual], population: int
) -> list[Individual]:
    """Elitist truncation of parents plus offspring; ties prefer fewer trips,
    then lexicographically smaller trips (see `_rank`).

    Distinct genomes take precedence over repeats of better ones: without
    this the population collapses to copies of the incumbent within a few
    generations and single-move mutation cannot escape two-move local optima.
    """
    pool = sorted([*parents, *offspring], key=_rank)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    unique: list[Individual] = []
    repeats: list[Individual] = []
    for ind in pool:
        if ind.solution.trips in seen:
            repeats.append(ind)
        else:
            seen.add(ind.solution.trips)
            unique.append(ind)
    return (unique + repeats)[:population]


@dataclass
class SolverConfig:
    """Run parameters.

    The run stops at the first budget reached: wall-clock seconds (checked
    once per generation) or a count of solution scorings; when neither is
    given the wall-clock default of n seconds is used. `robots` and
    `energy_bound` come together or not at all. `init="random"` swaps the
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
        windows = self.top_fraction * 10  # the ladder's windows 0.1, 0.2, ..., top_fraction
        if not (1 <= windows <= 10 and abs(windows - round(windows)) <= 1e-9):
            raise ConfigurationError(
                f"top_fraction must be one of 0.1, 0.2, ..., 1, got {self.top_fraction}")
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
        if (self.robots is None) != (self.energy_bound is None):
            raise ConfigurationError(
                "--robots and --emax (robots, energy_bound) must be given together")
        self.framework = Framework(self.framework)


@dataclass(frozen=True, slots=True)
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


_MEMO_GENERATIONS = 10


def _survival_cutoff(pop: Sequence[Individual], population: int) -> float:
    """The split energy above which an offspring permutation cannot enter the
    next population, or inf when there is none.

    When `pop` holds `population` pairwise distinct genomes of finite energy,
    an offspring scored above the worst of them ranks after all of them, so
    elitist selection drops it whatever its schedule. A split energy above
    the cutoff proves that score (see `_SURVIVAL_MARGIN`)."""
    worst = max((ind.energy for ind in pop), default=math.inf)
    if worst == math.inf or len({ind.solution.trips for ind in pop}) < population:
        return math.inf
    return worst * (1 + _SURVIVAL_MARGIN)


class _Memo:
    """The individuals scored from the last `size` distinct scoring inputs,
    least recently used first out, keyed on the input and never on the
    scored solution: Fr1 can hand back a solution other than its input, and
    scoring that solution anew can split it further.

    Most entries outlive their individual, tens of KB of tuples at n≈1000.
    So a permutation (of checked task ids) is kept as 4-byte ids, and its
    individual as trip lengths, energy and schedule: its trips keep the
    permutation's order, as a split's and `repair`'s do. A skipped
    offspring is held as its verdict, None: in `run_aedga` the survival
    cutoff never rises once it is finite, so a repeat would be skipped
    again."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.entries: dict[GiantSolution | bytes, Individual | tuple | None] = {}

    def __call__(
        self, inputs: Sequence[ScoringInput], score: Callable[[list[ScoringInput]], list[Individual | None]]
    ) -> list[Individual | None]:
        """The individual scored from each input, in order, or None for a
        skip: held ones from the memo, the distinct others from one
        `score(new)` call, which returns one result per input of `new`. The
        memo is trimmed to `size` once, after the batch, so no input of the
        batch is dropped before it is read."""
        entries = self.entries
        keys = [given if isinstance(given, GiantSolution) else array.array("i", given).tobytes()
                for given in inputs]
        new = {key: given for key, given in zip(keys, inputs) if key not in entries}
        fresh = dict(zip(new, score(list(new.values()))))
        for key, ind in fresh.items():
            compact = ind is not None and isinstance(key, bytes)
            entries[key] = (tuple(map(len, ind.solution.trips)), ind.energy, ind.schedule) if compact else ind
        out = []
        for key, given in zip(keys, inputs):
            entry = entries[key] = entries.pop(key)
            if isinstance(entry, tuple) and key not in fresh:
                tasks = iter(given)
                trips = tuple(tuple(itertools.islice(tasks, k)) for k in entry[0])
                entry = Individual(GiantSolution.trusted(trips, given), *entry[1:])
            out.append(fresh.get(key, entry))
        while len(entries) > self.size:
            del entries[next(iter(entries))]
        return out


def run_aedga(inst: Instance, cfg: SolverConfig) -> RunResult:
    """Full solver run: balanced initialization, then generations of
    experience-targeted local search, crossover/mutation, elitist selection,
    and (when a robot count and energy bound are set) the configured
    scheduling framework. Every random draw comes from `cfg.seed`.

    A bounded run is infeasible exactly when its best individual has no
    schedule; an unbounded run has no framework and is never infeasible.

    An offspring permutation whose split energy lies above the survival
    cutoff (`_survival_cutoff`) is skipped: `_resplit` returns its verdict
    without trips, and it is never scheduled. It still counts as an
    evaluation, but it is left out of the selection pool, which would have
    dropped it whatever its score. The run's answers are those of scoring
    every offspring. A generation draws its offspring first, in the order
    that scoring each in turn would, then splits the permutations the memo
    does not hold in one `_resplit` batch. Splits, memo hits, local-search
    results and repairs are built with `GiantSolution.trusted`, unchecked,
    from task ids that were checked once when their input was scored."""
    rng = random.Random(cfg.seed)
    framework = cfg.framework if cfg.robots is not None else None

    budget_evals = math.inf if cfg.budget_evals is None else cfg.budget_evals
    budget_seconds = math.inf if cfg.budget_seconds is None else cfg.budget_seconds
    if cfg.budget_evals is None and cfg.budget_seconds is None:
        budget_seconds = float(max(1, inst.n))
    patience = cfg.stagnation_evals or math.inf
    start = time.monotonic()

    evals = 0
    last_improvement_eval = 0
    # Scoring is deterministic and draws nothing from `rng`, so a repeated
    # input may take its earlier result; a generation scores population + 1.
    memo = _Memo(_MEMO_GENERATIONS * (cfg.population + 1))
    trip_cache = TripCache()  # CLSM's work per trip, shared by every step

    def scored(sol: GiantSolution, energies: list[float]) -> Individual:
        return score_with_framework(sol, inst, cfg.robots, cfg.energy_bound, framework, energies)

    def score_all(inputs: Sequence[ScoringInput], cutoff: float = math.inf) -> list[Individual | None]:
        """One counted evaluation per input, in order, whether or not the
        memo holds its result; None for a permutation whose split energy
        lies above `cutoff`. The memo hands the distinct inputs it does not
        hold to `score_new`, which checks their cover, splits their
        permutations in one `_resplit` batch and prices their solutions."""
        nonlocal evals
        evals += len(inputs)

        def score_new(new: list[ScoringInput]) -> list[Individual | None]:
            for given in new:
                check_cover(given.task_sequence() if isinstance(given, GiantSolution) else given, inst)
            perms = [given for given in new if not isinstance(given, GiantSolution)]
            splits = iter(_resplit(perms, inst, cutoff, trip_cache) if perms else ())
            out: list[Individual | None] = []
            for given in new:
                if isinstance(given, GiantSolution):
                    out.append(scored(given, charged_energies(given.trips, inst, trip_cache)))
                else:
                    split = next(splits)
                    out.append(None if split is None else scored(*split))
            return out

        return memo(inputs, score_new)

    if cfg.init == "random":
        drawn: list[ScoringInput] = []
        for _ in range(cfg.population):
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            drawn.append(tuple(perm))
    else:
        drawn = ilbim.init_population(inst, cfg.population)
    pop = score_all(drawn)
    if framework is Framework.FR2:
        # The schedulable starts by energy, cloned in turn up to the
        # population size; when none is, the start is kept and reported.
        alive = sorted((ind for ind in pop if ind.schedule is not None), key=lambda ind: ind.energy)
        pop = (alive * cfg.population)[: cfg.population] or pop
    pop.sort(key=_rank)
    best = pop[0]
    # Successes per selection window, rebuilt on each one, so generations
    # between successes share one tuple in the history.
    counts = (0,) * round(cfg.top_fraction * 10)
    history = [GenerationStat(1, best.energy, counts)]
    generation = 1

    # Under Fr2 every individual is schedulable once a start is; the first
    # clause ends a run that found no schedulable start.
    while (
        (framework is not Framework.FR2 or best.schedule is not None)
        and evals < budget_evals
        and time.monotonic() - start < budget_seconds
        and evals - last_improvement_eval < patience
    ):
        generation += 1
        target, range_index = eass_select(pop, counts, rng)
        if cfg.use_clsm:
            searched = clsm_step(target.solution, inst, cfg.intensity, cfg.population, rng, trip_cache)
        else:
            searched = target.solution
        new_ind = score_all([searched])[0]
        if new_ind.energy < best.energy:
            counts = (*counts[:range_index], counts[range_index] + 1, *counts[range_index + 1 :])
            best = new_ind
            last_improvement_eval = evals

        # Each offspring is split once, after mutation, when the generation's
        # inputs are scored; a skip verdict leaves it unscheduled.
        cutoff = _survival_cutoff(pop, cfg.population)
        inputs: list[ScoringInput] = []
        order = list(range(len(pop)))
        rng.shuffle(order)
        rate = cfg.mutation_rate
        for a, b in zip(order[::2], order[1::2]):
            if rng.random() < cfg.crossover_rate:
                children = crossover(pop[a].solution.task_sequence(), pop[b].solution.task_sequence(), rng)
                inputs.extend(mutate(child, rng, rate) for child in children)
            else:
                inputs.extend(passed_on(pop[i].solution, inst, rng, rate) for i in (a, b))
        if len(order) % 2:
            inputs.append(passed_on(pop[order[-1]].solution, inst, rng, rate))
        offspring = [new_ind, *(ind for ind in score_all(inputs, cutoff) if ind is not None)]

        if framework is Framework.FR2:
            offspring = [ind for ind in offspring if ind.schedule is not None]
        pop = environmental_selection(pop, offspring, cfg.population)
        if pop[0].energy < best.energy:
            best = pop[0]
            last_improvement_eval = evals
        history.append(GenerationStat(generation, best.energy, counts))

    if framework is Framework.FR3:
        # Repair each distinct final genome once (the incumbent is usually
        # pop[0] as well) and keep the first minimum among the scheduled.
        candidates = dict.fromkeys([best.solution] + [ind.solution for ind in pop])
        repaired = (score_with_framework(sol, inst, cfg.robots, cfg.energy_bound, Framework.FR1,
                                         charged_energies(sol.trips, inst, trip_cache))
                    for sol in candidates)
        best = min((ind for ind in repaired if ind.schedule is not None),
                   key=lambda ind: ind.energy, default=Individual(best.solution, math.inf))

    return RunResult(
        best=best.solution,
        best_energy=best.energy,
        schedule=best.schedule,
        status="infeasible" if framework is not None and best.schedule is None else "ok",
        history=tuple(history),
        evaluations=evals,
        generations=generation,
    )
