"""Solver benchmark: fixed-budget `run_aedga` solves on generated orchards.

Run from the repository root:

    python3 perfbench/run.py --workload ga-n60 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Lines before it describe the instances and print each metric
with its unit. Everything runs in this one single-threaded process; `all`
starts one process per workload in turn, so each reports its own peak
memory. perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_solve, z_single  # noqa: E402  (perfbench/ is on sys.path)
from spans import SpanTotals, Tracer  # noqa: E402

PACKAGE = "orchard_mtvrp"
SETUP_REPEATS = 9
WARMUP_EVALS = 200
SEED_STRIDE = 1000  # --seed s scans instance seeds from base_seed + s * SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    name: str
    side: float
    trees: int
    maturity: float
    base_seed: int  # the ROADMAP baseline instance, the first one at --seed 0
    target_n: int  # its task count; every instance used lies within n_window of it
    instances: int  # instances per run, each solved with its own solver seed
    budget_evals: int
    robots: int | None = None
    bound_share: float | None = None  # e_max = bound_share * Z_single / robots

    @property
    def n_window(self) -> int:
        # The generator's task count spreads widely (51 to 69 at n≈60) and
        # solve time follows it, so instances are kept near the baseline size.
        return max(2, round(0.01 * self.target_n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ga-n60", 20, 100, 0.6, 42, 59, 8, 2000),
        Workload("sched-n60-fr1", 20, 100, 0.6, 42, 59, 10, 2000, robots=8, bound_share=0.55),
        Workload("large-n965", 70, 1225, 0.8, 1, 965, 1, 300),
    )
}


@dataclass
class Problem:
    """The instances of one run and the solver settings for each."""

    workload: Workload
    seeds: list[int]
    instances: list
    bounds: list[float | None]
    z_singles: list[float]
    solver_seeds: list[int]
    first: dict[int, object] = field(default_factory=dict)


@dataclass
class Solve:
    pair: int
    seconds: float
    result: object
    problems: list[str]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 starts at the ROADMAP baseline instances")
    p.add_argument("--seconds", type=float, default=30.0, help="how long the solves of one run are measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import orchard_mtvrp  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the solver from src/: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    problem, setup_times, setup_spans = set_up(workload, args.seed, traced=bool(args.trace))
    warm = warm_up(problem)
    if args.trace:
        metrics, solves = traced_run(problem, args.seconds, setup_spans)
    else:
        solves = []

        def step(pair: int) -> None:
            solves.append(solve(problem, pair))
            # A timed set-up after every solve spreads the set-up samples over
            # the run, so a short slow spell of the machine moves their median less.
            setup_times.append(time_setup(workload, problem.seeds))

        in_turn(problem, args.seconds, step)
        metrics = end_to_end(problem, solves, setup_times)
    solves = warm + solves
    failed = [s for s in solves if s.problems]
    for s in failed:
        print(f"FAILED solve of instance seed {problem.seeds[s.pair]}: {'; '.join(s.problems)}")
    fail_share = len(failed) / len(solves)
    print(f"fail_share {fail_share:.4g} ratio ({len(failed)} of {len(solves)} solves, warm-up included)")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(solves),
                "failed": len(failed),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, one after the other."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


# -- set-up -------------------------------------------------------------------


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    from orchard_mtvrp import OrchardSpec, generate_orchard

    seeds: list[int] = []
    candidate = workload.base_seed + SEED_STRIDE * seed
    while len(seeds) < workload.instances:
        spec = OrchardSpec(workload.side, workload.trees, workload.maturity, seed=candidate)
        if abs(generate_orchard(spec).n - workload.target_n) <= workload.n_window:
            seeds.append(candidate)
        candidate += 1
    return seeds


def build_instances(workload: Workload, seeds: list[int]) -> list:
    """Generate each orchard, then read it back the way the CLI reads a file.
    Reading builds the Instance and its distance matrix."""
    from orchard_mtvrp import OrchardSpec, instances

    out = []
    for seed in seeds:
        spec = OrchardSpec(workload.side, workload.trees, workload.maturity, seed=seed)
        out.append(instances.parse_instance(instances.emit_instance(instances.generate_orchard(spec))))
    return out


def time_setup(workload: Workload, seeds: list[int]) -> float:
    start = time.perf_counter()
    build_instances(workload, seeds)
    return time.perf_counter() - start


def set_up(workload: Workload, seed: int, traced: bool) -> tuple[Problem, list[float], SpanTotals | None]:
    seeds = instance_seeds(workload, seed)
    tracer = Tracer(PACKAGE) if traced else None
    if tracer is not None:
        instrument_setup(tracer)
    times: list[float] = []
    spans = SpanTotals()
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            built = build_instances(workload, seeds)
            times.append(time.perf_counter() - start)
            if tracer is not None:
                spans.merge(tracer.drain())
    finally:
        if tracer is not None:
            tracer.close()
    z = [z_single(inst) for inst in built]
    bounds = [workload.bound_share * zs / workload.robots if workload.robots else None for zs in z]
    problem = Problem(workload, seeds, built, bounds, z, [SEED_STRIDE * seed + i for i in range(len(seeds))])
    for i, inst in enumerate(built):
        line = f"instance seed {seeds[i]}: n={inst.n} Z_single={z[i]:.6g}"
        if workload.robots:
            line += f" e_max={workload.bound_share}*Z_single/{workload.robots}={bounds[i]:.6g}"
        print(line + f" solver seed {problem.solver_seeds[i]}")
    return problem, times, spans if traced else None


# -- solving ------------------------------------------------------------------


def solve(problem: Problem, pair: int, tracer: Tracer | None = None, budget: int | None = None) -> Solve:
    """One run_aedga call, timed and checked. A repeat of a pair must give
    the same result as its first solve."""
    from orchard_mtvrp import Framework, SolverConfig, evolution

    w = problem.workload
    cfg = SolverConfig(
        budget_evals=budget or w.budget_evals,
        framework=Framework.FR1,
        robots=w.robots,
        energy_bound=problem.bounds[pair],
        seed=problem.solver_seeds[pair],
    )
    inst = problem.instances[pair]
    start = time.perf_counter()
    if tracer is None:
        result = evolution.run_aedga(inst, cfg)
    else:
        result = tracer.root("evolution.run_aedga", evolution.run_aedga, inst, cfg)
    seconds = time.perf_counter() - start
    problems = check_solve(result, inst, w.robots, problem.bounds[pair])
    first = problem.first.setdefault(pair, result)
    outcome = (result.best_energy, result.evaluations, result.generations)
    if (first.best_energy, first.evaluations, first.generations) != outcome:
        problems.append(f"repeat gave {outcome}, the first solve of the same seed gave "
                        f"{(first.best_energy, first.evaluations, first.generations)}")
    return Solve(pair, seconds, result, problems)


def warm_up(problem: Problem) -> list[Solve]:
    """Solves before the timed ones, not timed: the first solve in a process
    runs slower. Each is repeated, so every run checks determinism. An n≈60
    workload solves its first instance just as the timed solves will: a
    shorter search under the Fr1 bound can end without finding a schedule.
    A large workload, whose solves take 20 s, solves an n≈60 orchard
    without robots twice, briefly."""
    if problem.workload.target_n <= 100:
        return [solve(problem, 0)]
    small_workload = WORKLOADS["ga-n60"]
    seed = problem.seeds[0]
    built = build_instances(small_workload, [seed])
    small = Problem(small_workload, [seed], built, [None], [z_single(built[0])], problem.solver_seeds[:1])
    return [solve(small, 0, budget=WARMUP_EVALS) for _ in range(2)]


def in_turn(problem: Problem, seconds: float, step: Callable[[int], None]) -> None:
    """Call step(pair) for the instances in turn, over and over, until the
    next step would not end within `seconds`, judged by the longest step so
    far. Every instance gets at least one step. The last pass may be partial;
    the metrics weigh each instance the same whatever its number of steps."""
    start = time.perf_counter()
    longest = 0.0
    done = 0
    while True:
        began = time.perf_counter()
        step(done % len(problem.instances))
        done += 1
        longest = max(longest, time.perf_counter() - began)
        if done >= len(problem.instances) and time.perf_counter() - start + longest > seconds:
            return


# -- end-to-end metrics ---------------------------------------------------------


def end_to_end(problem: Problem, solves: list[Solve], setup_times: list[float]) -> dict:
    pairs = range(len(problem.instances))
    # Mean solve time of each instance, so that an instance solved once more
    # than the others in a partial last pass weighs no more than they do.
    times = [statistics.fmean(s.seconds for s in solves if s.pair == pair) for pair in pairs]
    first = [problem.first[pair].best_energy / problem.z_singles[pair] for pair in pairs]
    raw = statistics.fmean(problem.first[pair].best_energy for pair in pairs)
    metrics = {
        "evals_per_s": (sum(problem.first[pair].evaluations for pair in pairs) / sum(times), "1/s"),
        "solve_s": (statistics.median(times), "s"),
        "best_energy": (statistics.fmean(first), "Z_single"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{len(solves)} timed solves of {len(times)} instances, {problem.workload.budget_evals} evaluations "
          f"each, {len(setup_times)} set-ups; best_energy is {raw:.10g} before dividing by Z_single")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics


# -- per-layer metrics ----------------------------------------------------------


def instrument_setup(tracer: Tracer) -> None:
    from orchard_mtvrp import core, instances

    tracer.span(core.build_distance_matrix, "core.build_distance_matrix")
    tracer.span(instances.generate_orchard, "instances.generate_orchard")
    tracer.span(instances.emit_instance, "instances.emit_instance")
    tracer.span(instances.parse_instance, "instances.parse_instance")


def instrument_solve(tracer: Tracer) -> None:
    from orchard_mtvrp import clsm, core, evolution, ilbim, scheduler

    def mutate_identity(t: Tracer, args: tuple, result) -> None:
        if result is args[0]:
            t.counts["evolution.mutate.identity"] += 1

    def clsm_improved(t: Tracer, args: tuple, result) -> None:
        if result is not args[0]:
            t.counts["clsm.clsm_step.improved"] += 1

    def makespan_verdict(t: Tracer, args: tuple, result) -> None:
        if result is None:
            t.counts["scheduler.makespan_assign.rejected"] += 1
        if len(args[0]) > scheduler.EXACT_TRIP_LIMIT:
            t.counts["scheduler.makespan_assign.over_exact_limit"] += 1

    def repair_verdict(t: Tracer, args: tuple, result) -> None:
        if result[1] is scheduler.RepairStatus.REPAIRED:
            t.counts["scheduler.repair.repaired"] += 1

    tracer.count(core.decode_trips, "core.decode_trips")
    tracer.count(core.trip_energy, "core.trip_energy")
    tracer.count(clsm.kmeans_two, "clsm.kmeans_two")
    tracer.span(core.evaluate, "core.evaluate")
    tracer.span(ilbim.init_population, "ilbim.init_population")
    tracer.span(evolution._resplit, "evolution.resplit")
    tracer.span(evolution.eass_select, "evolution.eass_select")
    tracer.span(evolution.crossover, "evolution.crossover")
    tracer.span(evolution.mutate, "evolution.mutate", mutate_identity)
    tracer.span(evolution.environmental_selection, "evolution.environmental_selection")
    tracer.span(clsm.clsm_step, "clsm.clsm_step", clsm_improved)
    tracer.span(clsm.choose_target_trip, "clsm.choose_target_trip")
    tracer.span(clsm.choose_candidate_trip, "clsm.choose_candidate_trip")
    tracer.span(clsm.recombine, "clsm.recombine")
    tracer.span(clsm.aco_tour, "clsm.aco_tour")
    tracer.span(scheduler.score_with_framework, "scheduler.score_with_framework")
    tracer.span(scheduler.makespan_assign, "scheduler.makespan_assign", makespan_verdict)
    tracer.span(scheduler.repair, "scheduler.repair", repair_verdict)


# Layer groups for the share of traced solve time each takes (self times).
SHARES = {
    "share.evaluate": ("core.evaluate",),
    "share.resplit": ("evolution.resplit",),
    "share.init_population": ("ilbim.init_population",),
    "share.clsm": ("clsm.clsm_step", "clsm.choose_target_trip", "clsm.choose_candidate_trip",
                   "clsm.recombine", "clsm.aco_tour"),
    "share.scheduler": ("scheduler.score_with_framework", "scheduler.makespan_assign", "scheduler.repair"),
}
ROOT = "evolution.run_aedga"


def traced_run(problem: Problem, seconds: float, setup: SpanTotals) -> tuple[dict, list[Solve]]:
    """Each instance is solved untraced and then traced, so both see the
    machine in the same state. The traced solve must repeat the untraced
    result exactly."""
    tracer = Tracer(PACKAGE)
    totals = SpanTotals()
    generation_ms: list[float] = []
    plain: list[Solve] = []
    traced: list[Solve] = []

    def step(pair: int) -> None:
        plain.append(solve(problem, pair))
        instrument_solve(tracer)
        try:
            traced.append(solve(problem, pair, tracer))
        finally:
            tracer.close()
        spans = tracer.drain()
        gens = sorted(spans.starts["evolution.eass_select"]) + spans.ends[ROOT]
        generation_ms.extend(1000 * (b - a) for a, b in zip(gens, gens[1:]))
        totals.merge(spans)

    in_turn(problem, seconds, step)
    metrics = layer_metrics(problem, plain, traced, totals, tracer.counts, generation_ms, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics, plain + traced


def layer_metrics(problem, plain, traced, totals: SpanTotals, counts, generation_ms, setup: SpanTotals) -> dict:
    """Counts and seconds are per solve (per set-up for the set-up layers);
    shares are of traced solve time."""
    n = len(traced)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def calls(name: str) -> tuple[float, str]:
        return totals.calls[name] / n, "count"

    def self_s(name: str) -> tuple[float, str]:
        return totals.self_time[name] / n, "s"

    def counted(name: str) -> tuple[float, str]:
        return counts[name + ".calls"] / n, "count"

    solve_time = totals.duration[ROOT]
    deciles = statistics.quantiles(generation_ms, n=10)
    metrics = {
        "core.evaluate.calls": calls("core.evaluate"),
        "core.evaluate.self_s": self_s("core.evaluate"),
        "core.decode_trips.calls": counted("core.decode_trips"),
        "core.trip_energy.calls": counted("core.trip_energy"),
        "core.build_distance_matrix.s": (setup.self_time["core.build_distance_matrix"] / SETUP_REPEATS, "s"),
        "instances.generate_orchard.s": (setup.self_time["instances.generate_orchard"] / SETUP_REPEATS, "s"),
        "instances.parse_instance.s": (setup.self_time["instances.parse_instance"] / SETUP_REPEATS, "s"),
        "evolution.resplit.calls": calls("evolution.resplit"),
        "evolution.resplit.self_s": self_s("evolution.resplit"),
        "evolution.mutate.identity_ratio": (
            ratio(counts["evolution.mutate.identity"], totals.calls["evolution.mutate"]), "ratio"),
        "evolution.environmental_selection.self_s": self_s("evolution.environmental_selection"),
        "evolution.generations": (statistics.fmean(s.result.generations for s in traced), "count"),
        "evolution.evals_overshoot": (
            statistics.fmean(s.result.evaluations for s in traced) - problem.workload.budget_evals, "count"),
        "evolution.generation_ms.p50": (statistics.median(generation_ms), "ms"),
        "evolution.generation_ms.p90": (deciles[8], "ms"),
        "ilbim.init_population.s": self_s("ilbim.init_population"),
        "clsm.clsm_step.calls": calls("clsm.clsm_step"),
        "clsm.clsm_step.self_s": self_s("clsm.clsm_step"),
        "clsm.clsm_step.improve_ratio": (
            ratio(counts["clsm.clsm_step.improved"], totals.calls["clsm.clsm_step"]), "ratio"),
        "clsm.choose_target_trip.self_s": self_s("clsm.choose_target_trip"),
        "clsm.kmeans_two.calls": counted("clsm.kmeans_two"),
        "clsm.kmeans_two.per_round": (
            ratio(counts["clsm.kmeans_two.calls"], totals.calls["clsm.choose_target_trip"]), "count"),
        "clsm.aco_tour.calls": calls("clsm.aco_tour"),
        "clsm.aco_tour.self_s": self_s("clsm.aco_tour"),
        "clsm.recombine.self_s": self_s("clsm.recombine"),
        "scheduler.score_with_framework.self_s": self_s("scheduler.score_with_framework"),
        "scheduler.makespan_assign.calls": calls("scheduler.makespan_assign"),
        "scheduler.makespan_assign.self_s": self_s("scheduler.makespan_assign"),
        "scheduler.makespan_assign.reject_ratio": (
            ratio(counts["scheduler.makespan_assign.rejected"], totals.calls["scheduler.makespan_assign"]), "ratio"),
        "scheduler.makespan_assign.over_exact_limit_share": (
            ratio(counts["scheduler.makespan_assign.over_exact_limit"], totals.calls["scheduler.makespan_assign"]),
            "ratio"),
        "scheduler.repair.calls": calls("scheduler.repair"),
        "scheduler.repair.self_s": self_s("scheduler.repair"),
        "scheduler.repair.success_ratio": (
            ratio(counts["scheduler.repair.repaired"], totals.calls["scheduler.repair"]), "ratio"),
        "trace.overhead": (
            statistics.median(s.seconds for s in traced) / statistics.median(s.seconds for s in plain), "ratio"),
        "trace.coverage": (1 - ratio(totals.self_time[ROOT], solve_time), "ratio"),
    }
    for name, layers in SHARES.items():
        metrics[name] = (ratio(sum(totals.self_time[layer] for layer in layers), solve_time), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
