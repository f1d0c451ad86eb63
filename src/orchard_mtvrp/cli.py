"""Command-line surface: instance generation, solving, benchmarking,
statistics, oracle queries, and route export.

Every command is reproducible from its flags plus seed. Result JSON is
deterministic byte-for-byte (timings go to stderr, never into the payload).
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from . import oracle as oracle_mod
from .core import GiantSolution, Instance, evaluate
from .evolution import RunResult, SolverConfig, run_aedga
from .instances import OrchardSpec, emit_instance, generate_orchard, instance_stats, parse_instance
from .scheduler import Framework
from .stats import friedman, wilcoxon_signed_rank

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 3

SUITE_SIDES = (20, 30, 40, 50, 60, 70)
SUITE_TREES = (100, 225, 400, 625, 900, 1225)
SUITE_MATURITIES = (0.4, 0.6, 0.8)

METHODS = ("aedga", "aedga-randinit", "aedga-noclsm")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchard-mtvrp",
        description="Multi-trip picking-robot routing: generate, solve, benchmark, analyze.",
    )
    sub = parser.add_subparsers(required=True)

    p_gen = sub.add_parser("gen", help="generate orchard instance files")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", type=Path, default=Path("."))
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the solver on one instance")
    p_solve.add_argument("instance", type=Path)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", type=Path, help="prefix for result JSON and trace CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run methods x seeds over instances")
    p_bench.add_argument("--instances", required=True, help="glob of instance files")
    p_bench.add_argument("--methods", default="aedga", help=f"comma list from {METHODS}")
    p_bench.add_argument("--runs", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    p_bench.add_argument("--budget-evals", type=int)
    p_bench.add_argument("--budget-seconds", type=float)
    p_bench.add_argument("--population", type=int, default=10)
    p_bench.add_argument("--out", type=Path, required=True, help="results matrix CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_stats = sub.add_parser("stats", help="nonparametric tests over a results matrix")
    p_stats.add_argument("--matrix", type=Path, required=True)
    p_stats.add_argument("--test", choices=["wilcoxon", "friedman"], default="wilcoxon")
    p_stats.add_argument("--baseline", help="baseline column (wilcoxon)")
    p_stats.add_argument("--tol", type=float, default=0.005, help="relative '=' tolerance")
    p_stats.add_argument("--out", type=Path, help="prefix for report CSV and Markdown")
    p_stats.set_defaults(func=cmd_stats)

    p_oracle = sub.add_parser("oracle", help="exact optimum for a desk-scale instance")
    p_oracle.add_argument("instance", type=Path)
    p_oracle.set_defaults(func=cmd_oracle)

    p_export = sub.add_parser("export-routes", help="route geometry as JSON polylines")
    p_export.add_argument("--instance", type=Path, required=True)
    p_export.add_argument("--result", type=Path, required=True, help="result JSON from solve")
    p_export.add_argument("--out", type=Path)
    p_export.set_defaults(func=cmd_export_routes)

    return parser


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--side", type=float, default=20.0)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--maturity", type=float, default=0.4)
    p.add_argument("--capacity", type=float, default=300.0)
    p.add_argument("--yield-low", type=int, default=40)
    p.add_argument("--yield-high", type=int, default=70)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true", help="plant trees on a lattice")
    p.add_argument("--suite", choices=["paper18"], help="generate the 6x3 size/maturity suite")
    p.add_argument("--config", type=Path, help="JSON file with OrchardSpec fields")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=10)
    p.add_argument("--top-fraction", type=float, default=0.6)
    p.add_argument("--intensity", type=float, default=0.2)
    p.add_argument("--crossover-rate", type=float, default=0.9)
    p.add_argument("--mutation-rate", type=float, default=0.2)
    p.add_argument("--budget-evals", type=int)
    p.add_argument("--budget-seconds", type=float)
    p.add_argument("--stagnation-evals", type=int)
    p.add_argument("--framework", choices=[f.value for f in Framework], default="Fr1")
    p.add_argument("--robots", type=int)
    p.add_argument("--emax", type=float)
    p.add_argument("--init", choices=["ilbim", "random"], default="ilbim")
    p.add_argument("--no-clsm", action="store_true")
    p.add_argument("--config", type=Path, help="JSON file with SolverConfig fields")


def _from_config_file(path: Path, cls: type):
    """Build `cls` from the JSON object in `path`. A misspelt, missing or
    mistyped field raises ValueError, so the CLI reports it in one line."""
    payload = json.loads(path.read_text())
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _reject_flags_beside_config(
    args: argparse.Namespace, add_flags: Callable[[argparse.ArgumentParser], None], fields: str
) -> None:
    """--config sets every field that the flags of `add_flags` set, so any of
    those flags off its parser default is an error rather than ignored."""
    probe = argparse.ArgumentParser()
    add_flags(probe)
    defaults = vars(probe.parse_args([]))
    del defaults["config"]
    overridden = [
        "--" + dest.replace("_", "-")
        for dest, default in defaults.items()
        if getattr(args, dest) != default
    ]
    if args.config and overridden:
        raise ValueError(
            f"--config sets every {fields} field, so {', '.join(overridden)} would be "
            f"ignored; set them in {args.config} instead"
        )


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    if args.config:
        cfg = _from_config_file(args.config, SolverConfig)
    else:
        cfg = SolverConfig(
            population=args.population,
            top_fraction=args.top_fraction,
            intensity=args.intensity,
            crossover_rate=args.crossover_rate,
            mutation_rate=args.mutation_rate,
            budget_seconds=args.budget_seconds,
            budget_evals=args.budget_evals,
            stagnation_evals=args.stagnation_evals,
            framework=Framework(args.framework),
            robots=args.robots,
            energy_bound=args.emax,
            init=args.init,
            use_clsm=not args.no_clsm,
            seed=args.seed,
        )
    if (cfg.robots is None) != (cfg.energy_bound is None):
        raise ValueError("--robots and --emax (robots, energy_bound) must be given together")
    _reject_flags_beside_config(args, _add_solver_flags, "solver")
    return cfg


def _config_hash(cfg: SolverConfig) -> str:
    payload = asdict(cfg)
    payload["framework"] = cfg.framework.value
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    specs: list[OrchardSpec] = []
    _reject_flags_beside_config(args, _add_gen_flags, "orchard")
    if args.config:
        specs.append(_from_config_file(args.config, OrchardSpec))
    elif args.suite == "paper18":
        index = 0
        for side, trees in zip(SUITE_SIDES, SUITE_TREES):
            for maturity in SUITE_MATURITIES:
                specs.append(
                    OrchardSpec(
                        side_length=side,
                        tree_count=trees,
                        maturity_rate=maturity,
                        capacity=args.capacity,
                        yield_low=args.yield_low,
                        yield_high=args.yield_high,
                        seed=args.seed + index,
                        grid=args.grid,
                    )
                )
                index += 1
    else:
        specs.append(
            OrchardSpec(
                side_length=args.side,
                tree_count=args.trees,
                maturity_rate=args.maturity,
                capacity=args.capacity,
                yield_low=args.yield_low,
                yield_high=args.yield_high,
                seed=args.seed,
                grid=args.grid,
            )
        )

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = args.out / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Pro", "n", "mu_d", "lambda_d", "mu_y", "lambda_y", "Q"])
        for index, spec in enumerate(specs, start=1):
            inst = generate_orchard(spec)
            path = args.out / f"{inst.name}.vrp"
            path.write_text(emit_instance(inst))
            row = instance_stats(inst)
            writer.writerow(
                [
                    index,
                    row.n,
                    f"{row.mean_depot_distance:.6g}",
                    f"{row.max_depot_distance:.6g}",
                    f"{row.mean_yield:.6g}",
                    f"{row.max_yield:g}",
                    f"{row.capacity:g}",
                ]
            )
            print(path)
    print(manifest)
    return EXIT_OK


def _load_instance(path: Path) -> Instance:
    return parse_instance(path.read_text())


def result_payload(inst_path: Path, inst: Instance, cfg: SolverConfig, result: RunResult) -> dict:
    ev = evaluate(result.best, inst)
    payload = {
        "instance": str(inst_path),
        "instance_name": inst.name,
        "seed": cfg.seed,
        "config_hash": _config_hash(cfg),
        "status": result.status,
        "best_energy": result.best_energy if result.best_energy != math.inf else None,
        "tokens": [0, *result.best.tokens, 0],
        "trip_energies": [t.energy for t in ev.trips],
        "trips": [list(t.tasks) for t in ev.trips],
        "evaluations": result.evaluations,
        "generations": result.generations,
        "schedule": None,
    }
    if result.schedule is not None:
        payload["schedule"] = {
            "robots": [
                {
                    "robot": r,
                    "trips": [list(ev.trips[i].tasks) for i in trip_ids],
                    "energy": result.schedule.robot_energies[r],
                }
                for r, trip_ids in enumerate(result.schedule.robots())
            ]
        }
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    cfg = _config_from_args(args)
    started = time.monotonic()
    result = run_aedga(inst, cfg)
    elapsed = time.monotonic() - started
    payload = result_payload(args.instance, inst, cfg, result)

    if args.out:
        trace_path = Path(f"{args.out}_trace.csv")
        payload["trace"] = str(trace_path)
        with trace_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["generation", "best_energy", "archive_counts"])
            for stat in result.history:
                writer.writerow(
                    [
                        stat.generation,
                        repr(stat.best_energy),
                        " ".join(str(c) for c in stat.archive_counts),
                    ]
                )
        Path(f"{args.out}.json").write_text(_dump_json(payload))
    sys.stdout.write(_dump_json(payload))
    print(f"runtime: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_INFEASIBLE if result.status == "infeasible" else EXIT_OK


def _method_config(method: str, args: argparse.Namespace, seed: int) -> SolverConfig:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return SolverConfig(
        population=args.population,
        budget_evals=args.budget_evals,
        budget_seconds=args.budget_seconds,
        init="random" if method == "aedga-randinit" else "ilbim",
        use_clsm=method != "aedga-noclsm",
        seed=seed,
    )


def _bench_job(job: tuple[str, str, int, dict]) -> tuple[str, str, int, float]:
    inst_path, method, seed, flags = job
    ns = argparse.Namespace(**flags)
    inst = _load_instance(Path(inst_path))
    cfg = _method_config(method, ns, seed)
    result = run_aedga(inst, cfg)
    return inst_path, method, seed, result.best_energy

def _max_workers() -> int:
    raw = os.environ.get("ORCHARD_MTVRP_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"ORCHARD_MTVRP_THREADS must be a positive integer, got {raw!r}")
    return workers


def cmd_bench(args: argparse.Namespace) -> int:
    workers = _max_workers()
    paths = sorted(glob.glob(args.instances))
    if not paths:
        raise ValueError(f"no instances match {args.instances!r}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    flags = {
        "population": args.population,
        "budget_evals": args.budget_evals,
        "budget_seconds": args.budget_seconds,
    }
    jobs = [
        (path, method, args.seed + run, flags)
        for path in paths
        for method in methods
        for run in range(args.runs)
    ]
    results: dict[tuple[str, str], list[tuple[int, float]]] = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_bench_job, jobs))
    else:
        outcomes = [_bench_job(job) for job in jobs]
    failures = 0
    for inst_path, method, seed, energy in outcomes:
        if energy == math.inf:
            failures += 1
            print(f"warning: infeasible run {inst_path} {method} seed={seed}", file=sys.stderr)
            continue
        results.setdefault((inst_path, method), []).append((seed, energy))

    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", *methods])
        for path in paths:
            row: list[str] = [Path(path).stem]
            for method in methods:
                values = [e for _, e in sorted(results.get((path, method), []))]
                if not values:
                    row.append("")
                    continue
                mean = statistics.fmean(values)
                std = statistics.pstdev(values) if len(values) > 1 else 0.0
                row.append(f"{mean:.6e} ({std:.6e})")
            writer.writerow(row)
    print(args.out)
    if failures:
        print(f"warning: {failures} runs excluded", file=sys.stderr)
    return EXIT_OK


def _parse_cell(cell: str) -> float:
    cell = cell.strip()
    if "(" in cell:
        cell = cell.split("(", 1)[0].strip()
    if cell.lower() in ("inf", "infeasible"):
        return math.inf
    return float(cell)


def read_matrix(path: Path) -> tuple[list[str], list[str], list[list[float]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"matrix {path} needs a header and at least one row")
    header = rows[0]
    methods = header[1:]
    problems = [r[0] for r in rows[1:]]
    values = [[_parse_cell(c) for c in r[1:]] for r in rows[1:]]
    return problems, methods, values


def cmd_stats(args: argparse.Namespace) -> int:
    problems, methods, values = read_matrix(args.matrix)
    lines_csv: list[list[str]] = []
    lines_md: list[str] = []
    if args.test == "wilcoxon":
        if not args.baseline:
            raise ValueError("wilcoxon needs --baseline")
        if args.baseline not in methods:
            raise ValueError(f"baseline column {args.baseline!r} not in {methods}")
        base_idx = methods.index(args.baseline)
        base = [row[base_idx] for row in values]
        lines_csv.append(["VS", "R+", "R-", "Asymptotic P-value", "+", "-", "="])
        lines_md.append("| VS | R+ | R- | Asymptotic P-value | + | - | = |")
        lines_md.append("|---|---|---|---|---|---|---|")
        for j, method in enumerate(methods):
            if j == base_idx:
                continue
            other = [row[j] for row in values]
            res = wilcoxon_signed_rank(other, base)
            plus = minus = equal = 0
            for o, b in zip(other, base):
                if abs(o - b) <= args.tol * abs(b):
                    equal += 1
                elif o < b:
                    plus += 1
                else:
                    minus += 1
            row = [method, f"{res.r_plus:g}", f"{res.r_minus:g}", f"{res.p_asymptotic:.6g}",
                   str(plus), str(minus), str(equal)]
            lines_csv.append(row)
            lines_md.append("| " + " | ".join(row) + " |")
    else:
        res = friedman(values)
        lines_csv.append(["method", "mean rank"])
        lines_md.append("| method | mean rank |")
        lines_md.append("|---|---|")
        for method, rank in zip(methods, res.mean_ranks):
            lines_csv.append([method, f"{rank:.4f}"])
            lines_md.append(f"| {method} | {rank:.4f} |")
        lines_csv.append(["chi-square", f"{res.chi_square:.6g}"])
        lines_csv.append(["p-value", f"{res.p_value:.6g}"])
        lines_md.append(f"| chi-square | {res.chi_square:.6g} |")
        lines_md.append(f"| p-value | {res.p_value:.6g} |")

    markdown = "\n".join(lines_md) + "\n"
    sys.stdout.write(markdown)
    if args.out:
        with Path(f"{args.out}.csv").open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(lines_csv)
        Path(f"{args.out}.md").write_text(markdown)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    result = oracle_mod.exact_route_generation(inst)
    payload = {
        "instance": str(args.instance),
        "optimal_energy": result.energy,
        "tokens": [0, *result.solution.tokens, 0],
        "partitions_explored": result.partitions_explored,
        "tours_solved": result.tours_solved,
    }
    sys.stdout.write(_dump_json(payload))
    return EXIT_OK


def cmd_export_routes(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    payload = json.loads(args.result.read_text())
    sol = GiantSolution(tuple(payload["tokens"]))
    ev = evaluate(sol, inst)
    depot = list(inst.coords[0])
    routes = [
        {
            "tasks": list(trip.tasks),
            "energy": trip.energy,
            "polyline": [depot, *[list(inst.coords[t]) for t in trip.tasks], depot],
        }
        for trip in ev.trips
    ]
    out = _dump_json({"instance": str(args.instance), "routes": routes})
    if args.out:
        args.out.write_text(out)
    sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
