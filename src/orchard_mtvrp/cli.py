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
import itertools
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, fields
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

SUITE_SIZES = ((20, 100), (30, 225), (40, 400), (50, 625), (60, 900), (70, 1225))  # (side, trees)
# paper18 as ((side, trees), maturity), in generation order
PAPER18 = tuple(itertools.product(SUITE_SIZES, (0.4, 0.6, 0.8)))

# bench methods: the SolverConfig fields each sets beside the bench flags
METHODS = {"aedga": {}, "aedga-randinit": {"init": "random"}, "aedga-noclsm": {"use_clsm": False}}


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
    p_bench.add_argument("--methods", default="aedga", help=f"comma list from {tuple(METHODS)}")
    p_bench.add_argument("--runs", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=SolverConfig.seed, help="base seed; run i uses seed+i")
    p_bench.add_argument("--budget-evals", type=int, default=SolverConfig.budget_evals)
    p_bench.add_argument("--budget-seconds", type=float, default=SolverConfig.budget_seconds)
    p_bench.add_argument("--population", type=int, default=SolverConfig.population)
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
    p.add_argument("--capacity", type=float, default=OrchardSpec.capacity)
    p.add_argument("--yield-low", type=int, default=OrchardSpec.yield_low)
    p.add_argument("--yield-high", type=int, default=OrchardSpec.yield_high)
    p.add_argument("--seed", type=int, default=OrchardSpec.seed)
    p.add_argument("--grid", action="store_true", help="plant trees on a lattice")
    p.add_argument("--suite", choices=["paper18"], help="generate the 6x3 size/maturity suite")
    p.add_argument("--config", type=Path, help="JSON file with OrchardSpec fields")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--population", type=int, default=SolverConfig.population)
    p.add_argument("--top-fraction", type=float, default=SolverConfig.top_fraction)
    p.add_argument("--intensity", type=float, default=SolverConfig.intensity)
    p.add_argument("--crossover-rate", type=float, default=SolverConfig.crossover_rate)
    p.add_argument("--mutation-rate", type=float, default=SolverConfig.mutation_rate)
    p.add_argument("--budget-evals", type=int, default=SolverConfig.budget_evals)
    p.add_argument("--budget-seconds", type=float, default=SolverConfig.budget_seconds)
    p.add_argument("--stagnation-evals", type=int, default=SolverConfig.stagnation_evals)
    p.add_argument("--framework", choices=[f.value for f in Framework],
                   default=SolverConfig.framework.value)
    p.add_argument("--robots", type=int, default=SolverConfig.robots)
    p.add_argument("--emax", type=float, default=SolverConfig.energy_bound)
    p.add_argument("--init", choices=["ilbim", "random"], default=SolverConfig.init)
    p.add_argument("--no-clsm", action="store_true", default=not SolverConfig.use_clsm)
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
    args: argparse.Namespace, add_flags: Callable[[argparse.ArgumentParser], None], kind: str
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
            f"--config sets every {kind} field, so {', '.join(overridden)} would be "
            f"ignored; set them in {args.config} instead"
        )


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    if args.config:
        cfg = _from_config_file(args.config, SolverConfig)
    else:
        # Every solver flag is named after its field, except these two.
        by_hand = {"energy_bound": args.emax, "use_clsm": not args.no_clsm}
        names = [f.name for f in fields(SolverConfig) if f.name not in by_hand]
        cfg = SolverConfig(**{name: getattr(args, name) for name in names}, **by_hand)
    _reject_flags_beside_config(args, _add_solver_flags, "solver")
    return cfg


def _config_hash(cfg: SolverConfig) -> str:
    # Framework is a str enum, so JSON writes its value.
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    _reject_flags_beside_config(args, _add_gen_flags, "orchard")
    if args.config:
        specs = [_from_config_file(args.config, OrchardSpec)]
    else:
        sizes = PAPER18 if args.suite == "paper18" else [((args.side, args.trees), args.maturity)]
        names = ("capacity", "yield_low", "yield_high", "grid")
        shared = {name: getattr(args, name) for name in names}
        specs = [
            OrchardSpec(side, trees, maturity, seed=args.seed + index, **shared)
            for index, ((side, trees), maturity) in enumerate(sizes)
        ]

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
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    flags = {name: getattr(args, name) for name in ("population", "budget_evals", "budget_seconds")}
    return SolverConfig(seed=seed, **flags, **METHODS[method])


def _bench_job(job: tuple[str, SolverConfig]) -> float:
    inst_path, cfg = job
    return run_aedga(_load_instance(Path(inst_path)), cfg).best_energy


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
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    paths = sorted(glob.glob(args.instances))
    if not paths:
        raise ValueError(f"no instances match {args.instances!r}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"--methods must name each method once, got {args.methods!r}")
    runs = [(p, m, args.seed + i) for p in paths for m in methods for i in range(args.runs)]
    jobs = [(path, _method_config(method, args, seed)) for path, method, seed in runs]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_bench_job, jobs))
    else:
        outcomes = [_bench_job(job) for job in jobs]
    results: dict[tuple[str, str], list[float]] = {}
    failures = 0
    for (inst_path, method, seed), energy in zip(runs, outcomes):
        if energy == math.inf:
            failures += 1
            print(f"warning: infeasible run {inst_path} {method} seed={seed}", file=sys.stderr)
            continue
        results.setdefault((inst_path, method), []).append(energy)

    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", *methods])
        for path in paths:
            row: list[str] = [Path(path).stem]
            for method in methods:
                values = results.get((path, method))
                if not values:
                    row.append("")
                    continue
                mean = statistics.fmean(values)
                std = statistics.pstdev(values)
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


def read_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    """The method columns and the rows of values of a results matrix."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"matrix {path} needs a header and at least one row")
    header = rows[0]
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(
                f"matrix {path} line {line} has {len(row)} cells, the header {len(header)}"
            )
    values = [[_parse_cell(c) for c in r[1:]] for r in rows[1:]]
    return header[1:], values


def cmd_stats(args: argparse.Namespace) -> int:
    methods, values = read_matrix(args.matrix)
    if args.test == "wilcoxon":
        if not args.baseline:
            raise ValueError("wilcoxon needs --baseline")
        if args.baseline not in methods:
            raise ValueError(f"baseline column {args.baseline!r} not in {methods}")
        base_idx = methods.index(args.baseline)
        base = [row[base_idx] for row in values]
        rows = [["VS", "R+", "R-", "Asymptotic P-value", "+", "-", "="]]
        for j, method in enumerate(methods):
            if j == base_idx:
                continue
            other = [row[j] for row in values]
            res = wilcoxon_signed_rank(other, base)
            plus = minus = equal = 0
            for o, b in zip(other, base):
                if o == b or abs(o - b) <= args.tol * abs(b) < math.inf:
                    equal += 1
                elif o < b:
                    plus += 1
                else:
                    minus += 1
            rows.append([method, f"{res.r_plus:g}", f"{res.r_minus:g}",
                         f"{res.p_asymptotic:.6g}", str(plus), str(minus), str(equal)])
    else:
        res = friedman(values)
        rows = [
            ["method", "mean rank"],
            *([method, f"{rank:.4f}"] for method, rank in zip(methods, res.mean_ranks)),
            ["chi-square", f"{res.chi_square:.6g}"],
            ["p-value", f"{res.p_value:.6g}"],
        ]

    lines = ["| " + " | ".join(row) + " |" for row in rows]
    lines.insert(1, "|" + "---|" * len(rows[0]))
    markdown = "\n".join(lines) + "\n"
    sys.stdout.write(markdown)
    if args.out:
        with Path(f"{args.out}.csv").open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
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
    tokens = payload.get("tokens") if isinstance(payload, dict) else None
    if not (isinstance(tokens, list) and all(isinstance(t, int) for t in tokens)):
        raise ValueError(f"{args.result} is not a solve result: no 'tokens' list of task ids")
    sol = GiantSolution.from_tokens(tokens)
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
