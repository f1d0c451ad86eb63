"""Command-line surface: instance generation, solving, benchmarking,
statistics, oracle queries, and route export.

Every command is reproducible from its flags plus seed. Result JSON is
deterministic byte-for-byte (timings go to stderr, never into the payload).
"""

from __future__ import annotations

import argparse
import csv
import enum
import errno
import glob
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

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

WILCOXON_TOL = 0.005  # stats --tol default

# the SolverConfig fields bench forwards from its flags (beside --seed)
BENCH_FIELDS = ("population", "budget_evals", "budget_seconds")
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
    _add_field_flags(p_gen, OrchardSpec)
    p_gen.add_argument("--suite", choices=["paper18"], help="generate the 6x3 size/maturity suite")
    p_gen.add_argument("--config", type=Path, help="JSON file with OrchardSpec fields")
    p_gen.add_argument("--out", type=Path, default=Path("."))
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the solver on one instance")
    p_solve.add_argument("instance", type=Path)
    _add_field_flags(p_solve, SolverConfig)
    p_solve.add_argument("--config", type=Path, help="JSON file with SolverConfig fields")
    p_solve.add_argument("--out", type=Path, help="prefix for result JSON and trace CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run methods x seeds over instances")
    p_bench.add_argument("--instances", required=True, help="glob of instance files")
    p_bench.add_argument("--methods", default="aedga", help=f"comma list from {tuple(METHODS)}")
    p_bench.add_argument("--runs", type=int, default=10)
    _add_field_flags(p_bench, SolverConfig, only=("seed", *BENCH_FIELDS))
    p_bench.add_argument("--out", type=Path, required=True, help="results matrix CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_stats = sub.add_parser("stats", help="nonparametric tests over a results matrix")
    p_stats.add_argument("--matrix", type=Path, required=True)
    p_stats.add_argument("--test", choices=["wilcoxon", "friedman"], default="wilcoxon")
    p_stats.add_argument("--baseline", help="baseline column (wilcoxon)")
    p_stats.add_argument("--tol", type=float, default=WILCOXON_TOL, help="relative '=' tolerance (wilcoxon)")
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


# Flags named otherwise than their field, and the flag defaults of the
# OrchardSpec fields that have none (the sizes `--suite` sets).
_FLAG_NAMES = {"side_length": "side", "tree_count": "trees", "maturity_rate": "maturity",
               "energy_bound": "emax", "use_clsm": "no-clsm"}
_FLAG_DEFAULTS = {"side_length": 20.0, "tree_count": 100, "maturity_rate": 0.4}


def _flag(name: str) -> str:
    return "--" + _FLAG_NAMES.get(name, name.replace("_", "-"))


def _flag_defaults(cls: type) -> dict[str, object]:
    """Each field of the dataclass `cls` and the default of its flag."""
    return {f.name: _FLAG_DEFAULTS.get(f.name, f.default) for f in fields(cls)}


def _add_field_flags(parser: argparse.ArgumentParser, cls: type, only: tuple[str, ...] | None = None):
    """A flag for each field of the dataclass `cls` (those named in `only`,
    when given), with the field's name as its dest: a bool field is a switch
    away from its default, an enum field takes its values as choices, and
    any other field takes its (optional) type's values."""
    hints = get_type_hints(cls)
    for name, default in _flag_defaults(cls).items():
        if only is not None and name not in only:
            continue
        kind = next(k for k in get_args(hints[name]) or (hints[name],) if k is not type(None))
        if kind is bool:
            parser.add_argument(_flag(name), dest=name, action="store_false" if default else "store_true")
        elif issubclass(kind, enum.Enum):
            parser.add_argument(_flag(name), dest=name, choices=[m.value for m in kind], default=default)
        else:
            parser.add_argument(_flag(name), dest=name, type=kind, default=default)


# The JSON values each field type takes: an int field no float or bool
# (bool is an int subclass), a float field an int but no bool.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), type(None): (type(None),)}


def _read(path: Path, parse):
    """`parse` of the text of `path`. Its ValueError, or the file's not being
    UTF-8, is raised as a ValueError that names the file."""
    try:
        return parse(path.read_text())
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _from_config_file(path: Path, cls: type):
    """Build `cls` from the JSON object in `path`. A misspelt, missing or
    mistyped field, or an enum field given none of its values, raises
    ValueError, so the CLI reports it in one line."""
    payload = _read(path, json.loads)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object of {cls.__name__} fields")
    hints = get_type_hints(cls)
    for name, value in payload.items():
        hint = hints.get(name)
        if isinstance(hint, type) and issubclass(hint, enum.Enum) and value not in [m.value for m in hint]:
            wanted = ", ".join(json.dumps(m.value) for m in hint)
            raise ValueError(f"{path}: {name} must be one of {wanted}, got {json.dumps(value)}")
        kinds = get_args(hint) or (hint,)
        if all(kind in _JSON_TYPES for kind in kinds) and not any(
                type(value) in _JSON_TYPES[kind] for kind in kinds):
            wanted = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
            raise ValueError(f"{path}: {name} must be {wanted}, got {json.dumps(value)}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _reject_flags_beside(args: argparse.Namespace, option: str, sets: str, defaults: dict) -> None:
    """`--option`, when given, sets the fields named in `defaults`, so the
    flag of any of them off its default there is an error rather than
    ignored."""
    overridden = [_flag(name) for name, default in defaults.items() if getattr(args, name) != default]
    if getattr(args, option) and overridden:
        raise ValueError(f"--{option} sets {sets}, so {', '.join(overridden)} would be ignored")


def _from_args(args: argparse.Namespace, cls: type):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    cfg = _from_config_file(args.config, SolverConfig) if args.config else _from_args(args, SolverConfig)
    _reject_flags_beside(args, "config", "every solver field", _flag_defaults(SolverConfig))
    return cfg


def _config_hash(cfg: SolverConfig) -> str:
    # Framework is a str enum, so JSON writes its value.
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    spec_flags = {**_flag_defaults(OrchardSpec), "suite": None}
    _reject_flags_beside(args, "config", "every orchard field", spec_flags)
    _reject_flags_beside(args, "suite", "every size and maturity", _FLAG_DEFAULTS)
    if args.config:
        specs = [_from_config_file(args.config, OrchardSpec)]
    else:
        spec = _from_args(args, OrchardSpec)
        sizes = PAPER18 if args.suite else [((spec.side_length, spec.tree_count), spec.maturity_rate)]
        specs = [
            replace(spec, side_length=side, tree_count=trees, maturity_rate=maturity, seed=spec.seed + index)
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
    return _read(path, parse_instance)


def _check_out_dir(path: Path) -> None:
    """Raise the error that opening `path` for writing would raise for its
    missing directory, so that a command fails before it spends a budget."""
    if not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(path))


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
    if args.out:
        trace_path = Path(f"{args.out}_trace.csv")
        _check_out_dir(trace_path)
    started = time.monotonic()
    result = run_aedga(inst, cfg)
    elapsed = time.monotonic() - started
    payload = result_payload(args.instance, inst, cfg, result)

    if args.out:
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


def _method_fields(method: str) -> tuple[dict, float | None]:
    """The SolverConfig fields `method` sets beside the bench flags, and the
    share of a bounded method `<framework>/<robots>/<share>` (else None). Its
    energy bound is share * z / robots, the operations `scheduler.thresholds`
    uses, with z the mean best energy of the instance's `aedga` runs."""
    if method in METHODS:
        return METHODS[method], None
    try:
        framework, robots, share = method.split("/")
        fields = {"framework": Framework(framework), "robots": int(robots)}
        share = float(share)
        SolverConfig(**fields, energy_bound=share)  # robots >= 1 and share > 0
        if math.isfinite(share):
            return fields, share
    except ValueError:
        pass
    raise ValueError(
        f"unknown method {method!r}; expected one of {tuple(METHODS)} or <framework>/<robots>/<share>"
        f" with a framework of {', '.join(f.value for f in Framework)}, robots >= 1 and a finite share > 0"
    )


def _bench_job(job: tuple[Instance, SolverConfig]) -> float:
    result = run_aedga(*job)
    return result.best_energy if result.status == "ok" else math.inf


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
    specs = {method: _method_fields(method) for method in methods}
    bounded = {method: spec for method, spec in specs.items() if spec[1] is not None}
    unbounded = [method for method in methods if method not in bounded]
    if bounded and "aedga" not in unbounded:
        unbounded.append("aedga")  # the runs z comes from
    flags = {name: getattr(args, name) for name in BENCH_FIELDS}
    seeds = [args.seed + i for i in range(args.runs)]
    instances = {path: _load_instance(Path(path)) for path in paths}

    def solve(cells: dict[tuple[str, str], dict]) -> dict[tuple[str, str], list[float]]:
        """The best energies of each (instance, method) cell, one per seed."""
        jobs = [(instances[path], SolverConfig(seed=seed, **flags, **fields))
                for (path, _), fields in cells.items() for seed in seeds]
        pool_size = min(workers, len(jobs))  # the pool forks all its workers at once
        if pool_size > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                energies = list(pool.map(_bench_job, jobs))
        else:
            energies = [_bench_job(job) for job in jobs]
        runs = len(seeds)
        return {cell: energies[k * runs:(k + 1) * runs] for k, cell in enumerate(cells)}

    _check_out_dir(args.out)
    results = solve({(path, method): METHODS[method] for path in paths for method in unbounded})
    if bounded:
        z = {path: statistics.fmean(results[path, "aedga"]) for path in paths}
        results |= solve({
            (path, method): {**fields, "energy_bound": share * z[path] / fields["robots"]}
            for path in paths for method, (fields, share) in bounded.items()
        })

    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", *methods])
        for path in paths:
            row: list[str] = [Path(path).stem]
            for method in methods:
                values = results[path, method]
                row.append("inf" if math.inf in values else
                           f"{statistics.fmean(values):.6e} ({statistics.pstdev(values):.6e})")
            writer.writerow(row)
    print(args.out)
    return EXIT_OK


def _parse_cell(cell: str, where: str) -> float:
    number = cell.split("(", 1)[0].strip()
    if number.lower() in ("inf", "infeasible"):
        return math.inf
    try:
        return float(number)
    except ValueError:
        raise ValueError(f"{where}: {cell!r} is not a number") from None


def read_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    """The method columns and the rows of values of a results matrix."""
    with path.open(newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValueError(f"matrix {path}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"matrix {path} needs a header and at least one row")
    header = rows[0]
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(
                f"matrix {path} line {line} has {len(row)} cells, the header {len(header)}"
            )
    values = [
        [_parse_cell(cell, f"matrix {path} line {line}, column {column}")
         for column, cell in zip(header[1:], row[1:])]
        for line, row in enumerate(rows[1:], start=2)
    ]
    return header[1:], values


def cmd_stats(args: argparse.Namespace) -> int:
    methods, values = read_matrix(args.matrix)
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    ignored = [flag for flag, given in (("--baseline", args.baseline is not None),
                                        ("--tol", args.tol != WILCOXON_TOL)) if given]
    if args.test == "friedman" and ignored:
        raise ValueError(
            f"friedman reads neither --baseline nor --tol, so {', '.join(ignored)} would be ignored")
    if args.test == "wilcoxon":
        if not args.baseline:
            raise ValueError("wilcoxon needs --baseline")
        if args.baseline not in methods:
            raise ValueError(f"baseline column {args.baseline!r} not in {methods}")
        if len(methods) < 2:
            raise ValueError(f"wilcoxon needs a column beside the baseline {args.baseline!r}")
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
    payload = _read(args.result, json.loads)
    tokens = payload.get("tokens") if isinstance(payload, dict) else None
    if not (isinstance(tokens, list) and all(type(t) is int for t in tokens)):
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
