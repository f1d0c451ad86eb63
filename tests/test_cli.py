import concurrent.futures
import csv
import hashlib
import json
import statistics
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from orchard_mtvrp import cli
from orchard_mtvrp.cli import main
from orchard_mtvrp.core import Instance
from orchard_mtvrp.evolution import SolverConfig, run_aedga
from orchard_mtvrp.instances import OrchardSpec, emit_instance, parse_instance
from orchard_mtvrp.oracle import exact_route_generation
from orchard_mtvrp.scheduler import Framework, thresholds

FIXTURES = Path(__file__).parent / "fixtures"
# sha256 over the file names and bytes of `gen --suite paper18 --seed 1`
# (the 18 .vrp files and manifest.csv, in name order).
PAPER18_SEED1_SHA256 = "5b854edef55fcea040b5b4ed2dbdf706236d32b8e33ba84aae4c9d1f822e9483"

# The flags named otherwise than their field, and the flag defaults of the
# OrchardSpec fields that have none.
RENAMED = {"side_length": "--side", "tree_count": "--trees", "maturity_rate": "--maturity",
           "energy_bound": "--emax", "use_clsm": "--no-clsm"}
SIZE_DEFAULTS = {"side_length": 20.0, "tree_count": 100, "maturity_rate": 0.4}


def field_flag_params(cls: type) -> list:
    """(flags, named) for each field of `cls`: its flag at a value off the
    field's default, and that flag as the one an error must name."""
    hints = get_type_hints(cls)
    off = {bool: [], str: ["random"], Framework: ["Fr2"]}
    params = []
    for f in fields(cls):
        flag = RENAMED.get(f.name, "--" + f.name.replace("_", "-"))
        kind = next(k for k in get_args(hints[f.name]) or (hints[f.name],) if k is not type(None))
        default = SIZE_DEFAULTS.get(f.name, f.default)
        value = off[kind] if kind in off else [str((default or 0) + 3)]
        params.append(pytest.param([flag, *value], [flag], id=f.name))
    return params


def assert_flag_defaults(command: list[str], flags: list[str], cls: type) -> None:
    """Each field of `cls` that `flags` set has its field's default, or
    SIZE_DEFAULTS', as its parser default."""
    parse = cli.build_parser().parse_args
    defaults, given = vars(parse(command)), vars(parse([*command, *flags]))
    for f in fields(cls):
        if given[f.name] != defaults[f.name]:
            assert defaults[f.name] == SIZE_DEFAULTS.get(f.name, f.default)


def named_in_error(err: str) -> list[str]:
    """The flags a `--option sets ..., so <flags> would be ignored` error names."""
    return sorted(err.rpartition(", so ")[2].removesuffix(" would be ignored\n").split(", "))


def write_instance(path: Path, n: int = 1) -> Instance:
    coords = [(0.0, 0.0)] + [(10.0 * (i + 1), 0.0) for i in range(n)]
    yields = [0.0] + [5.0] * n
    inst = Instance(
        coords=tuple(coords),
        yields=tuple(yields),
        capacity=12.0,
        robot_weight=4.0,
        name=path.stem,
    )
    path.write_text(emit_instance(inst))
    return inst


class TestGen:
    def test_single_instance_and_manifest(self, tmp_path, capsys):
        rc = main(["gen", "--side", "20", "--trees", "30", "--maturity", "0.5",
                   "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        files = list(tmp_path.glob("*.vrp"))
        assert len(files) == 1
        manifest = tmp_path / "manifest.csv"
        rows = list(csv.DictReader(manifest.open()))
        assert list(rows[0]) == ["Pro", "n", "mu_d", "lambda_d", "mu_y", "lambda_y", "Q"]
        assert rows[0]["Q"] == "300"

    def test_same_flags_identical_files(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(["gen", "--side", "20", "--trees", "25", "--maturity", "0.6",
                  "--seed", "3", "--out", str(out)])
        name = next(out_a.glob("*.vrp")).name
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "manifest.csv").read_bytes() == (out_b / "manifest.csv").read_bytes()

    def test_suite_paper18(self, tmp_path):
        rc = main(["gen", "--suite", "paper18", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert len(list(tmp_path.glob("*.vrp"))) == 18
        rows = list(csv.DictReader((tmp_path / "manifest.csv").open()))
        assert len(rows) == 18
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == PAPER18_SEED1_SHA256

    @pytest.mark.parametrize("flags, field", [
        (["--suite", "paper18", "--yield-low", "0"], "yield_low"),
        (["--suite", "paper18", "--yield-high", "306"], "yield_high"),
        (["--suite", "paper18", "--capacity", "nan"], "capacity"),
        (["--side", "inf", "--trees", "25", "--maturity", "0.6"], "side_length"),
        (["--side", "1e154", "--trees", "25", "--maturity", "0.6"], "side_length"),
    ])
    def test_bad_spec_one_line_error_before_any_file(self, tmp_path, capsys, flags, field):
        out = tmp_path / "out"
        rc = main(["gen", "--seed", "0", "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "side_length": 20, "tree_count": 10, "maturity_rate": 1.0, "seed": 5,
        }))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "manifest.csv").open()))
        assert rows[0]["n"] == "10"

    def test_config_unknown_key_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"side_length": 20, "tree_count": 10, "maturty_rate": 1.0}))
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "maturty_rate" in err
        assert err.count("\n") == 1

    def test_config_not_json_one_line_error_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text('{"side_length": 20,}')
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: Expecting property name")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("tree_count", 12.5, "tree_count must be int, got 12.5"),
        ("grid", "no", 'grid must be bool, got "no"'),
        ("seed", 1.5, "seed must be int, got 1.5"),
    ])
    def test_config_value_of_wrong_type_one_line_error(self, tmp_path, capsys, field, value, message):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"side_length": 20, "tree_count": 12, "maturity_rate": 1.0, field: value}))
        out = tmp_path / "out"
        rc = main(["gen", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "5", "--trees", "400"], ["--seed", "--trees"]),
        (["--grid"], ["--grid"]),
        (["--suite", "paper18"], ["--suite"]),
        *field_flag_params(OrchardSpec),
    ])
    def test_config_with_spec_flags_one_line_error(self, tmp_path, capsys, flags, named):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"side_length": 20, "tree_count": 10, "seed": 1}))
        out = tmp_path / "out"
        rc = main(["gen", "--config", str(cfg), "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--config" in err
        assert err.count("\n") == 1
        assert named_in_error(err) == sorted(named)
        assert not out.exists()
        assert_flag_defaults(["gen"], flags, OrchardSpec)


    @pytest.mark.parametrize("flags, named", [
        (["--side", "33"], ["--side"]),
        (["--trees", "400", "--maturity", "0.8"], ["--trees", "--maturity"]),
    ])
    def test_suite_with_size_flags_one_line_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        rc = main(["gen", "--suite", "paper18", "--seed", "1", "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--suite" in err
        assert err.count("\n") == 1
        for flag in named:
            assert flag in err
        assert "--seed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--side", "nan"], ["--capacity", "inf"]])
    def test_non_finite_spec_one_line_error(self, tmp_path, capsys, flags):
        rc = main(["gen", "--side", "20", "--trees", "25", "--maturity", "0.6",
                   "--seed", "3", *flags, "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.glob("*.vrp"))


class TestSolve:
    def test_single_task_closed_form(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "one.vrp", n=1)
        rc = main(["solve", str(tmp_path / "one.vrp"), "--budget-evals", "10", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        d, w, q = 10.0, inst.robot_weight, 5.0
        assert payload["best_energy"] == pytest.approx(d * w + d * (w + q))
        assert payload["tokens"] == [0, 1, 0]
        assert payload["status"] == "ok"

    def test_byte_identical_output(self, tmp_path, capsys, monkeypatch):
        write_instance(tmp_path / "five.vrp", n=5)
        args = ["solve", str(tmp_path / "five.vrp"), "--budget-evals", "300", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        monkeypatch.setenv("ORCHARD_MTVRP_THREADS", "4")
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_trace_and_json_files(self, tmp_path, capsys):
        write_instance(tmp_path / "four.vrp", n=4)
        out = tmp_path / "run"
        rc = main(["solve", str(tmp_path / "four.vrp"), "--budget-evals", "100",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert json.loads(Path(f"{out}.json").read_text()) == json.loads(stdout)
        rows = list(csv.reader(Path(f"{out}_trace.csv").open()))
        assert rows[0] == ["generation", "best_energy", "archive_counts"]
        assert len(rows) > 1

    def test_missing_out_directory_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        write_instance(tmp_path / "four.vrp", n=4)
        solves = []
        monkeypatch.setattr(cli, "run_aedga", lambda *args: solves.append(args))
        out = tmp_path / "runs" / "first"
        rc = main(["solve", str(tmp_path / "four.vrp"), "--budget-evals", "100",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out}_trace.csv'\n"
        assert solves == []
        assert not out.parent.exists()

    def test_framework_run_emits_schedule(self, tmp_path, capsys):
        write_instance(tmp_path / "six.vrp", n=6)
        rc = main(["solve", str(tmp_path / "six.vrp"), "--budget-evals", "200",
                   "--seed", "3", "--framework", "Fr3", "--robots", "2",
                   "--emax", "100000"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["schedule"] is not None
        robots = payload["schedule"]["robots"]
        assert len(robots) == 2
        scheduled = sorted(t for r in robots for trip in r["trips"] for t in trip)
        assert scheduled == [1, 2, 3, 4, 5, 6]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        write_instance(tmp_path / "two.vrp", n=2)
        rc = main(["solve", str(tmp_path / "two.vrp"), "--budget-evals", "50",
                   "--seed", "1", "--framework", "Fr1", "--robots", "1",
                   "--emax", "10"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "infeasible"

    def test_parse_error_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.vrp"
        bad.write_text("NOT AN INSTANCE\n")
        rc = main(["solve", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("old, new", [("2 10 0", "2 nan 0"), ("CAPACITY : 12", "CAPACITY : inf")])
    def test_non_finite_instance_one_line_error(self, tmp_path, capsys, old, new):
        path = tmp_path / "nf.vrp"
        write_instance(path, n=2)
        path.write_text(path.read_text().replace(old, new))
        rc = main(["solve", str(path), "--budget-evals", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert captured.err.count("\n") == 1

    def test_overflowing_distances_one_line_error(self, tmp_path, capsys, recwarn):
        path = tmp_path / "far.vrp"
        write_instance(path, n=3)
        path.write_text(path.read_text().replace("2 10 0", "2 1e200 0").replace("3 20 0", "3 0 1e200"))
        rc = main(["solve", str(path), "--budget-evals", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: the distance between the depot and task 1 is not finite: "
            "their coordinates are too far apart\n"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_instance_not_utf8_one_line_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin.vrp"
        write_instance(path, n=2)
        path.write_bytes(path.read_bytes().replace(b"NAME : latin", b"NAME : \xff"))
        rc = main(["solve", str(path), "--budget-evals", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert captured.err.count("\n") == 1

    def test_config_not_json_one_line_error_naming_the_file(self, tmp_path, capsys):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        cfg.write_text("{populaton: 5}")
        rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: Expecting property name")
        assert captured.err.count("\n") == 1

    def test_config_unknown_key_one_line_error(self, tmp_path, capsys):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps({"populaton": 5}))
        rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "populaton" in captured.err
        assert captured.err.count("\n") == 1

    def test_config_framework_not_a_framework_one_line_error(self, tmp_path, capsys):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        for value, shown in ((1, "1"), ("fr1", '"fr1"'), (None, "null"), (["Fr1"], '["Fr1"]')):
            cfg.write_text(json.dumps({"framework": value, "robots": 2, "energy_bound": 100.0}))
            rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            wanted = '"Fr1", "Fr2", "Fr3"'
            assert captured.err == f"error: {cfg}: framework must be one of {wanted}, got {shown}\n"

    @pytest.mark.parametrize("config, message", [
        ({"population": 4.5}, "population must be int, got 4.5"),
        ({"use_clsm": "no"}, 'use_clsm must be bool, got "no"'),
        ({"robots": 2.5, "energy_bound": 100.0}, "robots must be int or null, got 2.5"),
        ({"budget_evals": 30.7}, "budget_evals must be int or null, got 30.7"),
    ])
    def test_config_value_of_wrong_type_one_line_error(self, tmp_path, capsys, config, message):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps(config))
        rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: {message}\n"

    def test_config_not_an_object_one_line_error(self, tmp_path, capsys):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        cfg.write_text("[1, 2]")
        rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: not a JSON object of SolverConfig fields\n"

    def test_config_int_for_float_and_null_for_unset_accepted(self, tmp_path, capsys):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps({"top_fraction": 1, "budget_seconds": None, "budget_evals": 20}))
        rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["evaluations"] >= 20

    @pytest.mark.parametrize("flags, config", [
        (["--robots", "2"], None),
        (["--emax", "100"], None),
        ([], {"robots": 2, "budget_evals": 10}),
    ])
    def test_robots_and_emax_only_together(self, tmp_path, capsys, flags, config):
        write_instance(tmp_path / "c.vrp", n=2)
        if config is not None:
            (tmp_path / "solver.json").write_text(json.dumps(config))
            flags = ["--config", str(tmp_path / "solver.json")]
        rc = main(["solve", str(tmp_path / "c.vrp"), "--budget-evals", "10", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--emax" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "3"], ["--seed"]),
        (["--budget-evals", "10", "--no-clsm"], ["--budget-evals", "--no-clsm"]),
        (["--framework", "Fr2", "--robots", "2", "--emax", "50"],
         ["--framework", "--robots", "--emax"]),
        (["--population", "10", "--intensity", "0.5"], ["--intensity"]),
        *field_flag_params(SolverConfig),
    ])
    def test_config_with_solver_flags_one_line_error(self, tmp_path, capsys, flags, named):
        write_instance(tmp_path / "c.vrp", n=2)
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps({"budget_evals": 10}))
        rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg), *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--config" in captured.err
        assert captured.err.count("\n") == 1
        assert named_in_error(captured.err) == sorted(named)
        assert_flag_defaults(["solve", "c.vrp"], flags, SolverConfig)

    @pytest.mark.parametrize("flags", [
        ["--mutation-rate", "1.5"],
        ["--crossover-rate", "-1"],
        ["--budget-evals", "-1"],
        ["--budget-seconds", "-0.5"],
        ["--stagnation-evals", "0"],
        ["--robots", "0", "--emax", "100"],
        ["--robots", "2", "--emax", "0"],
        ["--robots", "2", "--emax", "-5"],
        ["--robots", "2", "--emax", "nan"],
        ["--init", "bogus"],
        ["--top-fraction", "0.35"],
    ])
    def test_out_of_range_setting_one_line_error(self, tmp_path, capsys, flags):
        write_instance(tmp_path / "c.vrp", n=2)
        rc = main(["solve", str(tmp_path / "c.vrp"), "--budget-evals", "10", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestBench:
    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_thread_count_one_line_error(self, tmp_path, capsys, monkeypatch, threads):
        write_instance(tmp_path / "t.vrp", n=3)
        monkeypatch.setenv("ORCHARD_MTVRP_THREADS", threads)
        out = tmp_path / "t.csv"
        rc = main(["bench", "--instances", str(tmp_path / "t.vrp"), "--runs", "1",
                   "--budget-evals", "10", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "ORCHARD_MTVRP_THREADS" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads, runs, methods, pool_sizes", [
        ("64", "1", "aedga", []),
        ("64", "2", "aedga", [2]),
        ("64", "2", "aedga,Fr1/2/1.5", [2, 2]),
        ("4", "3", "aedga,aedga-noclsm", [4]),
    ])
    def test_pool_has_no_more_workers_than_jobs(self, tmp_path, capsys, monkeypatch, threads, runs,
                                                methods, pool_sizes):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setenv("ORCHARD_MTVRP_THREADS", threads)
        write_instance(tmp_path / "p.vrp", n=3)
        rc = main(["bench", "--instances", str(tmp_path / "p.vrp"), "--methods", methods,
                   "--runs", runs, "--budget-evals", "10", "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        assert sizes == pool_sizes

    def test_matrix_round_trip_through_stats(self, tmp_path, capsys):
        write_instance(tmp_path / "b1.vrp", n=5)
        write_instance(tmp_path / "b2.vrp", n=6)
        for i, name in enumerate(["b3", "b4", "b5"]):
            write_instance(tmp_path / f"{name}.vrp", n=4 + i)
        out = tmp_path / "matrix.csv"
        rc = main(["bench", "--instances", str(tmp_path / "*.vrp"),
                   "--methods", "aedga,aedga-randinit", "--runs", "3",
                   "--seed", "0", "--budget-evals", "60", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["instance", "aedga", "aedga-randinit"]
        assert len(rows) == 6
        assert "(" in rows[1][1]

        rc = main(["stats", "--matrix", str(out), "--test", "wilcoxon",
                   "--baseline", "aedga"])
        assert rc == 0
        report = capsys.readouterr().out
        assert "aedga-randinit" in report

    def test_mean_and_std_cells(self, tmp_path, capsys):
        write_instance(tmp_path / "m.vrp", n=3)
        out = tmp_path / "m.csv"
        main(["bench", "--instances", str(tmp_path / "m.vrp"), "--methods", "aedga",
              "--runs", "3", "--seed", "5", "--budget-evals", "40", "--out", str(out)])
        capsys.readouterr()
        cell = list(csv.reader(out.open()))[1][1]
        mean = float(cell.split("(")[0])
        std = float(cell.split("(")[1].rstrip(")"))
        assert mean > 0
        assert std >= 0

    def test_unknown_method_rejected(self, tmp_path, capsys):
        write_instance(tmp_path / "u.vrp", n=3)
        rc = main(["bench", "--instances", str(tmp_path / "u.vrp"),
                   "--methods", "nope", "--runs", "1", "--budget-evals", "10",
                   "--out", str(tmp_path / "u.csv")])
        assert rc == 1

    def test_unknown_method_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        write_instance(tmp_path / "u.vrp", n=3)
        solves = []
        monkeypatch.setattr(cli, "run_aedga", lambda *args: solves.append(args))
        out = tmp_path / "u.csv"
        rc = main(["bench", "--instances", str(tmp_path / "u.vrp"),
                   "--methods", "aedga,nope", "--runs", "1", "--budget-evals", "10",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "nope" in captured.err
        assert captured.err.count("\n") == 1
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize("methods", [",", "aedga,aedga", "aedga, aedga-randinit,aedga"])
    def test_empty_or_repeated_methods_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                                 methods):
        write_instance(tmp_path / "u.vrp", n=3)
        solves = []
        monkeypatch.setattr(cli, "run_aedga", lambda *args: solves.append(args))
        out = tmp_path / "u.csv"
        rc = main(["bench", "--instances", str(tmp_path / "u.vrp"), "--methods", methods,
                   "--runs", "1", "--budget-evals", "10", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--methods" in captured.err
        assert captured.err.count("\n") == 1
        assert solves == []
        assert not out.exists()

    def test_bad_instance_in_glob_named_before_any_solve(self, tmp_path, capsys, monkeypatch):
        write_instance(tmp_path / "a.vrp", n=2)
        bad = tmp_path / "b.vrp"
        write_instance(bad, n=2)
        bad.write_text(bad.read_text().replace("3 20 0", "3 20 x"))
        solves = []
        monkeypatch.setattr(cli, "run_aedga", lambda *args: solves.append(args))
        out = tmp_path / "b.csv"
        rc = main(["bench", "--instances", str(tmp_path / "*.vrp"), "--runs", "2", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: line ") and "bad y 'x'" in captured.err
        assert captured.err.count("\n") == 1
        assert solves == []
        assert not out.exists()

    def test_missing_out_directory_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        write_instance(tmp_path / "m.vrp", n=3)
        solves = []
        monkeypatch.setattr(cli, "run_aedga", lambda *args: solves.append(args))
        out = tmp_path / "missing" / "m.csv"
        rc = main(["bench", "--instances", str(tmp_path / "m.vrp"), "--runs", "2",
                   "--budget-evals", "10", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert solves == []
        assert not out.parent.exists()

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_nonpositive_runs_one_line_error(self, tmp_path, capsys, runs):
        write_instance(tmp_path / "r.vrp", n=3)
        out = tmp_path / "r.csv"
        rc = main(["bench", "--instances", str(tmp_path / "r.vrp"), "--runs", runs,
                   "--budget-evals", "10", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--runs" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["Fr4/8/1.5", "fr1/8/1.5", "Fr1/0/1.5", "Fr1/8/0",
                                        "Fr1/8/nan", "Fr1/8/inf", "Fr1/8"])
    def test_malformed_bounded_method_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                                method):
        write_instance(tmp_path / "u.vrp", n=3)
        solves = []
        monkeypatch.setattr(cli, "run_aedga", lambda *args: solves.append(args))
        out = tmp_path / "u.csv"
        rc = main(["bench", "--instances", str(tmp_path / "u.vrp"), "--methods", f"aedga,{method}",
                   "--runs", "1", "--budget-evals", "10", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and repr(method) in captured.err
        assert captured.err.count("\n") == 1
        assert solves == []
        assert not out.exists()

    def test_bounded_method_bound_is_the_threshold_of_the_aedga_mean(self, tmp_path, capsys,
                                                                     monkeypatch):
        write_instance(tmp_path / "z.vrp", n=4)
        configs = []

        def recording_run(inst, cfg):
            configs.append(cfg)
            return run_aedga(inst, cfg)

        monkeypatch.setattr(cli, "run_aedga", recording_run)
        out = tmp_path / "z.csv"
        rc = main(["bench", "--instances", str(tmp_path / "z.vrp"), "--methods", "Fr2/2/1.7",
                   "--runs", "2", "--seed", "3", "--budget-evals", "30", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        unbounded, bounded = configs[:2], configs[2:]
        assert [cfg.seed for cfg in configs] == [3, 4, 3, 4]
        assert all(cfg.robots is None for cfg in unbounded)
        inst = parse_instance((tmp_path / "z.vrp").read_text())
        z = statistics.fmean(run_aedga(inst, cfg).best_energy for cfg in unbounded)
        assert [(cfg.framework, cfg.robots, cfg.energy_bound) for cfg in bounded] == [
            (Framework.FR2, 2, thresholds(z, 2)[1])] * 2
        assert list(csv.reader(out.open()))[0] == ["instance", "Fr2/2/1.7"]

    def test_infeasible_cell_reads_inf_and_ranks_last(self, tmp_path, capsys):
        for i in range(3):
            write_instance(tmp_path / f"i{i}.vrp", n=3 + i)
        out = tmp_path / "i.csv"
        rc = main(["bench", "--instances", str(tmp_path / "*.vrp"), "--methods", "aedga,Fr1/1/0.01",
                   "--runs", "2", "--budget-evals", "20", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert [row[2] for row in rows[1:]] == ["inf"] * 3
        assert all("(" in row[1] for row in rows[1:])
        capsys.readouterr()
        rc = main(["stats", "--matrix", str(out), "--test", "friedman"])
        assert rc == 0
        report = capsys.readouterr().out
        assert "| aedga | 1.0000 |" in report and "| Fr1/1/0.01 | 2.0000 |" in report


class TestStats:
    def test_reference_fixture_row(self, capsys):
        rc = main(["stats", "--matrix", str(FIXTURES / "rg_means.csv"),
                   "--test", "wilcoxon", "--baseline", "AEDGA"])
        assert rc == 0
        report = capsys.readouterr().out
        etsa = next(l for l in report.splitlines() if l.startswith("| ETSA"))
        cells = [c.strip() for c in etsa.strip("|").split("|")]
        assert cells[1] == "903"
        assert cells[2] == "0"
        assert float(cells[3]) <= 0.05

    def test_identical_columns_all_equal(self, tmp_path, capsys):
        matrix = tmp_path / "same.csv"
        with matrix.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "a", "b"])
            for i in range(6):
                writer.writerow([i, 10.0 + i, 10.0 + i])
        main(["stats", "--matrix", str(matrix), "--test", "wilcoxon", "--baseline", "a"])
        report = capsys.readouterr().out
        row = next(l for l in report.splitlines() if l.startswith("| b"))
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[-1] == "6"  # '=' tally

    def test_baseline_swap_mirrors_rank_sums(self, capsys):
        main(["stats", "--matrix", str(FIXTURES / "rg_means.csv"),
              "--test", "wilcoxon", "--baseline", "ETSA"])
        report = capsys.readouterr().out
        aedga = next(l for l in report.splitlines() if l.startswith("| AEDGA"))
        cells = [c.strip() for c in aedga.strip("|").split("|")]
        assert cells[1] == "0"
        assert cells[2] == "903"

    def test_missing_baseline_errors(self, capsys):
        rc = main(["stats", "--matrix", str(FIXTURES / "rg_means.csv"),
                   "--test", "wilcoxon", "--baseline", "nope"])
        assert rc == 1

    def test_friedman_report(self, tmp_path, capsys):
        matrix = tmp_path / "f.csv"
        with matrix.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "x", "y", "z"])
            for i in range(5):
                writer.writerow([i, 1.0, 2.0, 3.0])
        rc = main(["stats", "--matrix", str(matrix), "--test", "friedman"])
        assert rc == 0
        report = capsys.readouterr().out
        assert "| x | 1.0000 |" in report

    @pytest.mark.parametrize("test", ["wilcoxon", "friedman"])
    def test_row_of_wrong_width_one_line_error(self, tmp_path, capsys, test):
        matrix = tmp_path / "short.csv"
        with matrix.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "a", "b"])
            for i in range(6):
                writer.writerow([i, 10.0 + i, 11.0 + i])
            writer.writerow(["p7", 12.0])
        rc = main(["stats", "--matrix", str(matrix), "--test", test, "--baseline", "a"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "line 8" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("content, message", [
        pytest.param(b"instance,a\np1,\xff1.0\n", "'utf-8' codec can't decode byte 0xff", id="not-utf8"),
        pytest.param(b"instance,a\np1," + b"9" * 200_000 + b"\n", "field larger than field limit",
                     id="oversized-field"),
    ])
    def test_unreadable_matrix_one_line_error_naming_the_file(self, tmp_path, capsys, content, message):
        matrix = tmp_path / "m.csv"
        matrix.write_bytes(content)
        rc = main(["stats", "--matrix", str(matrix), "--test", "friedman"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: matrix {matrix}: {message}")
        assert captured.err.count("\n") == 1

    def test_empty_cell_one_line_error_naming_its_place(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("instance,a,b\np1,1.0,\np2,2.0,3.0\n")
        rc = main(["stats", "--matrix", str(matrix), "--test", "friedman"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: matrix {matrix} line 2, column b: '' is not a number\n"

    @pytest.mark.parametrize("flags, named", [
        (["--baseline", "zzz"], "--baseline"),
        (["--tol", "0.3"], "--tol"),
        (["--baseline", "zzz", "--tol", "0.3"], "--baseline, --tol"),
    ])
    def test_friedman_with_wilcoxon_flags_one_line_error(self, capsys, flags, named):
        rc = main(["stats", "--matrix", str(FIXTURES / "rg_means.csv"), "--test", "friedman", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"so {named} would be ignored" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_not_finite_and_nonnegative_one_line_error(self, capsys, tol):
        rc = main(["stats", "--matrix", str(FIXTURES / "rg_means.csv"), "--test", "wilcoxon",
                   "--baseline", "AEDGA", f"--tol={tol}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must be a finite number >= 0, got {float(tol)}\n"

    def test_wilcoxon_without_a_column_beside_the_baseline_one_line_error(self, tmp_path, capsys):
        matrix = tmp_path / "one.csv"
        matrix.write_text("instance,a\np1,1.0\np2,2.0\n")
        rc = main(["stats", "--matrix", str(matrix), "--test", "wilcoxon", "--baseline", "a"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "beside the baseline" in captured.err
        assert captured.err.count("\n") == 1

    def test_report_files_written(self, tmp_path, capsys):
        out = tmp_path / "report"
        main(["stats", "--matrix", str(FIXTURES / "rg_means.csv"),
              "--test", "wilcoxon", "--baseline", "AEDGA", "--out", str(out)])
        capsys.readouterr()
        assert Path(f"{out}.csv").exists()
        assert Path(f"{out}.md").exists()
        rows = list(csv.reader(Path(f"{out}.csv").open()))
        assert rows[0][:4] == ["VS", "R+", "R-", "Asymptotic P-value"]


class TestOracleCommand:
    def test_matches_library(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "o.vrp", n=4)
        rc = main(["oracle", str(tmp_path / "o.vrp")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal_energy"] == pytest.approx(exact_route_generation(inst).energy)

    def test_size_guard(self, tmp_path, capsys):
        write_instance(tmp_path / "big.vrp", n=9)
        rc = main(["oracle", str(tmp_path / "big.vrp")])
        assert rc == 1


class TestExportRoutes:
    def test_polylines(self, tmp_path, capsys):
        write_instance(tmp_path / "e.vrp", n=3)
        out = tmp_path / "run"
        main(["solve", str(tmp_path / "e.vrp"), "--budget-evals", "50",
              "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        rc = main(["export-routes", "--instance", str(tmp_path / "e.vrp"),
                   "--result", f"{out}.json", "--out", str(tmp_path / "routes.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "routes.json").read_text())
        for route in payload["routes"]:
            poly = route["polyline"]
            assert poly[0] == [0.0, 0.0] and poly[-1] == [0.0, 0.0]
            assert len(poly) == len(route["tasks"]) + 2

    @pytest.mark.parametrize("result", [{"instance": "x"}, [1, 2], {"tokens": "0 1 0"},
                                        {"tokens": [0, None, 0]}, {"tokens": [0, True, 0]}])
    def test_bad_result_file_one_line_error(self, tmp_path, capsys, result):
        write_instance(tmp_path / "e.vrp", n=1)
        (tmp_path / "bad.json").write_text(json.dumps(result))
        rc = main(["export-routes", "--instance", str(tmp_path / "e.vrp"),
                   "--result", str(tmp_path / "bad.json")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "tokens" in captured.err
        assert captured.err.count("\n") == 1


    def test_result_not_json_one_line_error_naming_the_file(self, tmp_path, capsys):
        write_instance(tmp_path / "e.vrp", n=1)
        result = tmp_path / "bad.json"
        result.write_text('{"tokens": [0, 1, 0],}')
        rc = main(["export-routes", "--instance", str(tmp_path / "e.vrp"), "--result", str(result)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {result}: Expecting property name")
        assert captured.err.count("\n") == 1


def test_solve_config_file(tmp_path, capsys):
    write_instance(tmp_path / "c.vrp", n=4)
    cfg = tmp_path / "solver.json"
    cfg.write_text(json.dumps({"budget_evals": 60, "seed": 12, "population": 4}))
    rc = main(["solve", str(tmp_path / "c.vrp"), "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 12


class TestStatsNonFinite:
    def _report_row(self, tmp_path, capsys, extra_rows):
        matrix = tmp_path / "m.csv"
        with matrix.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "a", "b"])
            for i in range(5):
                writer.writerow([f"p{i + 2}", 10.0 + i, 11.0 + 2 * i])
            writer.writerows(extra_rows)
        rc = main(["stats", "--matrix", str(matrix), "--test", "wilcoxon", "--baseline", "a"])
        assert rc == 0
        report = capsys.readouterr().out
        row = next(l for l in report.splitlines() if l.startswith("| b"))
        return [c.strip() for c in row.strip("|").split("|")]

    @pytest.mark.filterwarnings("error")
    def test_two_infeasible_runs_tie(self, tmp_path, capsys):
        without = self._report_row(tmp_path, capsys, [])
        with_tie = self._report_row(tmp_path, capsys, [["p1", "inf", "inf"]])
        assert with_tie[:4] == without[:4]  # R+, R- and p-value
        assert without[4:] == ["0", "5", "0"]
        assert with_tie[4:] == ["0", "5", "1"]

    def test_feasible_run_beats_infeasible_baseline(self, tmp_path, capsys):
        # Within the tolerance of an infinite baseline is not a tie: 5 < inf.
        matrix = tmp_path / "m.csv"
        with matrix.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "p1", "base"])
            for i in range(5):
                writer.writerow([f"r{i}", 20.0 + i, 10.0 + i])
            writer.writerow(["ix", 5, "inf"])
        rc = main(["stats", "--matrix", str(matrix), "--test", "wilcoxon", "--baseline", "base"])
        assert rc == 0
        row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("| p1"))
        assert [c.strip() for c in row.strip("|").split("|")][4:] == ["1", "5", "0"]

    @pytest.mark.parametrize("test", ["wilcoxon", "friedman"])
    def test_nan_cell_one_line_error(self, tmp_path, capsys, test):
        matrix = tmp_path / "nan.csv"
        with matrix.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "a", "b"])
            for i in range(5):
                writer.writerow([i, 10.0 + i, 11.0 + i])
            writer.writerow(["p6", "nan", 12.0])
        baseline = ["--baseline", "a"] if test == "wilcoxon" else []
        rc = main(["stats", "--matrix", str(matrix), "--test", test, *baseline])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "NaN" in captured.err
        assert captured.err.count("\n") == 1
