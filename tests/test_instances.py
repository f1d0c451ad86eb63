import math
import random

import numpy as np
import pytest

from orchard_mtvrp import core
from orchard_mtvrp.cli import PAPER18, main
from orchard_mtvrp.core import ConfigurationError, build_distance_matrix, ordered_sum
from orchard_mtvrp.instances import (
    OrchardSpec,
    ParseError,
    emit_instance,
    generate_orchard,
    instance_stats,
    parse_instance,
)

MINIMAL = """NAME : tiny
TYPE : CVRP
DIMENSION : 2
EDGE_WEIGHT_TYPE : EUC_2D
CAPACITY : 10
NODE_COORD_SECTION
1 0 0
2 3 4
DEMAND_SECTION
1 0
2 4
DEPOT_SECTION
1
-1
EOF
"""
SPEC_60 = dict(side_length=20, tree_count=100, maturity_rate=0.6)


class TestParse:
    def test_minimal_file(self):
        inst = parse_instance(MINIMAL)
        assert inst.n == 1
        assert inst.dist[0, 1] == 5.0
        assert inst.capacity == 10
        assert inst.robot_weight == pytest.approx(10 / 3)

    def test_demand_above_capacity(self):
        bad = MINIMAL.replace("2 4\n", "2 11\n")
        with pytest.raises(ParseError, match="exceeds capacity"):
            parse_instance(bad)

    def test_nonzero_depot_demand(self):
        bad = MINIMAL.replace("1 0\n2 4", "1 2\n2 4")
        with pytest.raises(ParseError, match="demand 0"):
            parse_instance(bad)

    def test_duplicate_node_id(self):
        bad = MINIMAL.replace("2 3 4", "1 3 4")
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance(bad)

    def test_missing_section(self):
        bad = "\n".join(l for l in MINIMAL.splitlines() if "DEMAND" not in l and l not in ("1 0", "2 4"))
        with pytest.raises(ParseError):
            parse_instance(bad)

    @pytest.mark.parametrize("line, lineno", [("DIMENSION : 2", 3), ("CAPACITY : 10", 5)])
    def test_bad_header_value_names_its_line(self, line, lineno):
        field = line.split()[0]
        with pytest.raises(ParseError, match=f"^line {lineno}: bad {field} 'abc'$"):
            parse_instance(MINIMAL.replace(line, f"{field} : abc"))

    def test_repeated_header_field_rejected(self):
        bad = MINIMAL.replace("CAPACITY : 10\n", "CAPACITY : 10\nCAPACITY : 99\n")
        with pytest.raises(ParseError, match="^line 6: repeated header field CAPACITY$"):
            parse_instance(bad)

    def test_repeated_header_field_one_line_cli_error(self, tmp_path, capsys):
        path = tmp_path / "twice.vrp"
        path.write_text(MINIMAL.replace("NAME : tiny\n", "NAME : tiny\nname : other\n"))
        assert main(["solve", str(path), "--budget-evals", "1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 2: repeated header field NAME\n"

    def test_rounding_not_applied(self):
        text = MINIMAL.replace("2 3 4", "2 1 1").replace("DIMENSION : 2", "DIMENSION : 2")
        inst = parse_instance(text)
        assert inst.dist[0, 1] == pytest.approx(math.sqrt(2))
        assert "rounding not applied" in inst.provenance

    def test_round_trip_fixpoint(self):
        first = parse_instance(MINIMAL)
        second = parse_instance(emit_instance(first))
        assert first == second
        assert emit_instance(first) == emit_instance(second)


class TestGenerate:
    def test_full_maturity_keeps_every_tree(self):
        inst = generate_orchard(OrchardSpec(side_length=20, tree_count=100, maturity_rate=1.0, seed=1))
        assert inst.n == 100

    def test_same_seed_identical_files(self):
        spec = OrchardSpec(side_length=30, tree_count=50, maturity_rate=0.6, seed=42)
        a = emit_instance(generate_orchard(spec))
        b = emit_instance(generate_orchard(spec))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_orchard(OrchardSpec(side_length=30, tree_count=50, maturity_rate=0.6, seed=1))
        b = generate_orchard(OrchardSpec(side_length=30, tree_count=50, maturity_rate=0.6, seed=2))
        assert a.coords != b.coords

    def test_expected_task_count_over_seeds(self):
        # E[n] = 100 * 0.4 = 40; the mean over 200 seeds should sit within +-3
        counts = [
            generate_orchard(
                OrchardSpec(side_length=20, tree_count=100, maturity_rate=0.4, seed=s)
            ).n
            for s in range(200)
        ]
        assert abs(sum(counts) / len(counts) - 40) <= 3

    def test_yields_and_geometry_contract(self):
        spec = OrchardSpec(side_length=25, tree_count=80, maturity_rate=0.7, seed=9)
        inst = generate_orchard(spec)
        for t in inst.task_ids:
            assert 40 <= inst.yields[t] <= 70
            assert inst.yields[t] == int(inst.yields[t])
            x, y = inst.coords[t]
            assert 0 <= x <= 25 and 0 <= y <= 25
        dx, dy = inst.coords[0]
        assert dx in (0.0, 25.0) or dy in (0.0, 25.0)
        assert inst.robot_weight == pytest.approx(spec.capacity / 3)

    def test_mean_yield_in_range(self):
        inst = generate_orchard(OrchardSpec(side_length=20, tree_count=100, maturity_rate=0.4, seed=3))
        stats = instance_stats(inst)
        assert 40 <= stats.mean_yield <= 70

    def test_grid_flag_places_on_lattice(self):
        inst = generate_orchard(
            OrchardSpec(side_length=20, tree_count=16, maturity_rate=1.0, seed=5, grid=True)
        )
        xs = sorted({round(x, 9) for x, _ in inst.coords[1:]})
        assert xs == [2.5, 7.5, 12.5, 17.5]

    def test_generated_file_reparses(self):
        spec = OrchardSpec(side_length=20, tree_count=30, maturity_rate=0.8, seed=11)
        inst = generate_orchard(spec)
        text = emit_instance(inst)
        back = parse_instance(text)
        assert back.n == inst.n
        assert back.capacity == inst.capacity
        assert all(
            back.dist[0, t] == pytest.approx(inst.dist[0, t], rel=1e-12) for t in back.task_ids
        )
        assert "seed=11" in text

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            OrchardSpec(side_length=20, tree_count=10, maturity_rate=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            OrchardSpec(side_length=20, tree_count=0, maturity_rate=0.5, seed=0)
        # Each of these used to pass the spec and fail later, on the seeds
        # that drew a bad yield or a distance that overflows, or not at all.
        bad = [
            ("yield_low", dict(yield_low=0)),
            ("yield_high", dict(yield_high=306)),
            ("capacity", dict(capacity=math.inf)),
            ("capacity", dict(capacity=math.nan)),
            ("side_length", dict(side_length=math.nan)),
            ("side_length", dict(side_length=math.inf)),
            ("side_length", dict(side_length=1e154)),
        ]
        for field, change in bad:
            for seed in range(20):
                with pytest.raises(ConfigurationError, match=field):
                    OrchardSpec(**{**SPEC_60, "seed": seed, **change})
        for field in ("capacity", "side_length"):
            with pytest.raises(ConfigurationError, match="finite"):
                OrchardSpec(**{**SPEC_60, field: math.inf})
        # The largest side whose squared diagonal is finite, and the smallest
        # yields and capacity, still generate.
        inst = generate_orchard(OrchardSpec(**{**SPEC_60, "side_length": 1e154 / 1.5, "yield_low": 1,
                                               "yield_high": 1, "capacity": 1}))
        assert np.isfinite(inst.dist).all() and set(inst.yields[1:]) == {1.0}

    def test_matrix_built_only_when_a_file_is_read(self, monkeypatch):
        calls = []
        build = core.build_distance_matrix
        monkeypatch.setattr(core, "build_distance_matrix", lambda coords: calls.append(len(coords)) or build(coords))
        inst = generate_orchard(OrchardSpec(70, 1225, 0.8, seed=1))
        text = emit_instance(inst)
        instance_stats(inst)
        assert calls == []
        parsed = parse_instance(text)
        assert calls == [inst.n + 1] and "dist" in vars(parsed)
        assert parsed.dist is parsed.dist and calls == [inst.n + 1]


class TestStats:
    def test_depot_distances_are_the_matrix_row_on_paper18(self):
        for seed, ((side, trees), maturity) in enumerate(PAPER18):
            inst = generate_orchard(OrchardSpec(side, trees, maturity, seed=1 + seed))
            row = build_distance_matrix(inst.coords)[0, 1:].tolist()
            s = instance_stats(inst)
            assert (s.mean_depot_distance, s.max_depot_distance) == (ordered_sum(row) / len(row), max(row))

    def test_two_point_mean_max(self):
        from orchard_mtvrp.core import Instance

        inst = Instance(
            coords=((0.0, 0.0), (3.0, 4.0), (6.0, 8.0)),
            yields=(0.0, 40.0, 70.0),
            capacity=300.0,
            robot_weight=100.0,
        )
        s = instance_stats(inst)
        assert s.mean_yield == pytest.approx(55.0)
        assert s.max_yield == 70.0
        assert s.mean_depot_distance == pytest.approx(7.5)
        assert s.max_depot_distance == pytest.approx(10.0)

    def test_singleton(self):
        from orchard_mtvrp.core import Instance

        inst = Instance(
            coords=((0.0, 0.0), (3.0, 4.0)),
            yields=(0.0, 50.0),
            capacity=300.0,
            robot_weight=100.0,
        )
        s = instance_stats(inst)
        assert s.mean_depot_distance == s.max_depot_distance == 5.0

    def test_table_schema_row(self):
        # schema reference: n=41, mean yield fractional, max yield 70, Q=300
        rng = random.Random(0)
        for seed in range(50):
            inst = generate_orchard(
                OrchardSpec(side_length=20, tree_count=100, maturity_rate=0.4, seed=seed)
            )
            s = instance_stats(inst)
            if s.n == 41:
                assert s.max_yield <= 70
                assert s.capacity == 300
                return
        # no seed produced exactly 41 tasks; schema is still exercised above
        assert rng is not None


def test_hopeless_maturity_rate_errors_after_retries():
    spec = OrchardSpec(side_length=10, tree_count=1, maturity_rate=1e-12, seed=0)
    with pytest.raises(ConfigurationError, match="no ripe tree"):
        generate_orchard(spec)
