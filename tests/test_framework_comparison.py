"""The paper's framework comparison through the CLI alone: `gen` five
orchards, then for each of the six scenarios (robots in {2, 5, 8} x bounds
1.5 Z / m and 1.7 Z / m) `bench` the three frameworks and rank them with
`stats --test friedman`.

The mean ranks are the ones the former framework-sweep script printed with
`--instances 5 --budget-evals 400 --base-runs 1 --seed 0`; a bench run
that ends infeasible writes `inf` and so ranks last, as it did there."""

import pytest

from orchard_mtvrp.cli import main

# (robots, share) -> mean ranks of Fr1, Fr2, Fr3
RANKS = {
    (2, "1.5"): (2.0, 2.0, 2.0),
    (2, "1.7"): (2.0, 2.0, 2.0),
    (5, "1.5"): (2.0, 2.0, 2.0),
    (5, "1.7"): (2.0, 2.0, 2.0),
    (8, "1.5"): (1.2, 2.7, 2.1),
    (8, "1.7"): (1.2, 2.3, 2.5),
}


@pytest.fixture(scope="module")
def orchards(tmp_path_factory):
    out = tmp_path_factory.mktemp("orchards")
    for seed in range(5):
        assert main(["gen", "--side", "15", "--trees", "20", "--maturity", "0.8",
                     "--capacity", "150", "--seed", str(seed), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("robots, share", list(RANKS))
def test_scenario_mean_ranks(orchards, tmp_path, capsys, robots, share):
    methods = [f"{fw}/{robots}/{share}" for fw in ("Fr1", "Fr2", "Fr3")]
    matrix = tmp_path / "matrix.csv"
    assert main(["bench", "--instances", str(orchards / "*.vrp"), "--methods", ",".join(methods),
                 "--runs", "1", "--seed", "0", "--budget-evals", "400", "--out", str(matrix)]) == 0
    capsys.readouterr()
    assert main(["stats", "--matrix", str(matrix), "--test", "friedman"]) == 0
    report = capsys.readouterr().out
    for method, rank in zip(methods, RANKS[robots, share]):
        assert f"| {method} | {rank:.4f} |" in report
