"""Seeded runs pinned as whole-result digests: the same-answers check.

Each run of the matrix solves one orchard under one configuration and must
reproduce a sha256 over its whole `RunResult`: the best trips, the best
energy as hex, the schedule, the status, the per-generation history and the
evaluation and generation counts. The CLI's byte output is pinned the same
way: the `solve` JSON, its trace CSV and the `export-routes` JSON of one
bounded solve per orchard.

A change that keeps the solver's behaviour leaves every digest unchanged; a
change that alters the search on purpose re-records the file with
`python tests/test_same_answers.py` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from orchard_mtvrp import OrchardSpec, SolverConfig, evolution, generate_orchard, run_aedga, trip_energy
from orchard_mtvrp.cli import main
from orchard_mtvrp.instances import emit_instance

DIGESTS = Path(__file__).parent / "golden" / "same_answers.json"
BUDGET_EVALS = 1500
ROBOTS = 8
ORCHARDS = {
    "s20-m06": OrchardSpec(20, 100, 0.6, seed=42),
    "s20-m04": OrchardSpec(20, 100, 0.4, seed=7),
    "s30-m06": OrchardSpec(30, 225, 0.6, seed=3),
}
# name -> SolverConfig fields; "single_share" is the energy bound as a
# multiple of Z_single / ROBOTS, where Z_single serves every task on a trip
# of its own.
CONFIGS: dict[str, dict] = {
    "seed0": {},
    "seed1": {"seed": 1},
    **{
        f"{fw}-{share}": {"framework": fw, "single_share": share}
        for fw in ("Fr1", "Fr2", "Fr3")
        for share in (0.5, 0.55, 0.8)
    },
    "Fr2-0.55-random-init": {"framework": "Fr2", "single_share": 0.55, "init": "random"},
    "population-7-no-clsm": {"population": 7, "use_clsm": False},
    "random-init-seed3": {"init": "random", "seed": 3},
}
LARGE = ("n965", OrchardSpec(70, 1225, 0.8, seed=1), 300)
CLI_SHARE = 0.55  # the bounded solve the CLI digests are taken from, under Fr1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _single_bound(inst, share: float) -> float:
    z_single = math.fsum(trip_energy((t,), inst) for t in inst.task_ids)
    return share * z_single / ROBOTS


def result_digest(result: evolution.RunResult) -> str:
    """sha256 over every field of a run's result, floats as hex."""
    schedule = result.schedule and (
        result.schedule.assignment, [e.hex() for e in result.schedule.robot_energies])
    history = [(s.generation, s.best_energy.hex(), s.archive_counts) for s in result.history]
    return _sha(repr((result.best.trips, result.best_energy.hex(), schedule, result.status,
                      history, result.evaluations, result.generations)))


def run_digest(inst, fields: dict, budget_evals: int = BUDGET_EVALS) -> str:
    fields = dict(fields)
    share = fields.pop("single_share", None)
    if share is not None:
        fields.update(robots=ROBOTS, energy_bound=_single_bound(inst, share))
    return result_digest(run_aedga(inst, SolverConfig(budget_evals=budget_evals, **fields)))


@contextlib.contextmanager
def _inside(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return out.getvalue()


def cli_digests(inst, workdir: Path) -> dict[str, str]:
    """Digests of the `solve` JSON, trace CSV and `export-routes` JSON of one
    Fr1 solve, run with relative paths inside `workdir`."""
    (workdir / "orchard.vrp").write_text(emit_instance(inst))
    with _inside(workdir):
        solved = _cli("solve", "orchard.vrp", "--framework", "Fr1", "--robots", str(ROBOTS),
                      "--emax", repr(_single_bound(inst, CLI_SHARE)),
                      "--budget-evals", str(BUDGET_EVALS), "--out", "run")
        routes = _cli("export-routes", "--instance", "orchard.vrp", "--result", "run.json")
        trace = Path("run_trace.csv").read_text()
    return {"solve": _sha(solved), "trace": _sha(trace), "export-routes": _sha(routes)}


def _run_names() -> list[str]:
    return [f"{orchard}/{config}" for orchard in ORCHARDS for config in CONFIGS] + [LARGE[0]]


def _cli_names() -> list[str]:
    outputs = ("solve", "trace", "export-routes")
    return [f"{orchard}/cli-{output}" for orchard in ORCHARDS for output in outputs]


def _record_all(workdir: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for orchard, spec in ORCHARDS.items():
        inst = generate_orchard(spec)
        for config, fields in CONFIGS.items():
            out[f"{orchard}/{config}"] = run_digest(inst, fields)
        cli_dir = workdir / orchard
        cli_dir.mkdir()
        for output, digest in cli_digests(inst, cli_dir).items():
            out[f"{orchard}/cli-{output}"] = digest
    name, spec, budget = LARGE
    out[name] = run_digest(generate_orchard(spec), {}, budget)
    return out


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> dict[str, str]:
    return _record_all(tmp_path_factory.mktemp("same-answers"))


def test_matrix_is_complete():
    assert len(_run_names()) == 43
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_run_names() + _cli_names())


@pytest.mark.parametrize("name", [*_run_names(), *_cli_names()])
def test_same_answers(name, recorded):
    assert recorded[name] == json.loads(DIGESTS.read_text())[name]


# A run whose digest the flipped tie-break below changes. Running the whole
# matrix with the flip changed 13 of its 42 small runs, this one the cheapest.
FLIPPED_RANK_RUN = "s20-m06/random-init-seed3"


def test_matrix_sees_a_flipped_rank_tie_break(monkeypatch):
    """The recorded mutation check: preferring more trips among equal
    energies changes a digest of the matrix, so the matrix can see a change
    to selection's tie rule."""
    monkeypatch.setattr(evolution, "_rank",
                        lambda ind: (ind.energy, -len(ind.solution.trips), ind.solution.trips))
    orchard, config = FLIPPED_RANK_RUN.split("/")
    expected = json.loads(DIGESTS.read_text())[FLIPPED_RANK_RUN]
    assert run_digest(generate_orchard(ORCHARDS[orchard]), CONFIGS[config]) != expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _record_all(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(DIGESTS)
