"""Seeded solver outputs pinned exactly.

Each config runs `run_aedga` on one generated orchard and must reproduce the
recorded best energy (as its repr), a digest of the best tokens, the
evaluation and generation counts, and the status. A refactor that keeps the
solver's behaviour leaves every entry unchanged; a change that alters the
search on purpose re-records the file with `python tests/test_golden.py`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from orchard_mtvrp import (
    OrchardSpec,
    SolverConfig,
    core,
    evolution,
    generate_orchard,
    run_aedga,
    scheduler,
)

GOLDEN = Path(__file__).parent / "golden" / "golden.json"
SPEC = OrchardSpec(20, 60, 0.6, seed=42)
BUDGET_EVALS = 600
ROBOTS = 3

# name -> SolverConfig fields; "bound" is the energy bound as a multiple of
# Z / robots, where Z is the default run's best energy and robots is ROBOTS
# unless given. 0.9 leaves no feasible schedule, 1.5 is the paper's bound.
# With 8 robots at 1.4, Fr1's `repair` succeeds during the run (the other
# bounded configs only ever see it fail).
REPAIR_CONFIG = "Fr1-1.4-8robots"
CONFIGS: dict[str, dict] = {
    "default": {},
    "seed1": {"seed": 1},
    "random-init": {"init": "random"},
    "no-clsm": {"use_clsm": False},
    **{
        f"{fw}-{bound}": {"framework": fw, "bound": bound}
        for fw in ("Fr1", "Fr2", "Fr3")
        for bound in (0.9, 1.5)
    },
    REPAIR_CONFIG: {"framework": "Fr1", "bound": 1.4, "robots": 8},
}


def _solve(inst, z: float, fields: dict) -> dict:
    fields = dict(fields)
    bound = fields.pop("bound", None)
    if bound is not None:
        robots = fields.setdefault("robots", ROBOTS)
        fields["energy_bound"] = bound * z / robots
    result = run_aedga(inst, SolverConfig(budget_evals=BUDGET_EVALS, **fields))
    return {
        "best_energy": repr(result.best_energy),
        "tokens_sha256": hashlib.sha256(repr(result.best.tokens).encode()).hexdigest(),
        "evaluations": result.evaluations,
        "generations": result.generations,
        "status": result.status,
    }


def _record_all() -> dict[str, dict]:
    inst = generate_orchard(SPEC)
    default = _solve(inst, 0.0, CONFIGS["default"])
    z = float(default["best_energy"])
    return {
        name: default if name == "default" else _solve(inst, z, fields)
        for name, fields in CONFIGS.items()
    }


@pytest.fixture(scope="module")
def outputs() -> dict[str, dict]:
    return _record_all()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_golden_output(name, outputs):
    expected = json.loads(GOLDEN.read_text())
    assert outputs[name] == expected[name]


def test_repair_config_repairs(monkeypatch):
    original = scheduler.repair
    repaired = 0

    def counting(*args, **kwargs):
        nonlocal repaired
        out = original(*args, **kwargs)
        repaired += out[1] is scheduler.RepairStatus.REPAIRED
        return out

    monkeypatch.setattr(scheduler, "repair", counting)
    z = float(json.loads(GOLDEN.read_text())["default"]["best_energy"])
    _solve(generate_orchard(SPEC), z, CONFIGS[REPAIR_CONFIG])
    assert repaired > 0


def test_fr1_evaluates_once_per_counted_evaluation(monkeypatch):
    original = core.evaluate
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for module in (core, evolution, scheduler):
        monkeypatch.setattr(module, "evaluate", counting)
    z = float(json.loads(GOLDEN.read_text())["default"]["best_energy"])
    out = _solve(generate_orchard(SPEC), z, CONFIGS[REPAIR_CONFIG])
    assert calls == out["evaluations"]


def test_fr3_scores_each_distinct_candidate_once(monkeypatch):
    original_finalize = evolution.finalize_fr3
    original_score = scheduler.score_with_framework
    candidates: list = []
    final_scores = 0
    finalizing = False

    def finalize(population, *args):
        nonlocal finalizing
        candidates.extend(population)
        finalizing = True
        try:
            return original_finalize(population, *args)
        finally:
            finalizing = False

    def score(*args, **kwargs):
        nonlocal final_scores
        final_scores += finalizing
        return original_score(*args, **kwargs)

    monkeypatch.setattr(evolution, "finalize_fr3", finalize)
    monkeypatch.setattr(scheduler, "score_with_framework", score)
    z = float(json.loads(GOLDEN.read_text())["default"]["best_energy"])
    _solve(generate_orchard(SPEC), z, CONFIGS["Fr3-1.5"])
    assert final_scores == len({sol.tokens for sol in candidates}) == 10


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record_all(), indent=2, sort_keys=True) + "\n")
    print(GOLDEN)
