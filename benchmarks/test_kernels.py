"""Per-kernel timings on pytest-benchmark.

Outside the default test paths, so the test suite does not run them. Run:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

The instances are generated from fixed seeds: n=59 (`side 20, 100 trees,
maturity 0.6, seed 42`) and n=965 (`side 70, 1225 trees, maturity 0.8,
seed 1`, the largest maturity-0.8 size of the paper18 suite).
"""

from __future__ import annotations

import random

import pytest

from orchard_mtvrp.core import trip_energy
from orchard_mtvrp.evolution import _resplit
from orchard_mtvrp.instances import OrchardSpec, generate_orchard

SPECS = {
    "n59": OrchardSpec(20, 100, 0.6, seed=42),
    "n965": OrchardSpec(70, 1225, 0.8, seed=1),
}


@pytest.fixture(scope="module", params=list(SPECS))
def instance(request):
    return generate_orchard(SPECS[request.param])


def test_resplit(benchmark, instance):
    perm = list(instance.task_ids)
    random.Random(0).shuffle(perm)
    sol = benchmark(_resplit, perm, instance)
    assert sol.task_sequence() == tuple(perm)


def test_trip_energy_six_tasks(benchmark):
    inst = generate_orchard(SPECS["n59"])
    trip = tuple(random.Random(1).sample(list(inst.task_ids), 6))
    assert benchmark(trip_energy, trip, inst) > 0
