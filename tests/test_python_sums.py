"""Same answers on Python 3.12 and later, checked from Python 3.11.

From Python 3.12 the built-in `sum()` compensates its float rounding, so a
result that adds floats with `sum()` can change with the interpreter. The
layers whose sums decide answers add with `core.ordered_sum` or a plain
loop instead. Here each of them runs once with a plain left-to-right `sum`
and once with an emulation of the compensated one put into every module of
the package, and must give the same result bit for bit.

The `random` draws and `math` functions the solver uses are compared across
interpreters by `tests/primitives_probe.py`, run under a `python3.13` found
on PATH against digests recorded under Python 3.11.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from orchard_mtvrp import clsm, evolution, instances, scheduler
from orchard_mtvrp.core import Instance
from orchard_mtvrp.evolution import _resplit
from orchard_mtvrp.instances import OrchardSpec, generate_orchard

TESTS = Path(__file__).parent
PROBE = TESTS / "primitives_probe.py"
RECORDED = TESTS / "fixtures" / "primitives_py311.json"
ORCHARDS = [OrchardSpec(20, 60, 0.6, seed=42), OrchardSpec(20, 100, 0.6, seed=42), OrchardSpec(40, 400, 0.8, seed=1)]


def plain_sum(values, /, start=0):
    """`sum()` up to Python 3.11: each item added to the running total in turn."""
    total = start
    for value in values:
        total = total + value
    return total


def compensated_sum(values, /, start=0):
    """`sum()` from Python 3.12: exact ints first; once the total is a float,
    exact floats are added with Neumaier compensation and ints as they are,
    and the compensation is added back at the end or before any other type."""
    items = iter(values)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) is not int:
                total = total + item
                break
            total += item
        else:
            return total
    if type(total) is float:
        high, low = total, 0.0
        for item in items:
            if type(item) is float:
                t = high + item
                if abs(high) >= abs(item):
                    low += (high - t) + item
                else:
                    low += (item - t) + high
                high = t
            elif type(item) is int:
                high += float(item)
            else:
                if low and math.isfinite(low):
                    high += low
                total = high + item
                break
        else:
            if low and math.isfinite(low):
                high += low
            return high
    for item in items:
        total = total + item
    return total


def test_emulation_differs_from_a_plain_sum():
    values = [0.1] * 10
    assert plain_sum(values) == 0.9999999999999999
    assert compensated_sum(values) == 1.0
    assert compensated_sum([1, 2, 3]) == plain_sum([1, 2, 3]) == 6
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf


def _under(sum_fn, calls):
    """The results of `calls` with `sum` bound to sum_fn in every module of
    the package."""
    modules = [m for name, m in sys.modules.items()
               if name == "orchard_mtvrp" or name.startswith("orchard_mtvrp.")]
    for module in modules:
        module.sum = sum_fn
    try:
        return [fn(*args) for fn, *args in calls]
    finally:
        for module in modules:
            del module.sum


def _same_under_both_sums(calls):
    assert _under(plain_sum, calls) == _under(compensated_sum, calls)


@pytest.fixture(scope="module")
def orchards():
    return [generate_orchard(spec) for spec in ORCHARDS]


def _trip_pairs(inst, rng, count):
    pairs = []
    for _ in range(count):
        tasks = rng.sample(list(inst.task_ids), rng.randint(2, min(14, inst.n)))
        cut = rng.randint(1, len(tasks) - 1)
        pairs.append((tasks[:cut], tasks[cut:]))
    return pairs


def test_selection_probabilities():
    rng = random.Random(0)
    calls = []
    for _ in range(2000):
        width = rng.randint(1, 10)
        counts = tuple(rng.choice([0, 0, 1, 2, rng.randint(0, 40)]) for _ in range(width))
        calls.append((evolution.selection_probabilities, counts, 1 / rng.randint(2, 20)))
    _same_under_both_sums(calls)


def _tenths_circle(n: int = 30) -> Instance:
    """Tasks on a circle round (10, 10), so the sweep keeps their order, with
    yields in tenths, whose sums round and often make two cuts near-equal."""
    rng = random.Random(0)
    coords = [(0.0, 0.0)] + [(10 + math.cos(2 * math.pi * i / n), 10 + math.sin(2 * math.pi * i / n))
                             for i in range(n)]
    yields = [0.0] + [rng.choice([0.1, 0.2, 0.3, 0.6, 0.7]) for _ in range(n)]
    return Instance(tuple(coords), tuple(yields), 2.0, 1.0)


def test_recombine(orchards):
    rng = random.Random(1)
    calls = [(clsm.recombine, a, b, inst)
             for inst in [*orchards, _tenths_circle()] for a, b in _trip_pairs(inst, rng, 3000)]
    _same_under_both_sums(calls)


def test_centroid(orchards):
    rng = random.Random(2)
    calls = [(clsm._centroid, [inst.coords[t] for t in a + b])
             for inst in orchards for a, b in _trip_pairs(inst, rng, 700)]
    _same_under_both_sums(calls)


def test_makespan_assign(orchards):
    """Trip energies of random splits, on 2 to 8 robots, at bounds from
    just above the mean robot load (decided by the sum, L2 or the search)
    to a loose one."""
    rng = random.Random(3)
    calls = []
    for inst in orchards[:2]:
        for _ in range(60):
            perm = list(inst.task_ids)
            rng.shuffle(perm)
            energies = _resplit([perm], inst)[0][1][: rng.randint(3, 20)]
            m = rng.randint(2, 8)
            for slack in (0.999, 1.0, 1.001, 1.01, 1.05, 1.3):
                calls.append((scheduler.makespan_assign, energies, m, slack * math.fsum(energies) / m))
    _same_under_both_sums(calls)


def test_instance_stats(orchards):
    calls = [(instances.instance_stats, inst) for inst in orchards]
    calls += [(instances.instance_stats, generate_orchard(OrchardSpec(20, 100, 0.4, seed=s))) for s in range(5)]
    _same_under_both_sums(calls)


def _probe(python: str) -> dict[str, str]:
    proc = subprocess.run([python, str(PROBE)], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_probe_matches_the_recording_on_this_interpreter():
    if sys.version_info[:2] != (3, 11):
        pytest.skip("the digests were recorded under Python 3.11")
    assert _probe(sys.executable) == json.loads(RECORDED.read_text())


def test_random_and_math_agree_on_python_3_13():
    python = shutil.which("python3.13")
    if python is None:
        pytest.skip("no python3.13 on PATH")
    assert _probe(python) == json.loads(RECORDED.read_text())

