"""Digests of the `random` and `math` results the solver relies on.

Prints one JSON object mapping each primitive to the SHA-256 of the repr of
its results on fixed seeds. It imports nothing outside the standard library,
so any Python 3 interpreter can run it:

    python3.13 tests/primitives_probe.py

`tests/test_python_sums.py` compares its output with digests recorded under
Python 3.11 in `tests/fixtures/primitives_py311.json`.
"""

import hashlib
import json
import math
import random


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def probe() -> dict[str, str]:
    points = random.Random(2024)
    xy = [(points.uniform(-100, 100), points.uniform(-100, 100)) for _ in range(2000)]
    pairs = list(zip(xy, xy[1:]))
    out = {"uniform": digest(xy)}
    rng = random.Random(7)
    out["random"] = digest([rng.random() for _ in range(2000)])
    out["randrange"] = digest([rng.randrange(n) for n in range(1, 2001)])
    out["randint"] = digest([rng.randint(0, n) for n in range(2000)])
    shuffled = []
    for size in range(1, 200):
        perm = list(range(size))
        rng.shuffle(perm)
        shuffled.append(perm)
    out["shuffle"] = digest(shuffled)
    out["dist"] = digest([math.dist(p, q) for p, q in pairs])
    out["hypot"] = digest([math.hypot(p[0] - q[0], p[1] - q[1]) for p, q in pairs])
    out["atan2"] = digest([math.atan2(p[1] - q[1], p[0] - q[0]) for p, q in pairs])
    out["sqrt"] = digest([math.sqrt(abs(x)) for x, _ in xy])
    out["fsum"] = digest([math.fsum(x * y for x, y in xy[i : i + 37]) for i in range(0, 2000, 37)])
    out["erfc"] = digest([math.erfc(x / 25) for x, _ in xy])
    return out


if __name__ == "__main__":
    print(json.dumps(probe(), indent=1, sort_keys=True))
