"""Instance files, synthetic orchard generation, and summary statistics.

The on-disk format is the EUC_2D TSPLIB/CVRP subset (NODE_COORD_SECTION,
DEMAND_SECTION, DEPOT_SECTION; node 1 is the depot). Distances are kept at
full precision: the classic nearest-integer rounding is deliberately NOT
applied, which is recorded in the instance provenance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import ConfigurationError, Instance, ordered_sum

ROBOT_WEIGHT_FRACTION = 3.0  # robot self-weight = capacity / 3


class ParseError(ValueError):
    """Instance file rejected; message names the offending line/field."""


@dataclass(frozen=True)
class OrchardSpec:
    """Generator knobs for a synthetic square orchard."""

    side_length: float
    tree_count: int
    maturity_rate: float
    yield_low: int = 40
    yield_high: int = 70
    capacity: float = 300.0
    seed: int = 0
    grid: bool = False  # plant on a regular lattice instead of uniform spread

    def __post_init__(self) -> None:
        if not 0 < self.maturity_rate <= 1:
            raise ConfigurationError("maturity_rate must be in (0, 1]")
        if self.yield_low > self.yield_high:
            raise ConfigurationError("yield_low must not exceed yield_high")
        if self.tree_count < 1:
            raise ConfigurationError("tree_count must be >= 1")
        if self.side_length <= 0:
            raise ConfigurationError("side_length must be positive")


@dataclass(frozen=True)
class InstanceStats:
    """Per-instance summary row: task count, depot-distance and yield spread."""

    n: int
    mean_depot_distance: float
    max_depot_distance: float
    mean_yield: float
    max_yield: float
    capacity: float


def instance_stats(inst: Instance) -> InstanceStats:
    if inst.n < 1:
        raise ConfigurationError("stats need at least one task")
    depot_d = [float(inst.dist[0, i]) for i in inst.task_ids]
    yields = [inst.yields[i] for i in inst.task_ids]
    return InstanceStats(
        n=inst.n,
        mean_depot_distance=ordered_sum(depot_d) / len(depot_d),
        max_depot_distance=max(depot_d),
        mean_yield=ordered_sum(yields) / len(yields),
        max_yield=max(yields),
        capacity=inst.capacity,
    )


_GENERATION_RETRIES = 64


def generate_orchard(spec: OrchardSpec) -> Instance:
    """Place trees in the square, keep each ripe tree as a task with an
    integer yield in [yield_low, yield_high], and put the depot uniformly on
    the boundary. Fully determined by the seed."""
    rng = random.Random(spec.seed)
    for _ in range(_GENERATION_RETRIES):
        positions = _tree_positions(spec, rng)
        ripe = [pos for pos in positions if rng.random() < spec.maturity_rate]
        if not ripe:
            continue
        yields = [float(rng.randint(spec.yield_low, spec.yield_high)) for _ in ripe]
        depot = _boundary_point(spec.side_length, rng)
        return Instance(
            coords=(depot, *ripe),
            yields=(0.0, *yields),
            capacity=spec.capacity,
            robot_weight=spec.capacity / ROBOT_WEIGHT_FRACTION,
            name=_spec_name(spec),
            provenance=f"generated: {_spec_comment(spec)}",
        )
    raise ConfigurationError(
        f"no ripe tree after {_GENERATION_RETRIES} draws (rate={spec.maturity_rate})"
    )


def _tree_positions(spec: OrchardSpec, rng: random.Random) -> list[tuple[float, float]]:
    side = spec.side_length
    if not spec.grid:
        return [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(spec.tree_count)]
    per_row = math.ceil(math.sqrt(spec.tree_count))
    step = side / per_row
    pts = [
        (step / 2 + c * step, step / 2 + r * step)
        for r in range(per_row)
        for c in range(per_row)
    ]
    return pts[: spec.tree_count]


def _boundary_point(side: float, rng: random.Random) -> tuple[float, float]:
    edge = rng.randrange(4)
    at = rng.uniform(0, side)
    if edge == 0:
        return (at, 0.0)
    if edge == 1:
        return (side, at)
    if edge == 2:
        return (at, side)
    return (0.0, at)


def _spec_name(spec: OrchardSpec) -> str:
    return (
        f"orchard-s{spec.side_length:g}-t{spec.tree_count}"
        f"-m{spec.maturity_rate:g}-seed{spec.seed}"
    )


def _spec_comment(spec: OrchardSpec) -> str:
    return (
        f"side={spec.side_length:g} trees={spec.tree_count} maturity={spec.maturity_rate:g} "
        f"yields=[{spec.yield_low},{spec.yield_high}] capacity={spec.capacity:g} "
        f"seed={spec.seed} grid={spec.grid}"
    )


_REQUIRED_KEYS = ("NAME", "DIMENSION", "CAPACITY", "EDGE_WEIGHT_TYPE")


def parse_instance(text: str) -> Instance:
    """Parse the supported TSPLIB-CVRP subset into an Instance.

    Node 1 must be the depot with demand 0; the robot self-weight is derived
    as capacity / 3.
    """
    header: dict[str, str] = {}
    coords: dict[int, tuple[float, float]] = {}
    demands: dict[int, float] = {}
    depot_ids: list[int] = []
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "EOF":
            continue
        upper = line.upper()
        if upper.startswith(("NODE_COORD_SECTION", "DEMAND_SECTION", "DEPOT_SECTION")):
            section = upper.split()[0]
            continue
        if ":" in line and section is None:
            key, value = (part.strip() for part in line.split(":", 1))
            header[key.upper()] = value
            continue
        fields = line.split()
        if section == "NODE_COORD_SECTION":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'id x y', got {line!r}")
            node = _parse_int(fields[0], lineno, "node id")
            if node in coords:
                raise ParseError(f"line {lineno}: duplicate node id {node}")
            coords[node] = (
                _parse_float(fields[1], lineno, "x"),
                _parse_float(fields[2], lineno, "y"),
            )
        elif section == "DEMAND_SECTION":
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'id demand', got {line!r}")
            node = _parse_int(fields[0], lineno, "node id")
            if node in demands:
                raise ParseError(f"line {lineno}: duplicate demand for node {node}")
            demands[node] = _parse_float(fields[1], lineno, "demand")
        elif section == "DEPOT_SECTION":
            value = _parse_int(fields[0], lineno, "depot id")
            if value != -1:
                depot_ids.append(value)
        else:
            raise ParseError(f"line {lineno}: unexpected content outside sections: {line!r}")

    for key in _REQUIRED_KEYS:
        if key not in header:
            raise ParseError(f"missing header field {key}")
    if header["EDGE_WEIGHT_TYPE"].upper() != "EUC_2D":
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {header['EDGE_WEIGHT_TYPE']!r}")
    dimension = _parse_int(header["DIMENSION"], 0, "DIMENSION")
    capacity = _parse_float(header["CAPACITY"], 0, "CAPACITY")
    if not coords:
        raise ParseError("missing NODE_COORD_SECTION")
    if not demands:
        raise ParseError("missing DEMAND_SECTION")
    if depot_ids and depot_ids != [1]:
        raise ParseError(f"DEPOT_SECTION must name node 1, got {depot_ids}")

    expected = set(range(1, dimension + 1))
    if set(coords) != expected:
        raise ParseError(f"NODE_COORD_SECTION ids {sorted(coords)} do not match DIMENSION {dimension}")
    if set(demands) != expected:
        raise ParseError(f"DEMAND_SECTION ids {sorted(demands)} do not match DIMENSION {dimension}")
    if demands[1] != 0:
        raise ParseError("depot (node 1) must have demand 0")
    for node in range(2, dimension + 1):
        if demands[node] <= 0:
            raise ParseError(f"demand of node {node} must be positive")
        if demands[node] > capacity:
            raise ParseError(f"demand of node {node} exceeds capacity ({demands[node]} > {capacity})")

    ordered = [coords[i] for i in range(1, dimension + 1)]
    q = [0.0] + [demands[i] for i in range(2, dimension + 1)]
    return Instance(
        coords=tuple(ordered),
        yields=tuple(q),
        capacity=capacity,
        robot_weight=capacity / ROBOT_WEIGHT_FRACTION,
        name=header["NAME"],
        provenance="parsed: EUC_2D, full-precision distances (nearest-integer rounding not applied)",
    )


def emit_instance(inst: Instance) -> str:
    """Render an Instance back into the supported file subset."""
    lines = [f"NAME : {inst.name}"]
    if inst.provenance and inst.provenance.startswith("generated"):
        lines.append(f"COMMENT : {inst.provenance}")
    lines += [
        "TYPE : CVRP",
        f"DIMENSION : {inst.n + 1}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        f"CAPACITY : {_num(inst.capacity)}",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(inst.coords, start=1):
        lines.append(f"{i} {_num(x)} {_num(y)}")
    lines.append("DEMAND_SECTION")
    for i in range(1, inst.n + 2):
        demand = 0.0 if i == 1 else inst.yields[i - 1]
        lines.append(f"{i} {_num(demand)}")
    lines += ["DEPOT_SECTION", "1", "-1", "EOF"]
    return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _parse_int(raw: str, lineno: int, field: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad {field} {raw!r}") from exc


def _parse_float(raw: str, lineno: int, field: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad {field} {raw!r}") from exc
