"""Multi-trip picking-robot task scheduling: solver library and benchmark CLI."""

from .core import (
    ConfigurationError,
    Evaluation,
    GiantSolution,
    Instance,
    RepresentationError,
    Trip,
    build_distance_matrix,
    decode_trips,
    evaluate,
    trip_energy,
)
from .evolution import RunResult, SolverConfig, run_aedga
from .instances import (
    InstanceStats,
    OrchardSpec,
    ParseError,
    emit_instance,
    generate_orchard,
    instance_stats,
    parse_instance,
)
from .scheduler import Framework, RepairStatus, Schedule, makespan_assign, repair, thresholds

__all__ = [
    "ConfigurationError",
    "Evaluation",
    "Framework",
    "GiantSolution",
    "Instance",
    "InstanceStats",
    "OrchardSpec",
    "ParseError",
    "RepairStatus",
    "RepresentationError",
    "RunResult",
    "Schedule",
    "SolverConfig",
    "Trip",
    "build_distance_matrix",
    "decode_trips",
    "emit_instance",
    "evaluate",
    "generate_orchard",
    "instance_stats",
    "makespan_assign",
    "parse_instance",
    "repair",
    "run_aedga",
    "thresholds",
    "trip_energy",
]
