"""Shared utilities: error types, deterministic RNG management, timing."""

from repro.util.errors import (
    ConfigurationError,
    DegradedResult,
    ReproError,
    TopologyError,
    UnsatisfiableRequirements,
    WorkerFailure,
)
from repro.util.rng import make_rng
from repro.util.timing import Deadline, Stopwatch

__all__ = [
    "ConfigurationError",
    "Deadline",
    "DegradedResult",
    "ReproError",
    "Stopwatch",
    "TopologyError",
    "UnsatisfiableRequirements",
    "WorkerFailure",
    "make_rng",
]
