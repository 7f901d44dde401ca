"""Shared utilities: error types, deterministic RNG management, timing."""

from repro.util.errors import (
    ConfigurationError,
    ReproError,
    TopologyError,
    UnsatisfiableRequirements,
)
from repro.util.rng import make_rng
from repro.util.timing import Deadline, Stopwatch

__all__ = [
    "ConfigurationError",
    "Deadline",
    "ReproError",
    "Stopwatch",
    "TopologyError",
    "UnsatisfiableRequirements",
    "make_rng",
]
