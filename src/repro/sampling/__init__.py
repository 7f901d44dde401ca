"""Failure-state samplers (Monte-Carlo; dagger, extended and common-random
dagger, one routine) and reliability statistics."""

from repro.sampling.base import Sampler
from repro.sampling.dagger import (
    CommonRandomDaggerSampler,
    DaggerSampler,
    ExtendedDaggerSampler,
    dagger_cycle_length,
    dagger_draw_count,
)
from repro.sampling.montecarlo import MonteCarloSampler
from repro.sampling.statistics import (
    ReliabilityEstimate,
    estimate_from_results,
    rounds_for_target_ci,
)

__all__ = [
    "CommonRandomDaggerSampler",
    "DaggerSampler",
    "ExtendedDaggerSampler",
    "MonteCarloSampler",
    "ReliabilityEstimate",
    "Sampler",
    "dagger_cycle_length",
    "dagger_draw_count",
    "estimate_from_results",
    "rounds_for_target_ci",
]
