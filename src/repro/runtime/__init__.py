"""Parallel execution engine for multi-round assessments."""

from repro.runtime.mapreduce import ParallelAssessor

__all__ = [
    "ParallelAssessor",
]
