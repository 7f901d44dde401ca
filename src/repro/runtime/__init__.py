"""Supervised parallel execution engine for multi-round assessments."""

from repro.runtime.mapreduce import ParallelAssessor, RetryPolicy

__all__ = [
    "ParallelAssessor",
    "RetryPolicy",
]
