"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library signals with a single ``except`` clause while
still distinguishing configuration mistakes from runtime conditions.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class ValidationError(ConfigurationError):
    """A request or config failed validation at an API boundary.

    Collects *every* field-level problem instead of dying on the first,
    so callers (and the service's error responses) can report the lot in
    one round trip. ``errors`` is a tuple of ``(field, message)`` pairs;
    subclassing :class:`ConfigurationError` keeps the existing
    ``except ConfigurationError`` call sites working.
    """

    def __init__(self, errors):
        self.errors = tuple(
            (str(field), str(message)) for field, message in errors
        )
        if not self.errors:
            raise ValueError("ValidationError needs at least one field error")
        summary = "; ".join(f"{field}: {message}" for field, message in self.errors)
        super().__init__(f"validation failed ({len(self.errors)} error(s)): {summary}")

    def fields(self) -> tuple:
        """The names of the offending fields, in report order."""
        return tuple(field for field, _ in self.errors)

    def as_dict(self) -> dict:
        """JSON-ready encoding for service error responses."""
        return {
            "error": "validation",
            "errors": [
                {"field": field, "message": message}
                for field, message in self.errors
            ],
        }


def check_positive_finite(name: str, value: float | None, errors: list) -> None:
    """A seconds field is absent or a finite number above zero. NaN and
    infinity (a JSON body or a ``float`` flag can carry them) compare as
    neither, and a NaN budget never runs out."""
    if value is not None and not (math.isfinite(value) and value > 0):
        errors.append((name, f"must be a positive finite number, got {value}"))


def check_count(name: str, value, least: int, errors: list) -> None:
    """A count field is an int (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not (isinstance(value, int) and value >= least):
        errors.append((name, f"must be an int >= {least}, got {value!r}"))


class OperationCancelled(ReproError):
    """Cooperative cancellation: a deadline passed or a client cancelled.

    Raised by the inner loops (sampling chunks, portion waits, annealing
    moves) when their :class:`~repro.util.cancel.CancellationToken` fires.
    Layers holding partial data catch it and degrade to an *anytime*
    result instead of propagating; it only escapes when there is nothing
    at all to report.
    """

    def __init__(self, message: str = "operation cancelled", reason: str | None = None):
        super().__init__(message)
        self.reason = reason or message


class AdmissionRejected(ReproError):
    """The assessment service shed this request at admission.

    The typed overload signal: the bounded queue was full (or the service
    was draining), so the request was rejected *fast* instead of queueing
    unboundedly. ``reason`` is ``"queue_full"``, ``"draining"`` or
    ``"stopped"``; ``queue_depth``/``capacity`` describe the queue at
    rejection time.
    """

    def __init__(self, message: str, reason: str = "queue_full",
                 queue_depth: int | None = None, capacity: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.queue_depth = queue_depth
        self.capacity = capacity


class TopologyError(ReproError):
    """A topology is malformed or a query referenced an unknown element."""


class UnsatisfiableRequirements(ReproError):
    """The developer's reliability requirements cannot possibly be met.

    Raised eagerly when requirements are contradictory (for example a
    deployment of N instances onto fewer than N distinct hosts), as opposed
    to a search that merely ran out of time without meeting them.
    """
