"""Resilient, durable assessment service.

The long-running front to the assessment engines: bounded admission with
typed load shedding, per-request deadlines with cooperative cancellation,
anytime (partial, honestly widened) results, health/readiness probes and
graceful drain — plus durability: a write-ahead request journal with
crash recovery and idempotent retries backed by a durable result store
(enable with ``journal_dir`` / ``repro serve --journal-dir``). Run it
with ``python -m repro serve`` or embed it via :class:`FleetSupervisor`:
a supervisor process that owns admission and the journal, and forked
shard worker processes that execute (``repro serve --workers N``,
:mod:`repro.service.fleet`).
"""

from repro.service.client import HttpServiceClient
from repro.service.fleet import FleetSupervisor, ServiceConfig
from repro.service.health import HealthMonitor
from repro.service.journal import JournalState, RequestJournal
from repro.service.redeploy import (
    DegradationEvent,
    RecoveryReport,
    RedeployDecision,
    RedeploymentController,
)
from repro.service.requests import (
    AssessRequest,
    SearchRequest,
    ServiceResponse,
    Ticket,
)
from repro.service.store import ResultStore
from repro.util.cancel import CancellationToken

__all__ = [
    "AssessRequest",
    "CancellationToken",
    "DegradationEvent",
    "FleetSupervisor",
    "HealthMonitor",
    "HttpServiceClient",
    "JournalState",
    "RecoveryReport",
    "RedeployDecision",
    "RedeploymentController",
    "RequestJournal",
    "ResultStore",
    "SearchRequest",
    "ServiceConfig",
    "ServiceResponse",
    "Ticket",
]
