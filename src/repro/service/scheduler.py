"""The assessment service core: admit → schedule → execute → respond.

One :class:`AssessmentService` owns a data center (topology + §4.1
inventory), a bounded :class:`~repro.service.queue.AdmissionQueue`, a
small pool of scheduler worker threads, and — optionally — a shared
:class:`~repro.runtime.mapreduce.ParallelAssessor` guarded by a
:class:`~repro.service.breaker.CircuitBreaker`.

Request lifecycle:

1. **Admit** — the request is validated (field-level
   :class:`~repro.util.errors.ValidationError`), gets a cancellation
   token (child of the service's root token, with the per-request
   deadline), and enters the bounded queue or is shed with a typed
   :class:`~repro.util.errors.AdmissionRejected`.
2. **Schedule** — a worker thread pops the ticket, records queue wait,
   and routes it: the parallel backend when it is configured, idle and
   the breaker allows; otherwise the chunked sequential path.
3. **Execute** — the cancellation token is threaded all the way down
   (sampler chunks, portion waits, annealing moves). A deadline firing
   mid-run does not raise: the service returns the **anytime result**
   built from the work completed so far, with honestly widened error
   bounds and ``status="degraded"``.
4. **Respond** — the ticket's future resolves with a
   :class:`~repro.service.requests.ServiceResponse`; per-request
   structured logs and latency/queue metrics are recorded.

Shutdown is graceful: ``drain()`` rejects the queued backlog with a
typed response, lets in-flight requests finish (cancelling them into
anytime results only if the drain timeout passes), then stops the
workers and tears down the pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, replace

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, RuntimeMetadata
from repro.service.breaker import CircuitBreaker
from repro.service.executor import chunked_assess, execute_search, request_seed
from repro.service.health import DRAINING, SERVING, STOPPED, HealthMonitor
from repro.service.heartbeat import HeartbeatTracker
from repro.service.journal import JournalState, RequestJournal
from repro.service.queue import AdmissionQueue
from repro.service.requests import (
    AssessRequest,
    SearchRequest,
    ServiceResponse,
    Ticket,
)
from repro.service.store import ResultStore
from repro.util.cancel import CancellationToken
from repro.util.errors import (
    AdmissionRejected,
    CircuitOpen,
    OperationCancelled,
    ReproError,
    ValidationError,
)
from repro.util.metrics import MetricsRegistry
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch

logger = logging.getLogger("repro.service")

_TICKET_IDS = itertools.count(1)


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the long-running assessment service.

    Attributes:
        scale: Preset data-center scale (Table 2) when no topology is
            injected.
        seed: Deterministic seed for topology, inventory and assessment
            randomness.
        rounds: Default sampling rounds per assess request.
        queue_capacity: Bounded admission-queue size; submits beyond it
            are shed with :class:`AdmissionRejected`.
        scheduler_workers: Worker threads executing requests.
        parallel_workers: Worker *processes* for the shared parallel
            backend; 0 disables it (chunked sequential only).
        chunks: Anytime granularity of the sequential path — rounds are
            assessed in at most this many pieces with a cancellation
            check between pieces; fewer when a piece would fall under
            :data:`repro.service.executor.MIN_CHUNK_ROUNDS` rounds (a
            default 10 000-round request is one piece).
        default_deadline_seconds: Deadline applied when a request does
            not set one (``None`` = unbounded).
        breaker_failure_threshold / breaker_recovery_seconds /
        breaker_half_open_probes: Circuit-breaker tuning for the
            parallel backend.
        portion_timeout_seconds: Per-portion hang deadline inside the
            parallel backend.
        drain_timeout_seconds: How long ``drain()`` waits for in-flight
            requests before cancelling them into anytime results.
        journal_dir: Directory for the write-ahead request journal and
            the durable result store. ``None`` (the default) disables
            durability: no journaling, no crash recovery, no idempotent
            replay — requests still get per-request deterministic seeds.
        journal_segment_bytes: Rotation threshold for journal segments;
            sealed segments are the unit of journal GC.
        result_ttl_seconds: How long completed results (and the sealed
            journal segments remembering them) are retained for
            idempotent replay. Default one week.
        fleet_workers: Shard worker *processes* for the supervised fleet
            (:mod:`repro.service.fleet`); 0 keeps the single-process
            thread scheduler. Only ``repro serve --workers N`` and the
            fleet supervisor read this.
        heartbeat_interval_seconds / heartbeat_misses: Fleet failure
            detection — a worker that misses ``heartbeat_misses``
            consecutive intervals (or whose process exits) is declared
            dead and failed over.
        respawn_backoff_seconds / respawn_backoff_cap_seconds: Base and
            cap of the exponential backoff between respawns of a dead
            shard worker.
        quarantine_restarts / quarantine_window_seconds: A worker
            restarted more than ``quarantine_restarts`` times within the
            window is quarantined — no further respawns; its key range
            is served by the surviving shards.
    """

    scale: str = "tiny"
    seed: int = 1
    rounds: int = 10_000
    queue_capacity: int = 8
    scheduler_workers: int = 2
    parallel_workers: int = 0
    chunks: int = 8
    default_deadline_seconds: float | None = None
    breaker_failure_threshold: int = 3
    breaker_recovery_seconds: float = 5.0
    breaker_half_open_probes: int = 1
    portion_timeout_seconds: float | None = 30.0
    drain_timeout_seconds: float = 30.0
    journal_dir: str | None = None
    journal_segment_bytes: int = 1 << 20
    result_ttl_seconds: float = 7 * 24 * 3600.0
    fleet_workers: int = 0
    heartbeat_interval_seconds: float = 0.25
    heartbeat_misses: int = 8
    respawn_backoff_seconds: float = 0.25
    respawn_backoff_cap_seconds: float = 5.0
    quarantine_restarts: int = 5
    quarantine_window_seconds: float = 30.0


class AssessmentService:
    """A long-running, overload-safe front to the assessment engines."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        topology=None,
        dependency_model=None,
        clock=time.monotonic,
    ):
        self.config = config or ServiceConfig()
        self._clock = clock
        if topology is None:
            from repro.faults.inventory import build_paper_inventory
            from repro.topology.presets import paper_topology

            topology = paper_topology(self.config.scale, seed=self.config.seed)
            dependency_model = build_paper_inventory(
                topology, seed=self.config.seed + 1
            )
        self.topology = topology
        self.dependency_model = dependency_model
        self.metrics = MetricsRegistry()
        self.queue = AdmissionQueue(self.config.queue_capacity, self.metrics)
        self.health = HealthMonitor(clock)
        self.heartbeats = HeartbeatTracker(clock=clock)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_seconds=self.config.breaker_recovery_seconds,
            half_open_probes=self.config.breaker_half_open_probes,
            clock=clock,
            metrics=self.metrics,
        )
        self._root_token = CancellationToken(clock=clock)
        self._tickets: dict[str, Ticket] = {}
        self._tickets_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._started = False
        self._parallel = None
        self._parallel_lock = threading.Lock()
        # Durability: write-ahead journal + result store + idempotency map.
        # ``_keys`` maps idempotency_key -> ("inflight", fingerprint, Ticket)
        # while a submission is live, or ("completed", fingerprint, status)
        # once its response is durably stored.
        self._journal: RequestJournal | None = None
        self._store: ResultStore | None = None
        self._keys: dict[str, tuple[str, str | None, object]] = {}
        self._keys_lock = threading.Lock()
        self._recovered_tickets: list[Ticket] = []
        self._id_offset = 0
        if self.config.journal_dir is not None:
            root = os.fspath(self.config.journal_dir)
            self._journal = RequestJournal(
                root, segment_bytes=self.config.journal_segment_bytes
            )
            self._store = ResultStore(os.path.join(root, "results"))
            state = self._journal.replay()
            # New ids start past every journaled id, so a restart can
            # never hand out an id the journal already knows.
            self._id_offset = state.max_request_number
            for key, (fingerprint, status) in state.keys.items():
                self._keys[key] = ("completed", fingerprint, status)
            self._recovered_tickets = self._rebuild_pending(state)
        if self.config.parallel_workers > 0:
            from repro.runtime.mapreduce import ParallelAssessor, RetryPolicy

            self._parallel = ParallelAssessor.from_config(
                self.topology,
                self.dependency_model,
                AssessmentConfig(
                    mode="parallel",
                    rounds=self.config.rounds,
                    workers=self.config.parallel_workers,
                    rng=self.config.seed + 2,
                    partial_ok=True,
                    retry_policy=RetryPolicy(
                        timeout_seconds=self.config.portion_timeout_seconds
                    ),
                ),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "AssessmentService":
        if self._started:
            return self
        self._started = True
        if self._recovered_tickets:
            # Journaled-but-unfinished work from a previous process goes
            # back to the front of the queue (capacity-exempt: it was
            # already admitted once) before any worker starts.
            with self._tickets_lock:
                for ticket in self._recovered_tickets:
                    self._tickets[ticket.id] = ticket
            self.queue.restore(self._recovered_tickets)
            self.metrics.incr("service/recovered", len(self._recovered_tickets))
            logger.info(
                "recovery: re-enqueued %d journaled request(s)",
                len(self._recovered_tickets),
            )
            self._recovered_tickets = []
        if self._journal is not None:
            state = self._journal.replay()
            self._journal.gc(self.config.result_ttl_seconds, state.terminal_ids)
        if self._store is not None:
            self._store.compact(self.config.result_ttl_seconds)
        for index in range(self.config.scheduler_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)
        self.health.transition(SERVING)
        logger.info(
            "service serving scale=%s workers=%d queue=%d parallel=%d",
            self.config.scale,
            self.config.scheduler_workers,
            self.config.queue_capacity,
            self.config.parallel_workers,
        )
        return self

    def drain(self, timeout_seconds: float | None = None) -> None:
        """Graceful shutdown: queued rejected, in-flight allowed to finish.

        After ``timeout_seconds`` (default from config) the still-running
        requests are *cancelled*, which turns them into anytime results —
        they resolve normally, just degraded.
        """
        timeout = (
            self.config.drain_timeout_seconds
            if timeout_seconds is None
            else timeout_seconds
        )
        self.health.transition(DRAINING)
        stranded = self.queue.drain()
        for ticket in stranded:
            ticket.reject(
                ServiceResponse(
                    request_id=ticket.id,
                    status="rejected",
                    error={
                        "error": "admission",
                        "reason": "draining",
                        "message": "service is draining; request was not started",
                    },
                )
            )
            # The journal must agree the request ended unstarted, or the
            # next process would re-execute work the client saw rejected.
            if self._journal is not None:
                self._journal.cancelled(ticket.id, reason="draining", started=False)
            self._forget_inflight_key(ticket)
            self._log_response(ticket, "rejected", 0.0, 0.0, None)
        deadline = self._clock() + timeout
        for ticket in self._open_tickets():
            remaining = max(0.0, deadline - self._clock())
            try:
                ticket.future.result(timeout=remaining)
            except Exception:
                pass
        # Whatever is still running gets cancelled into an anytime result.
        self._root_token.cancel("service draining")
        for ticket in self._open_tickets():
            try:
                ticket.future.result(timeout=5.0)
            except Exception:
                pass
        self.close()

    def close(self) -> None:
        """Hard stop: cancel everything, stop workers, free the pool."""
        self._root_token.cancel("service stopped")
        self.queue.stop()
        for thread in self._workers:
            thread.join(timeout=5.0)
        self._workers.clear()
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None
        if self._journal is not None:
            self._journal.close()
        self.health.transition(STOPPED)

    def __enter__(self) -> "AssessmentService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open_tickets(self) -> list[Ticket]:
        with self._tickets_lock:
            return [t for t in self._tickets.values() if not t.future.done()]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, kind: str, request) -> Ticket:
        """Validate, ticket, journal and enqueue a request.

        Raises :class:`ValidationError` for malformed requests and
        :class:`AdmissionRejected` under overload or drain — both *before*
        any assessment work is spent. With a journal configured, a
        request carrying an already-known idempotency key is never
        executed twice: it joins the live ticket (still queued/running)
        or resolves immediately with the stored response (completed).
        """
        if kind not in ("assess", "search"):
            raise ValidationError([("kind", f"unknown request kind {kind!r}")])
        request.validate(self.topology)
        key = request.idempotency_key
        fingerprint = self._fingerprint(request) if key is not None else None
        if key is not None and self._journal is not None:
            existing = self._resolve_key(kind, request, key, fingerprint)
            if existing is not None:
                return existing
        deadline = request.deadline_seconds
        if deadline is None:
            deadline = self.config.default_deadline_seconds
        token = self._root_token.child(deadline_seconds=deadline)
        ticket = Ticket(
            id=self._next_id(),
            kind=kind,
            request=request,
            token=token,
            enqueued_at=self._clock(),
        )
        if key is not None and self._journal is not None:
            with self._keys_lock:
                if key in self._keys:
                    # Lost a submit race for this key; join the winner.
                    existing = self._resolve_key_locked(
                        kind, request, key, fingerprint
                    )
                    if existing is not None:
                        return existing
                self._keys[key] = ("inflight", fingerprint, ticket)
        with self._tickets_lock:
            self._tickets[ticket.id] = ticket
        if self._journal is not None:
            # Write-ahead: the admission is durable before the ticket can
            # reach a worker, so a crash at any later point replays it.
            self._journal.accepted(
                ticket.id, kind, request.to_dict(), key, fingerprint
            )
        try:
            self.queue.submit(ticket)
        except AdmissionRejected:
            with self._tickets_lock:
                self._tickets.pop(ticket.id, None)
            self._forget_inflight_key(ticket)
            if self._journal is not None:
                self._journal.cancelled(ticket.id, reason="shed", started=False)
            self.metrics.incr("service/rejected")
            raise
        self.metrics.incr("service/requests")
        logger.info("request %s admitted kind=%s", ticket.id, kind)
        return ticket

    def _next_id(self) -> str:
        return f"req-{self._id_offset + next(_TICKET_IDS)}"

    @staticmethod
    def _fingerprint(request) -> str:
        """Canonical digest of the request payload, key excluded.

        Two submissions under one idempotency key must describe the same
        work; the fingerprint is how a reuse-with-different-payload is
        caught instead of silently answered with the other request's
        result.
        """
        document = dict(request.to_dict())
        document.pop("idempotency_key", None)
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _request_seed(self, ticket: Ticket) -> int:
        """Deterministic per-request stream seed (see :func:`request_seed`)."""
        handle = ticket.idempotency_key or ticket.id
        return request_seed(self.config.seed, ticket.kind, handle)

    def _resolve_key(
        self, kind: str, request, key: str, fingerprint: str
    ) -> Ticket | None:
        """Route a known idempotency key; ``None`` means proceed fresh.

        Raises :class:`ValidationError` when the key was used with a
        different payload. An inflight key returns the live ticket; a
        completed key returns a pre-resolved ticket replaying the stored
        response. A completed key whose stored result has aged out (or
        was unreadable) is forgotten and re-executed.
        """
        with self._keys_lock:
            return self._resolve_key_locked(kind, request, key, fingerprint)

    def _resolve_key_locked(
        self, kind: str, request, key: str, fingerprint: str
    ) -> Ticket | None:
        entry = self._keys.get(key)
        if entry is None:
            return None
        state, known_fingerprint, payload = entry
        if known_fingerprint != fingerprint:
            raise ValidationError(
                [
                    (
                        "idempotency_key",
                        f"key {key!r} was already used with a different "
                        "request payload",
                    )
                ]
            )
        if state == "inflight":
            self.metrics.incr("service/idempotent_joins")
            logger.info(
                "request with key %s joined inflight %s", key, payload.id
            )
            return payload
        stored = self._store.get(key) if self._store is not None else None
        if stored is None:
            # Result compacted away or unreadable: honest fallback is
            # re-execution (deterministic under the key anyway).
            del self._keys[key]
            return None
        response = replace(ServiceResponse.from_dict(stored), replayed=True)
        ticket = Ticket(
            id=response.request_id or self._next_id(),
            kind=kind,
            request=request,
            token=CancellationToken(clock=self._clock),
            enqueued_at=self._clock(),
        )
        ticket.future.set_result(response)
        self.metrics.incr("service/idempotent_replays")
        logger.info(
            "request with key %s replayed stored %s (status=%s)",
            key,
            response.request_id,
            response.status,
        )
        return ticket

    def _forget_inflight_key(self, ticket: Ticket) -> None:
        """Drop the key->ticket binding when ``ticket`` ended unstored."""
        key = ticket.idempotency_key
        if key is None:
            return
        with self._keys_lock:
            entry = self._keys.get(key)
            if entry is not None and entry[0] == "inflight" and entry[2] is ticket:
                del self._keys[key]

    def _rebuild_pending(self, state: JournalState) -> list[Ticket]:
        """Turn journal replay state into re-executable tickets.

        Recovered tickets keep their journaled ids (the seed derivation
        and any client polling depend on that) and are flagged so the
        result's runtime metadata discloses the re-execution. A journaled
        request that no longer validates (topology changed under it) is
        journaled cancelled rather than crashing the service.
        """
        tickets: list[Ticket] = []
        for entry in state.pending:
            try:
                if entry.kind == "search":
                    request = SearchRequest.from_dict(entry.request)
                else:
                    request = AssessRequest.from_dict(entry.request)
                request.validate(self.topology)
            except ValidationError as exc:
                logger.warning(
                    "recovery: dropping journaled request %s (%s)",
                    entry.request_id,
                    exc,
                )
                self._journal.cancelled(
                    entry.request_id, reason="unrecoverable", started=entry.started
                )
                continue
            deadline = request.deadline_seconds
            if deadline is None:
                deadline = self.config.default_deadline_seconds
            ticket = Ticket(
                id=entry.request_id,
                kind=entry.kind,
                request=request,
                token=self._root_token.child(deadline_seconds=deadline),
                enqueued_at=self._clock(),
                recovered=True,
            )
            tickets.append(ticket)
            if entry.idempotency_key is not None:
                self._keys[entry.idempotency_key] = (
                    "inflight",
                    entry.fingerprint,
                    ticket,
                )
        return tickets

    def assess(
        self, request: AssessRequest, timeout: float | None = None
    ) -> ServiceResponse:
        """Submit an assess request and wait for its response."""
        return self.submit("assess", request).future.result(timeout=timeout)

    def search(
        self, request: SearchRequest, timeout: float | None = None
    ) -> ServiceResponse:
        """Submit a search request and wait for its response."""
        return self.submit("search", request).future.result(timeout=timeout)

    def cancel(self, request_id: str, reason: str = "cancelled by client") -> bool:
        """Fire a request's token; returns False for unknown ids."""
        with self._tickets_lock:
            ticket = self._tickets.get(request_id)
        if ticket is None:
            return False
        ticket.token.cancel(reason)
        self.metrics.incr("service/cancel_requests")
        return True

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        name = f"worker-{index}"
        assessor = ReliabilityAssessor.from_config(
            self.topology,
            self.dependency_model,
            AssessmentConfig(
                rounds=self.config.rounds,
                rng=self.config.seed + 100 + index,
            ),
        )
        self.heartbeats.beat(name)
        while True:
            ticket = self.queue.pop(timeout=0.1)
            # Thread workers beat between requests; during a long
            # execution the age grows, which status() reports honestly
            # (an operator sees a busy worker, not a dead one — liveness
            # of *threads* is the process's own liveness).
            self.heartbeats.beat(name, busy=ticket is not None)
            if ticket is None:
                if self._root_token.cancelled:
                    return
                continue
            try:
                self._execute(ticket, assessor, index)
            except BaseException as exc:  # never kill a worker thread
                logger.exception("request %s worker crash", ticket.id)
                ticket.reject(
                    ServiceResponse(
                        request_id=ticket.id,
                        status="error",
                        error={"error": "internal", "message": str(exc)},
                    )
                )
            finally:
                self.heartbeats.beat(name, busy=False)

    def _execute(self, ticket: Ticket, assessor, worker_index: int) -> None:
        queue_seconds = max(0.0, self._clock() - ticket.enqueued_at)
        self.metrics.observe("service/queue_wait", queue_seconds)
        watch = Stopwatch()
        backend = None
        execution_started = False
        try:
            if ticket.token.cancelled:
                response = ServiceResponse(
                    request_id=ticket.id,
                    status="cancelled",
                    error={
                        "error": "cancelled",
                        "reason": ticket.token.reason,
                        "message": "cancelled before execution started",
                    },
                    queue_seconds=queue_seconds,
                )
            else:
                if self._journal is not None:
                    self._journal.started(ticket.id)
                execution_started = True
                if ticket.kind == "assess":
                    response, backend = self._run_assess(
                        ticket, assessor, queue_seconds, watch
                    )
                else:
                    response, backend = self._run_search(
                        ticket, queue_seconds, watch, worker_index
                    )
        except OperationCancelled as exc:
            response = ServiceResponse(
                request_id=ticket.id,
                status="cancelled",
                error={
                    "error": "cancelled",
                    "reason": exc.reason,
                    "message": str(exc),
                },
                elapsed_seconds=watch.elapsed(),
                queue_seconds=queue_seconds,
            )
        except ReproError as exc:
            response = ServiceResponse(
                request_id=ticket.id,
                status="error",
                error={"error": type(exc).__name__, "message": str(exc)},
                elapsed_seconds=watch.elapsed(),
                queue_seconds=queue_seconds,
            )
        self._record_terminal(ticket, response, execution_started)
        self.metrics.observe("service/latency", response.elapsed_seconds)
        self.metrics.incr(f"service/status/{response.status}")
        if not ticket.future.done():
            ticket.future.set_result(response)
        with self._tickets_lock:
            self._tickets.pop(ticket.id, None)
        self._log_response(
            ticket, response.status, response.elapsed_seconds, queue_seconds, backend
        )

    def _record_terminal(
        self, ticket: Ticket, response: ServiceResponse, started: bool
    ) -> None:
        """Make the request's outcome durable before the client sees it.

        ``ok``/``degraded``/``error`` responses are stored (when keyed)
        and journaled ``completed`` — a resubmission replays them.
        ``cancelled`` is journaled without a stored result — a
        resubmission re-executes, which is what a client cancelling and
        retrying means. Journal trouble never blocks the response: the
        client still gets its answer, durability is logged as lost.
        """
        if self._journal is None:
            return
        key = ticket.idempotency_key
        try:
            if response.status in ("ok", "degraded", "error"):
                if key is not None and self._store is not None:
                    self._store.put(key, response.to_dict())
                self._journal.completed(ticket.id, response.status)
                if key is not None:
                    with self._keys_lock:
                        self._keys[key] = (
                            "completed",
                            self._fingerprint(ticket.request),
                            response.status,
                        )
            else:
                reason = (response.error or {}).get("reason", "cancelled")
                self._journal.cancelled(ticket.id, reason=reason, started=started)
                self._forget_inflight_key(ticket)
        except Exception:
            logger.exception(
                "request %s: failed to journal terminal state", ticket.id
            )

    @staticmethod
    def _log_response(ticket, status, elapsed, queue_seconds, backend) -> None:
        logger.info(
            "request %s kind=%s status=%s backend=%s elapsed=%.3fs queue=%.3fs",
            ticket.id,
            ticket.kind,
            status,
            backend or "-",
            elapsed,
            queue_seconds,
        )

    # ------------------------------------------------------------------
    # Assess execution
    # ------------------------------------------------------------------

    def _run_assess(
        self, ticket: Ticket, assessor, queue_seconds: float, watch: Stopwatch
    ) -> tuple[ServiceResponse, str]:
        request: AssessRequest = ticket.request
        structure = ApplicationStructure.k_of_n(request.k, len(request.hosts))
        plan = DeploymentPlan.single_component(
            list(request.hosts), structure.components[0].name
        )
        rounds = request.rounds or self.config.rounds
        seed = self._request_seed(ticket)

        result = None
        backend = "chunked-sequential"
        if self._parallel is not None and self._parallel_lock.acquire(blocking=False):
            try:
                self.breaker.before_call()
            except CircuitOpen:
                self._parallel_lock.release()
                self.metrics.incr("service/breaker_fallbacks")
            else:
                try:
                    # Reseed under the backend lock: portion seeds become a
                    # pure function of the request, not of execution order.
                    self._parallel.rng = make_rng(seed)
                    result = self._parallel.assess(
                        plan, structure, rounds=rounds, cancel=ticket.token
                    )
                except OperationCancelled:
                    # Not a backend fault: the caller's deadline fired
                    # before any portion finished.
                    raise
                except ReproError as exc:
                    self.breaker.record_failure()
                    logger.warning(
                        "request %s parallel backend failed (%s); "
                        "falling back to chunked sequential",
                        ticket.id,
                        exc,
                    )
                    result = None
                else:
                    if self._runtime_sick(result.runtime):
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                    backend = "parallel"
                finally:
                    self._parallel_lock.release()
        if result is None and backend != "parallel":
            assessor.rng = make_rng(seed)
            result = self._chunked_assess(
                assessor, plan, structure, rounds, ticket.token
            )
            backend = "chunked-sequential"

        if ticket.recovered and result.runtime is not None:
            result = replace(
                result, runtime=replace(result.runtime, recovered=True)
            )
        status = (
            "degraded"
            if result.degraded or (result.runtime and result.runtime.cancelled)
            else "ok"
        )
        response = ServiceResponse(
            request_id=ticket.id,
            status=status,
            result=serialization.assessment_to_dict(result),
            elapsed_seconds=watch.elapsed(),
            queue_seconds=queue_seconds,
            backend=backend,
        )
        return response, backend

    @staticmethod
    def _runtime_sick(runtime: RuntimeMetadata | None) -> bool:
        """Did the substrate misbehave, even if the result recovered?

        Cancellation is the *caller's* doing and never counts; crashes,
        hangs, worker errors and pool restarts do — a backend that keeps
        recovering inline is a backend about to fail for real.
        """
        if runtime is None:
            return False
        substrate_failures = [
            f for f in runtime.failures if f.kind != "cancelled"
        ]
        if substrate_failures:
            return True
        if runtime.recovered_inline > 0:
            return True
        return runtime.pool_restarts > 0 and not runtime.cancelled

    def _chunked_assess(
        self,
        assessor,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int,
        token: CancellationToken,
    ) -> AssessmentResult:
        """Sequential anytime execution (shared with the fleet workers).

        The fallback (and default) backend; the single implementation
        lives in :func:`repro.service.executor.chunked_assess` so thread
        workers and shard worker processes stay bit-identical.
        """
        return chunked_assess(
            assessor, plan, structure, rounds, self.config.chunks, token
        )

    # ------------------------------------------------------------------
    # Search execution
    # ------------------------------------------------------------------

    def _run_search(
        self, ticket: Ticket, queue_seconds: float, watch: Stopwatch, worker_index: int
    ) -> tuple[ServiceResponse, str]:
        response = execute_search(
            self.topology,
            self.dependency_model,
            ticket.request,
            request_id=ticket.id,
            seed=self._request_seed(ticket),
            default_rounds=self.config.rounds,
            token=ticket.token,
            queue_seconds=queue_seconds,
            recovered=ticket.recovered,
            watch=watch,
        )
        return response, "search"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """JSON-ready health + queue + breaker + per-worker snapshot."""
        return {
            "health": self.health.snapshot(),
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.capacity,
                "draining": self.queue.draining,
            },
            "breaker": self.breaker.snapshot(),
            "inflight": len(self._open_tickets()),
            "workers": self.heartbeats.snapshot(),
            "durability": {
                "journaling": self._journal is not None,
                "journal_dir": self.config.journal_dir,
                "known_keys": len(self._keys),
            },
            "drill": self._drill_verdict(),
        }

    def _drill_verdict(self) -> dict | None:
        """The last ``repro drill`` verdict written next to this journal
        (``None`` when no campaign has run against this state dir)."""
        if not self.config.journal_dir:
            return None
        from repro.drill.engine import load_verdict

        return load_verdict(self.config.journal_dir)
