"""The in-process assessment service: thread workers around the lifecycle core.

Everything a request goes through — idempotent admission, typed load
shedding, journaling, dispatch, terminal recording, recovery, drain — is
:class:`~repro.service.lifecycle.RequestLifecycle`. This module holds
what sits around it:

* :class:`ServiceConfig` — every knob of the long-running service.
* :class:`ServiceFront` — the public surface shared by both deployment
  shapes (``submit``/``assess``/``search``/``cancel``/``status``/
  ``drain``/``close``): one lock around one core, events in, effects
  applied. The supervised fleet (:mod:`repro.service.fleet`) subclasses
  it with forked workers.
* :class:`AssessmentService` — the single-process shape: one slot whose
  ``scheduler_workers`` executors are threads, each running the shared
  :class:`~repro.service.executor.RequestExecutor` and every piece of
  its requests on itself. The shard fleet is the one shape that uses
  processes.

A deadline firing mid-run does not raise: the service returns the
**anytime result** built from the work completed so far, with honestly
widened error bounds and ``status="degraded"``. Shutdown is graceful:
``drain()`` rejects the queued backlog with a typed response, lets
in-flight requests finish (cancelling them into anytime results only if
the drain timeout passes), then stops the workers.
"""

from __future__ import annotations

import logging
import math
import queue
import threading
import time
from dataclasses import dataclass

from repro.service.executor import RequestExecutor
from repro.service.health import DRAINING, SERVING, STOPPED, HealthMonitor
from repro.service.lifecycle import Effect, RequestLifecycle, open_state
from repro.service.requests import (
    AssessRequest,
    SearchRequest,
    ServiceResponse,
    Ticket,
)
from repro.util.errors import ValidationError, check_count, check_positive_finite
from repro.util.metrics import MetricsRegistry

logger = logging.getLogger("repro.service")


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the long-running assessment service.

    Construction raises one :class:`ValidationError` naming every queue or
    worker count, round count, deadline, drain timeout, heartbeat setting
    and retention the service cannot run with, so each deployment shape
    and the CLI reject them in the same words. (A zero heartbeat interval
    or miss budget quarantines every fleet worker; a zero retention
    deletes every stored result at start; zero rounds kill every executor
    thread.)

    Attributes:
        scale: Preset data-center scale (Table 2) when no topology is
            injected.
        seed: Deterministic seed for topology, inventory and assessment
            randomness.
        rounds: Default sampling rounds per assess request.
        queue_capacity: Bounded admission-queue size; submits beyond it
            are shed with :class:`AdmissionRejected`.
        scheduler_workers: Worker threads executing requests.
        chunks: Anytime granularity of the sequential path — rounds are
            assessed in at most this many pieces with a cancellation
            check between pieces; fewer when a piece would fall under
            :data:`repro.service.executor.MIN_CHUNK_ROUNDS` rounds (a
            default 10 000-round request is one piece).
        default_deadline_seconds: Deadline applied when a request does
            not set one (``None`` = unbounded).
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
    chunks: int = 8
    default_deadline_seconds: float | None = None
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

    def __post_init__(self) -> None:
        errors = [
            (name, f"must be >= {least}, got {getattr(self, name)}")
            for name, least in (
                ("queue_capacity", 1),
                ("scheduler_workers", 1),
                ("fleet_workers", 0),
                ("heartbeat_misses", 1),
            )
            if getattr(self, name) < least
        ]
        errors += [
            (name, f"must be > 0, got {getattr(self, name)}")
            for name in ("heartbeat_interval_seconds", "result_ttl_seconds")
            if not getattr(self, name) > 0
        ]
        check_count("rounds", self.rounds, 1, errors)
        # The default deadline obeys the rule a request's own one does.
        check_positive_finite(
            "default_deadline_seconds", self.default_deadline_seconds, errors
        )
        drain = self.drain_timeout_seconds
        if not (math.isfinite(drain) and drain >= 0):
            errors.append(
                ("drain_timeout_seconds", f"must be finite and >= 0, got {drain}")
            )
        if errors:
            raise ValidationError(errors)


class ServiceFront:
    """The service surface every deployment shape shares.

    Owns the lock, the metrics, the health state and one
    :class:`RequestLifecycle`; turns each public call into a core event
    under the lock and hands the returned effects to the subclass's
    ``_apply``. Subclasses supply the executors: ``start``, ``_apply``
    and ``close``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        topology,
        dependency_model,
        clock,
        *,
        slots: int,
        width: int,
        shards: int | None,
    ):
        self.config = config
        self._clock = clock
        if topology is None:
            from repro.faults.inventory import build_paper_inventory
            from repro.topology.presets import paper_topology

            topology = paper_topology(config.scale, seed=config.seed)
            dependency_model = build_paper_inventory(topology, seed=config.seed + 1)
        self.topology = topology
        self.dependency_model = dependency_model
        self.metrics = MetricsRegistry()
        self.health = HealthMonitor(clock)
        self._lock = threading.RLock()
        self._started = False
        self.core = RequestLifecycle(
            config,
            topology,
            *open_state(config, shards),
            slots=slots,
            width=width,
            clock=clock,
            metrics=self.metrics,
        )
        self.heartbeats = self.core.heartbeats

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _apply(self, effects: list[Effect]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------

    def submit(self, kind: str, request) -> Ticket:
        """Validate, then admit through the lifecycle core.

        Raises :class:`ValidationError` for malformed requests and
        :class:`~repro.util.errors.AdmissionRejected` under overload,
        drain or failover — both *before* any assessment work is spent
        or anything is journaled. With a journal configured, a request
        carrying an already-known idempotency key is never executed
        twice: it joins the live ticket or resolves immediately with the
        stored response.
        """
        if kind not in ("assess", "search"):
            raise ValidationError([("kind", f"unknown request kind {kind!r}")])
        request.validate(self.topology)
        with self._lock:
            ticket, effects = self.core.admit(kind, request)
            self._apply(effects)
        return ticket

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
        with self._lock:
            effects = self.core.cancel(request_id, reason)
            if effects is None:
                return False
            self._apply(effects)
        return True

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
        with self._lock:
            self._apply(self.core.drain())
        deadline = self._clock() + timeout
        self._await_open(lambda: max(0.0, deadline - self._clock()))
        with self._lock:
            self._apply(self.core.cancel_inflight("service draining"))
        self._await_open(lambda: 5.0)
        self.close()

    def _await_open(self, patience) -> None:
        with self._lock:
            open_tickets = list(self.core.tickets.values())
        for ticket in open_tickets:
            try:
                ticket.future.result(timeout=patience())
            except Exception:
                pass

    def status(self) -> dict:
        """JSON-ready health + queue + per-worker + durability snapshot."""
        with self._lock:
            core = self.core
            return {
                "health": self.health.snapshot(),
                "queue": {
                    "depth": core.depth(),
                    "capacity": self.config.queue_capacity,
                    "draining": core.draining,
                },
                "inflight": sum(len(slot.inflight) for slot in core.slots),
                "workers": self.heartbeats.snapshot(),
                "durability": {
                    "journaling": bool(core.journals),
                    "journal_dir": self.config.journal_dir,
                    "known_keys": len(core.keys),
                },
                "drill": self._drill_verdict(),
            }

    def _drill_verdict(self) -> dict | None:
        """The last ``repro drill`` verdict written next to this journal,
        so ``/healthz`` shows whether the stack passed its latest failure
        drill (``None`` when no campaign has run against this state dir)."""
        if not self.config.journal_dir:
            return None
        from repro.drill.engine import load_verdict

        return load_verdict(self.config.journal_dir)


class AssessmentService(ServiceFront):
    """A long-running, overload-safe front to the assessment engines."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        topology=None,
        dependency_model=None,
        clock=time.monotonic,
    ):
        config = config or ServiceConfig()
        super().__init__(
            config,
            topology,
            dependency_model,
            clock,
            slots=1,
            width=config.scheduler_workers,
            shards=None,
        )
        # Dispatched tickets on their way to a worker thread; the core
        # only dispatches while an executor is free, so it never holds
        # more than ``scheduler_workers`` items.
        self._dispatched: queue.SimpleQueue = queue.SimpleQueue()
        self._workers: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "AssessmentService":
        if self._started:
            return self
        self._started = True
        with self._lock:
            for journal in self.core.journals:
                journal.gc(
                    self.config.result_ttl_seconds, journal.replay().terminal_ids
                )
            self._apply(self.core.start())
        self.health.transition(SERVING)
        logger.info(
            "service serving scale=%s workers=%d queue=%d",
            self.config.scale,
            self.config.scheduler_workers,
            self.config.queue_capacity,
        )
        return self

    def close(self) -> None:
        """Hard stop: cancel everything, stop workers."""
        with self._lock:
            self.core.stop()
        for _ in self._workers:
            self._dispatched.put(None)
        for thread in self._workers:
            thread.join(timeout=5.0)
        self._workers.clear()
        with self._lock:
            self.core.close()
        self.health.transition(STOPPED)

    def _apply(self, effects: list[Effect]) -> None:
        """Carry out core effects (lock held). Thread executors share the
        ticket's token, so ``cancel`` needs no message; ``kill`` never
        happens to threads."""
        for effect in effects:
            if effect.kind == "dispatch":
                self._dispatched.put(effect)
            elif effect.kind == "spawn":
                for index in range(self.config.scheduler_workers):
                    thread = threading.Thread(
                        target=self._worker_loop,
                        name=f"repro-service-worker-{index}",
                        daemon=True,
                    )
                    thread.start()
                    self._workers.append(thread)
                self._apply(self.core.worker_ready(effect.shard))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        executor = RequestExecutor(
            self.topology,
            self.dependency_model,
            service_seed=self.config.seed,
            default_rounds=self.config.rounds,
            chunks=self.config.chunks,
        )
        while True:
            try:
                effect = self._dispatched.get(timeout=0.1)
            except queue.Empty:
                # Idle threads keep the slot's heartbeat fresh; during a
                # long execution the age grows, which status() reports
                # honestly (liveness of *threads* is the process's own).
                with self._lock:
                    self.core.heartbeat(0)
                continue
            if effect is None:
                return
            ticket = effect.ticket
            with self._lock:
                self.core.started(0, ticket.id)
            response = executor.run(
                ticket.kind,
                ticket.request,
                request_id=ticket.id,
                token=ticket.token,
                queue_seconds=effect.queue_seconds,
                recovered=ticket.recovered,
            )
            with self._lock:
                self._apply(self.core.completed(0, ticket.id, response))
