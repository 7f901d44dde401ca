"""The assessment service: a supervisor and its forked shard workers.

This is the one deployment shape of the long-running service. One
:class:`FleetSupervisor` process owns admission, idempotency and the
write-ahead journals — all of it the shared
:class:`~repro.service.lifecycle.RequestLifecycle`, configured as N slots
with one journal segment family each; N forked shard worker processes
own execution, each driving one :class:`ShardWorker` — the worker
protocol the drill steps too. This module is the plumbing: fork and
pipe, one event loop, the only thread that calls the core, waiting on
every worker's pipe and process sentinel — each protocol message to the
core's ``on_message``, an exit (``worker_lost``) once that pipe is read
to its end, time (``tick``), every public call handed over by another
thread — and ``_apply`` carrying the core's effects back out
(``dispatch``/``cancel`` → :func:`pipe_message`, ``kill``/``spawn`` →
processes).

What the core decides and this module only executes: a key always lands
on the same worker while it is alive (consistent :class:`~repro.service.
lifecycle.HashRing`) and moves deterministically to a survivor when it
is not; unkeyed requests are stolen by whichever worker goes idle first;
a worker that **exits** is dead immediately, one that goes **silent**
for ``heartbeat_misses`` intervals is declared dead and SIGKILLed; its
requests move to survivors with their journaled ids (so, per-request
seeds being a pure function of ``(service seed, kind, key-or-id)``, the
replay is bit-identical); it respawns with exponential backoff or is
quarantined when it flaps; while **no** worker is routable submissions
are shed with ``AdmissionRejected(reason="failover")``.

A deadline firing mid-run does not raise: the worker returns the
**anytime result** built from the pieces completed so far, with honestly
widened error bounds and ``status="degraded"``. Shutdown is graceful:
``drain()`` rejects the queued backlog with a typed response, lets
in-flight requests finish (cancelling them into anytime results only if
the drain timeout passes), then stops the workers.

The supervisor builds the data center once; every worker, respawns
included, runs on that topology and dependency model, inherited through
``fork`` (nothing is pickled), together with any armed test hooks.
Platforms without ``fork`` get a
:class:`~repro.util.errors.ConfigurationError`.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import threading
import time
import weakref
from collections import deque
from concurrent import futures
from dataclasses import dataclass

from repro.serialization import decode, encode
from repro.service.executor import RequestExecutor
from repro.service.health import DRAINING, SERVING, STOPPED, HealthMonitor
from repro.service.lifecycle import Effect, RequestLifecycle, open_state
from repro.service.requests import (
    AssessRequest,
    SearchRequest,
    ServiceResponse,
    Ticket,
)
from repro.util.cancel import CancellationToken
from repro.util.errors import (
    ConfigurationError,
    ValidationError,
    check_count,
    check_positive_finite,
)
from repro.util.faultpoints import fault_hit
from repro.util.metrics import MetricsRegistry

logger = logging.getLogger("repro.service.fleet")


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the long-running assessment service.

    Construction raises one :class:`ValidationError` naming every queue or
    worker count, round count, deadline, drain timeout, heartbeat setting
    and retention the service cannot run with, so the supervisor and the
    CLI reject them in the same words. (A zero heartbeat interval or miss
    budget quarantines every worker; a zero retention deletes every
    stored result at start; zero rounds kill every executor.)

    Attributes:
        scale: Preset data-center scale (Table 2) when no topology is
            injected.
        seed: Deterministic seed for topology, inventory and assessment
            randomness.
        rounds: Default sampling rounds per assess request.
        queue_capacity: Bounded admission-queue size; submits beyond it
            are shed with :class:`AdmissionRejected`.
        chunks: Anytime granularity of an assessment — rounds are
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
        fleet_workers: Shard worker processes, each executing one
            request at a time (``repro serve --workers N``).
        heartbeat_interval_seconds / heartbeat_misses: Failure detection
            — a worker that misses ``heartbeat_misses`` consecutive
            intervals (or whose process exits) is declared dead and
            failed over.
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
    chunks: int = 8
    default_deadline_seconds: float | None = None
    drain_timeout_seconds: float = 30.0
    journal_dir: str | None = None
    journal_segment_bytes: int = 1 << 20
    result_ttl_seconds: float = 7 * 24 * 3600.0
    fleet_workers: int = 2
    heartbeat_interval_seconds: float = 0.25
    heartbeat_misses: int = 8
    respawn_backoff_seconds: float = 0.25
    respawn_backoff_cap_seconds: float = 5.0
    quarantine_restarts: int = 5
    quarantine_window_seconds: float = 30.0

    def __post_init__(self) -> None:
        errors = [
            (name, f"must be >= 1, got {getattr(self, name)}")
            for name in ("queue_capacity", "fleet_workers", "heartbeat_misses")
            if getattr(self, name) < 1
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


def _fork_context():
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            "the worker fleet requires the 'fork' start method; "
            "this platform does not support it"
        )
    return multiprocessing.get_context("fork")


# ----------------------------------------------------------------------
# Shard worker process
# ----------------------------------------------------------------------


class ShardWorker:
    """The shard worker protocol, once: no thread, no pipe, no process.

    The forked process drives it from its link thread and main loop
    (:func:`shard_worker_main`), the drill one tick at a time on a
    virtual ``clock``, which its tokens read. :meth:`receive` takes the
    supervisor's messages, :meth:`hello` and :meth:`beat` announce the
    worker, and :meth:`step` runs one protocol step of the oldest task:
    ``started``, then compute through ``executor.run``, then
    ``response``. Everything goes out through ``send``.

    The worker seams: ``worker.heartbeat`` at each beat (``drop`` loses
    that beat) and ``worker.task.<step>`` before each step (``drop``
    loses the ``started`` message). ``kill`` makes the worker
    ``exited`` and ``hang`` makes it ``hung``: it beats and steps no
    more, and its driver carries the state out — the process exits or
    blocks, the drill stops stepping it.
    """

    def __init__(self, shard: int, executor, send, clock):
        self.shard = shard
        self.executor = executor
        self.send = send
        self.clock = clock
        self.state = "alive"  # alive | hung | exited
        self.tasks: deque = deque()  # (message, request, token), oldest first
        self.tokens: dict[str, CancellationToken] = {}
        self.phase = "started"  # started -> compute -> respond
        self.response: ServiceResponse | None = None

    def hello(self) -> None:
        self.send({"type": "hello"})

    def beat(self) -> None:
        if self.state != "alive":
            return
        command = fault_hit("worker.heartbeat", shard=self.shard)
        if command is None:
            self.send({"type": "heartbeat"})
        elif command.kind == "hang":
            self.state = "hung"

    def receive(self, message: dict) -> bool:
        """A supervisor message: ``task`` queues the decoded request with
        a token of its own, ``cancel`` fires that token. ``False`` on
        ``stop``."""
        kind = message["type"]
        if kind == "task":
            cls = SearchRequest if message["kind"] == "search" else AssessRequest
            token = CancellationToken(message["deadline_seconds"], clock=self.clock)
            self.tokens[message["id"]] = token
            self.tasks.append((message, decode(cls, message["request"]), token))
        elif kind == "cancel":
            token = self.tokens.get(message["id"])
            if token is not None:
                token.cancel(message["reason"])
        return kind != "stop"

    def step(self) -> bool:
        """One protocol step of the oldest task; ``False`` when there is
        none to take or the worker is no longer alive."""
        if self.state != "alive" or not self.tasks:
            return False
        message, request, token = self.tasks[0]
        request_id = message["id"]
        command = fault_hit(
            f"worker.task.{self.phase}", shard=self.shard, request=request_id
        )
        if command is not None and command.kind != "drop":
            self.state = "exited" if command.kind == "kill" else "hung"
            return False
        if self.phase == "started":
            if command is None:  # a dropped "started" is harmless
                self.send({"type": "started", "id": request_id})
            self.phase = "compute"
        elif self.phase == "compute":
            self.response = self.executor.run(
                message["kind"],
                request,
                request_id=request_id,
                token=token,
                queue_seconds=message["queue_seconds"],
                recovered=message["recovered"],
            )
            del self.tokens[request_id]
            self.phase = "respond"
        else:
            self.tasks.popleft()
            self.phase = "started"
            response = encode(self.response)
            self.send({"type": "response", "id": request_id, "response": response})
        return True


def pipe_message(effect: Effect) -> dict:
    """The supervisor's message for a ``dispatch`` or ``cancel`` effect,
    as the pipe carries it to the fleet's workers and the drill hands
    it to its own."""
    ticket = effect.ticket
    if effect.kind == "cancel":
        return {"type": "cancel", "id": ticket.id, "reason": effect.reason}
    return {
        "type": "task",
        "id": ticket.id,
        "kind": ticket.kind,
        "request": encode(ticket.request),
        "deadline_seconds": ticket.token.remaining(),
        "queue_seconds": effect.queue_seconds,
        "recovered": ticket.recovered,
    }


def shard_worker_main(
    shard: int,
    conn,
    topology,
    dependency_model,
    seed: int,
    rounds: int,
    chunks: int,
    heartbeat_interval: float,
) -> None:
    """Entry point of one forked shard worker process: a
    :class:`ShardWorker` over :class:`RequestExecutor`, on the
    supervisor's ``topology`` and ``dependency_model``, inherited
    through ``fork``.

    Two threads: a link thread polling the pipe until the next beat is
    due, handing each message to the worker, then beating; and the main
    loop stepping the worker's tasks. The worker exits on ``stop``, on
    pipe EOF, on a ``kill`` seam (status 70), and when its supervisor
    disappears — an orphaned worker must never keep answering for a
    shard that has been failed over. A ``hang`` blocks the main loop
    and stops the beats: the supervisor's heartbeat verdict reaps it.
    """
    supervisor = multiprocessing.parent_process().pid
    send_lock = threading.Lock()
    wake = queue_module.SimpleQueue()  # True per message, False at the end

    def send(message: dict) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            # The supervisor is gone; there is nobody to answer to.
            os._exit(0)

    executor = RequestExecutor(
        topology,
        dependency_model,
        service_seed=seed,
        default_rounds=rounds,
        chunks=chunks,
    )
    worker = ShardWorker(shard, executor, send, time.monotonic)

    def link() -> None:
        beat_at = time.monotonic() + heartbeat_interval
        while True:
            wait = beat_at - time.monotonic()
            if wait <= 0:
                if os.getppid() != supervisor:  # reparented: supervisor died
                    os._exit(0)
                worker.beat()
                beat_at = time.monotonic() + heartbeat_interval
                continue
            try:
                if not conn.poll(wait):
                    continue
                if not worker.receive(conn.recv()):
                    break
            except (EOFError, OSError):
                break
            wake.put(True)
        wake.put(False)

    threading.Thread(target=link, name="fleet-link", daemon=True).start()
    worker.hello()
    running = True
    while running:
        running = wake.get()  # the tasks queued before False still run
        while worker.step():
            pass
        if worker.state == "exited":
            os._exit(70)
        if worker.state == "hung":
            threading.Event().wait()  # forever: no beats, no steps
    conn.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """The supervisor's handle on one shard worker process."""

    process: object = None
    conn: object = None

    def send(self, message: dict) -> None:
        """Best-effort pipe send. A dead pipe is the event loop's problem:
        it reports the exited process and the core re-routes whatever the
        worker held, this message's included."""
        try:
            if self.conn is not None:
                self.conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            pass


class FleetSupervisor:
    """The long-running, overload-safe front to the assessment engines.

    Owns the metrics, the health state, one :class:`RequestLifecycle` and
    the event loop, the one thread that touches it: every public call
    becomes a core event run on that thread, whose returned effects it
    carries out to the shard worker processes. ``topology`` /
    ``dependency_model`` default to the ``config.scale`` preset built
    from ``config.seed``.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        topology=None,
        dependency_model=None,
        clock=time.monotonic,
    ):
        self._ctx = _fork_context()
        config = config or ServiceConfig()
        self.config = config
        if topology is None:
            from repro.faults.inventory import build_paper_inventory
            from repro.topology.presets import paper_topology

            topology = paper_topology(config.scale, seed=config.seed)
            dependency_model = build_paper_inventory(topology, seed=config.seed + 1)
        self.topology = topology
        self.dependency_model = dependency_model
        self.metrics = MetricsRegistry()
        self.health = HealthMonitor(clock)
        self.core = RequestLifecycle(
            config,
            topology,
            *open_state(config, config.fleet_workers),
            slots=config.fleet_workers,
            clock=clock,
            metrics=self.metrics,
        )
        self._slots = self.core.slots
        self._workers = [_Worker() for _ in self._slots]
        self._loop: threading.Thread | None = None
        self._posts = queue_module.SimpleQueue()  # (call, args, future)
        self._wake = os.pipe()  # closed with this object: no reused fd
        for fd in self._wake:
            weakref.finalize(self, os.close, fd)
        self._stop_by = math.inf  # set once the workers are told to stop
        self._exited = False

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        if self._loop is not None:
            return self
        started = futures.Future()
        self._loop = threading.Thread(
            target=self._event_loop, args=(started,), name="fleet-loop", daemon=True
        )
        self._loop.start()
        started.result()  # the loop's first act: core.start() ran or raised
        self.health.transition(SERVING)
        logger.info(
            "fleet serving scale=%s shards=%d queue=%d journal=%s",
            self.config.scale,
            self.config.fleet_workers,
            self.config.queue_capacity,
            self.config.journal_dir or "-",
        )
        return self

    def close(self) -> None:
        """Hard stop: hand the stop to the loop, which stops the workers,
        answers stragglers and closes the journals; wait for it to exit."""
        if self._loop is None:  # never started: no loop to hand it to
            self.core.stop()
            self.core.close()
        else:
            self._on_loop(self._stop)
            self._loop.join()
        self.health.transition(STOPPED)

    def _stop(self) -> None:
        self.core.stop()
        for worker in self._workers:
            worker.send({"type": "stop"})
        self._stop_by = time.monotonic() + 2.0

    def drain(self, timeout_seconds: float | None = None) -> None:
        """Graceful shutdown: queued rejected, in-flight allowed to finish.

        After ``timeout_seconds`` (default from config) the still-running
        requests are *cancelled*, which turns them into anytime results —
        they resolve normally, just degraded.
        """
        if timeout_seconds is None:
            timeout_seconds = self.config.drain_timeout_seconds
        self.health.transition(DRAINING)
        self._on_loop(lambda: self._apply(self.core.drain()))
        self._await_open(timeout_seconds)
        self._on_loop(
            lambda: self._apply(self.core.cancel_inflight("service draining"))
        )
        self._await_open(5.0)
        self.close()

    def _await_open(self, timeout: float) -> None:
        tickets = self._on_loop(lambda: list(self.core.tickets.values()))
        futures.wait([ticket.future for ticket in tickets], timeout=timeout)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def submit(self, kind: str, request) -> Ticket:
        """Validate on the caller's thread, then admit on the loop.

        Raises :class:`ValidationError` for malformed requests and
        :class:`~repro.util.errors.AdmissionRejected` under overload,
        drain, failover or once stopped — all *before* any assessment
        work is spent or anything is journaled. With a journal
        configured, a request carrying an already-known idempotency key
        is never executed twice: it joins the live ticket or resolves
        immediately with the stored response.
        """
        if kind not in ("assess", "search"):
            raise ValidationError([("kind", f"unknown request kind {kind!r}")])
        request.validate(self.topology)
        return self._on_loop(self._admit, kind, request)

    def _admit(self, kind: str, request) -> Ticket:
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
        return self._on_loop(self._cancel, request_id, reason)

    def _cancel(self, request_id: str, reason: str) -> bool:
        effects = self.core.cancel(request_id, reason)
        self._apply(effects or [])
        return effects is not None

    # ------------------------------------------------------------------
    # Effects out: processes and pipes
    # ------------------------------------------------------------------

    def _apply(self, effects: list[Effect]) -> None:
        """Carry out core effects (on the loop, like every event, so a
        ticket's ``task`` always reaches the pipe before its ``cancel``)."""
        for effect in effects:
            if effect.kind in ("dispatch", "cancel"):
                self._workers[effect.shard].send(pipe_message(effect))
            elif effect.kind == "kill":
                self._kill(self._workers[effect.shard])
            elif effect.kind == "spawn":
                self._spawn(effect.shard)

    @staticmethod
    def _kill(worker: _Worker) -> None:
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=2.0)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None

    def _spawn(self, shard: int) -> None:
        slot, worker = self._slots[shard], self._workers[shard]
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                shard,
                child_conn,
                self.topology,
                self.dependency_model,
                self.config.seed,
                self.config.rounds,
                self.config.chunks,
                self.config.heartbeat_interval_seconds,
            ),
            name=f"repro-{slot.name}-g{slot.generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        self.core.heartbeats.annotate(slot.name, pid=process.pid)
        logger.info(
            "%s spawned pid=%d generation=%d",
            slot.name,
            process.pid,
            slot.generation,
        )

    # ------------------------------------------------------------------
    # Events in: worker messages, process exits, time, posted calls
    # ------------------------------------------------------------------

    def _event_loop(self, started: futures.Future) -> None:
        """The one thread that touches the core: ``core.start()`` first
        (:meth:`start` raises its failure), then a wait on the self-pipe
        and every live worker's pipe and sentinel. A ready pipe is read to
        its end before its worker's exit is handled, posted calls run in
        order, and the core ticks every half heartbeat. Once stopped it
        reads on until the workers exit (two seconds at most), then kills
        the rest and closes the core."""
        interval = max(0.02, self.config.heartbeat_interval_seconds / 2)
        wake = self._wake[0]
        try:
            try:
                self._apply(self.core.start())
            except BaseException as exc:
                started.set_exception(exc)
                return
            started.set_result(None)
            tick_at = time.monotonic() + interval
            while True:
                live = [
                    (shard, worker.conn, worker.process.sentinel)
                    for shard, worker in enumerate(self._workers)
                    if worker.conn is not None
                ]
                stopping = self._stop_by < math.inf
                if stopping and (not live or time.monotonic() >= self._stop_by):
                    break
                until = min(tick_at, self._stop_by)
                ready = set(
                    multiprocessing.connection.wait(
                        [wake] + [h for _, *handles in live for h in handles],
                        timeout=max(0.0, until - time.monotonic()),
                    )
                )
                for shard, conn, sentinel in live:
                    if conn in ready or sentinel in ready:
                        if not self._read(shard, conn) or sentinel in ready:
                            self._kill(self._workers[shard])
                            lost = self.core.worker_lost(shard, "process exited")
                            self._apply(lost)
                if wake in ready:
                    os.read(wake, 4096)
                    self._run_posts()
                if time.monotonic() >= tick_at:
                    tick_at = time.monotonic() + interval
                    self._apply(self.core.tick())
        finally:
            for worker in self._workers:
                self._kill(worker)
            self.core.close()
            self._exited = True
            self._run_posts()

    def _read(self, shard: int, conn) -> bool:
        """Hand every message waiting on ``conn`` to :meth:`_receive`;
        ``False`` once the pipe is at its end."""
        try:
            while conn.poll():
                self._receive(shard, conn.recv())
        except (EOFError, OSError):
            return False
        return True

    def _receive(self, shard: int, message: dict) -> None:
        """The one receive point: a worker's message, as its core event."""
        self._apply(self.core.on_message(shard, message))

    def _on_loop(self, call, *args):
        """Run ``call(*args)`` on the event loop and return (or raise) its
        result: post it, wake the loop through its self-pipe, block on the
        future. Inline on the loop, before ``start`` and after the loop
        exited (nothing else mutates the core then)."""
        if self._exited or self._loop in (None, threading.current_thread()):
            return call(*args)
        future = futures.Future()
        self._posts.put((call, args, future))
        os.write(self._wake[1], b"\0")
        if self._exited:  # the loop exited after the check: run it here
            self._run_posts()
        return future.result()

    def _run_posts(self) -> None:
        while True:
            try:
                call, args, future = self._posts.get_nowait()
            except queue_module.Empty:
                return
            try:
                future.set_result(call(*args))
            except BaseException as exc:
                future.set_exception(exc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """JSON-ready health, queue, per-worker, durability and per-shard
        fleet snapshot."""
        return self._on_loop(self._status, self._drill_verdict())

    def _status(self, drill: dict | None) -> dict:
        core = self.core
        heartbeats, restarts = core.heartbeats, core.restarts
        shards = [
            {
                "shard": slot.shard,
                "state": slot.state,
                "pid": worker.process.pid if worker.process else None,
                "generation": slot.generation,
                "restarts": restarts.total_restarts(slot.name),
                "window_restarts": restarts.restarts(slot.name),
                "quarantined": restarts.is_quarantined(slot.name),
                "lifetime_quarantines": restarts.total_quarantines(slot.name),
                "queue_depth": len(slot.queue),
                "inflight": next(iter(slot.inflight), None),
                "heartbeat_age_seconds": heartbeats.age(slot.name),
            }
            for slot, worker in zip(self._slots, self._workers)
        ]
        status = {
            "health": self.health.snapshot(),
            "queue": {
                "depth": core.depth(),
                "capacity": self.config.queue_capacity,
                "draining": core.draining,
            },
            "inflight": sum(len(slot.inflight) for slot in core.slots),
            "workers": heartbeats.snapshot(),
            "durability": {
                "journaling": bool(core.journals),
                "journal_dir": self.config.journal_dir,
                "known_keys": len(core.keys),
            },
            "drill": drill,
        }
        status["fleet"] = {
            "shards": shards,
            "alive": sum(1 for s in shards if s["state"] == "alive"),
            "quarantined": sum(1 for s in shards if s["state"] == "quarantined"),
            "lifetime_restarts": sum(s["restarts"] for s in shards),
            "lifetime_quarantines": sum(s["lifetime_quarantines"] for s in shards),
            "workers": self.config.fleet_workers,
        }
        return status

    def _drill_verdict(self) -> dict | None:
        """The last ``repro drill`` verdict written next to this journal,
        so ``/healthz`` shows whether the stack passed its latest failure
        drill (``None`` when no campaign has run against this state dir)."""
        if not self.config.journal_dir:
            return None
        from repro.drill.engine import load_verdict

        return load_verdict(self.config.journal_dir)
