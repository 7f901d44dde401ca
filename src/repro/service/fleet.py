"""Supervised multi-process worker fleet for the assessment service.

One :class:`FleetSupervisor` process owns admission, idempotency and the
write-ahead journals — all of it the shared
:class:`~repro.service.lifecycle.RequestLifecycle`, configured as N slots
of width 1 with one journal segment family each; N forked shard worker
processes own execution. This module is the plumbing between the two:
fork and pipe, a reader thread per worker turning protocol messages into
core events (``hello`` → ``worker_ready``, ``heartbeat``, ``started``,
``response`` → ``completed``), a monitor thread reporting exited
processes (``worker_lost``) and the passage of time (``tick``), and
``_apply`` carrying the core's effects back out (``dispatch``/``cancel``
→ pipe messages, ``kill``/``spawn`` → processes).

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

The fleet requires the ``fork`` start method (workers inherit the built
topology and any test hooks); platforms without it get a
:class:`~repro.util.errors.ConfigurationError`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field

from repro.drill.faultpoints import fault_hit
from repro.service.executor import RequestExecutor
from repro.service.health import SERVING, STOPPED
from repro.service.lifecycle import Effect
from repro.service.requests import AssessRequest, SearchRequest, ServiceResponse
from repro.service.scheduler import ServiceConfig, ServiceFront
from repro.util.cancel import CancellationToken
from repro.util.errors import ConfigurationError, ValidationError

logger = logging.getLogger("repro.service.fleet")


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


def shard_worker_main(
    shard: int,
    conn,
    scale: str,
    seed: int,
    rounds: int,
    chunks: int,
    heartbeat_interval: float,
) -> None:
    """Entry point of one forked shard worker process.

    Three threads: a reader turning pipe messages into tasks and firing
    cancellation tokens, a heartbeat sender proving liveness every
    ``heartbeat_interval``, and the main loop executing one task at a
    time through the shared :class:`RequestExecutor` (same bits as the
    thread service's workers). The worker exits on ``stop``,
    on pipe EOF, and when its parent disappears — an orphaned worker
    must never keep answering for a shard that has been failed over.
    """
    from repro.faults.inventory import build_paper_inventory
    from repro.topology.presets import paper_topology

    topology = paper_topology(scale, seed=seed)
    dependency_model = build_paper_inventory(topology, seed=seed + 1)
    executor = RequestExecutor(
        topology,
        dependency_model,
        service_seed=seed,
        default_rounds=rounds,
        chunks=chunks,
        worker_index=shard,
    )

    send_lock = threading.Lock()
    stop = threading.Event()
    tasks: queue_module.Queue = queue_module.Queue()
    tokens: dict[str, CancellationToken] = {}
    tokens_lock = threading.Lock()

    def send(message: dict) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            # The supervisor is gone; there is nobody to answer to.
            os._exit(0)

    def reader() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                stop.set()
                tasks.put(None)
                return
            kind = message.get("type")
            if kind == "task":
                token = CancellationToken(
                    deadline_seconds=message.get("deadline_seconds")
                )
                with tokens_lock:
                    tokens[message["id"]] = token
                tasks.put((message, token))
            elif kind == "cancel":
                with tokens_lock:
                    token = tokens.get(message["id"])
                if token is not None:
                    token.cancel(message.get("reason", "cancelled by supervisor"))
            elif kind == "stop":
                stop.set()
                tasks.put(None)
                return

    def heart() -> None:
        while not stop.wait(heartbeat_interval):
            if os.getppid() == 1:  # reparented to init: supervisor died
                os._exit(0)
            send(
                {
                    "type": "heartbeat",
                    "shard": shard,
                    "pid": os.getpid(),
                    "ts": time.time(),
                }
            )

    threading.Thread(target=reader, name="fleet-reader", daemon=True).start()
    threading.Thread(target=heart, name="fleet-heart", daemon=True).start()
    send({"type": "hello", "shard": shard, "pid": os.getpid()})

    while True:
        item = tasks.get()
        if item is None:
            break
        message, token = item
        request_id = message["id"]
        request_cls = (
            SearchRequest if message["kind"] == "search" else AssessRequest
        )
        # Drill seam: die or lose the protocol message at a chosen step
        # (no-op in production; a dropped "started" is harmless — the
        # journal simply never learns the request began executing).
        command = fault_hit(
            "fleet.worker.send", message="started", shard=shard
        )
        if command is not None and command.kind == "exit":
            os._exit(70)
        if command is None or command.kind != "drop":
            send({"type": "started", "id": request_id})
        response = executor.run(
            message["kind"],
            request_cls.from_dict(message["request"]),
            request_id=request_id,
            token=token,
            queue_seconds=message.get("queue_seconds", 0.0),
            recovered=message.get("recovered", False),
        )
        with tokens_lock:
            tokens.pop(request_id, None)
        # Drill seam: a lost response means a dead pipe, and a worker
        # with a dead pipe exits — both kinds end the process here.
        command = fault_hit(
            "fleet.worker.send", message="response", shard=shard
        )
        if command is not None and command.kind in ("exit", "drop"):
            os._exit(70)
        send({"type": "response", "id": request_id, "response": response.to_dict()})
    conn.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """The supervisor's handle on one shard worker process."""

    process: object = None
    conn: object = None
    send_lock: threading.Lock = field(default_factory=threading.Lock)

    def send(self, message: dict) -> bool:
        """Best-effort pipe send. A dead pipe is the monitor's problem:
        it reports the exited process and the core re-routes whatever
        the worker held, this message's ticket included."""
        conn = self.conn
        if conn is None:
            return False
        try:
            with self.send_lock:
                conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False


class FleetSupervisor(ServiceFront):
    """Supervisor process of the worker fleet.

    Same public surface as :class:`~repro.service.scheduler.
    AssessmentService` (both are :class:`ServiceFront`), so the HTTP
    server and the clients cannot tell which deployment shape is behind
    them.
    """

    def __init__(self, config: ServiceConfig, clock=time.monotonic):
        if config.fleet_workers < 1:
            raise ConfigurationError(
                "FleetSupervisor requires fleet_workers >= 1"
            )
        if config.parallel_workers > 0:  # shards run every piece themselves
            raise ValidationError(
                [("parallel_workers", "the shard fleet runs no worker pool")]
            )
        self._ctx = _fork_context()
        super().__init__(
            config,
            None,
            None,
            clock,
            slots=config.fleet_workers,
            width=1,
            shards=config.fleet_workers,
        )
        self._slots = self.core.slots
        self._workers = [_Worker() for _ in self._slots]
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        if self._started:
            return self
        self._started = True
        with self._lock:
            self._apply(self.core.start())
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
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
        """Hard stop: stop workers, resolve stragglers, free resources."""
        with self._lock:
            self.core.stop()
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for worker in self._workers:
            worker.send({"type": "stop"})
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=2.0)
            self._kill(worker)
        with self._lock:
            self.core.close()
        self.health.transition(STOPPED)

    # ------------------------------------------------------------------
    # Effects out: processes and pipes
    # ------------------------------------------------------------------

    def _apply(self, effects: list[Effect]) -> None:
        """Carry out core effects (lock held, so a ticket's ``task``
        always reaches the pipe before its ``cancel``)."""
        for effect in effects:
            if effect.kind == "dispatch":
                ticket = effect.ticket
                self._workers[effect.shard].send(
                    {
                        "type": "task",
                        "id": ticket.id,
                        "kind": ticket.kind,
                        "request": ticket.request.to_dict(),
                        "deadline_seconds": ticket.token.remaining(),
                        "queue_seconds": effect.queue_seconds,
                        "recovered": ticket.recovered,
                    }
                )
            elif effect.kind == "cancel":
                self._workers[effect.shard].send(
                    {
                        "type": "cancel",
                        "id": effect.ticket.id,
                        "reason": effect.reason,
                    }
                )
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
                self.config.scale,
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
        self.heartbeats.annotate(slot.name, pid=process.pid)
        threading.Thread(
            target=self._reader_loop,
            args=(shard, parent_conn, slot.generation),
            name=f"fleet-reader-{shard}",
            daemon=True,
        ).start()
        logger.info(
            "%s spawned pid=%d generation=%d",
            slot.name,
            process.pid,
            slot.generation,
        )

    # ------------------------------------------------------------------
    # Events in: worker messages, process exits, time
    # ------------------------------------------------------------------

    def _reader_loop(self, shard: int, conn, generation: int) -> None:
        core = self.core
        while not self._stop.is_set():
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # the monitor notices the dead process
            kind = message.get("type")
            with self._lock:
                if self._slots[shard].generation != generation:
                    return  # a respawn superseded this pipe
                if kind == "hello":
                    effects = core.worker_ready(shard)
                elif kind == "heartbeat":
                    effects = core.heartbeat(shard)
                elif kind == "started":
                    effects = core.started(shard, message["id"])
                elif kind == "response":
                    effects = core.completed(
                        shard,
                        message["id"],
                        ServiceResponse.from_dict(message["response"]),
                    )
                else:
                    continue
                self._apply(effects)

    def _monitor_loop(self) -> None:
        interval = max(0.02, self.config.heartbeat_interval_seconds / 2)
        while not self._stop.wait(interval):
            with self._lock:
                for slot, worker in zip(self._slots, self._workers):
                    if (
                        slot.state in ("starting", "alive")
                        and not worker.process.is_alive()
                    ):
                        self._apply(
                            self.core.worker_lost(slot.shard, "process exited")
                        )
                self._apply(self.core.tick())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """The shared snapshot plus the per-shard fleet view."""
        with self._lock:
            restarts = self.core.restarts
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
                    "heartbeat_age_seconds": self.heartbeats.age(slot.name),
                }
                for slot, worker in zip(self._slots, self._workers)
            ]
            status = super().status()
        status["fleet"] = {
            "shards": shards,
            "alive": sum(1 for s in shards if s["state"] == "alive"),
            "quarantined": sum(1 for s in shards if s["state"] == "quarantined"),
            "lifetime_restarts": sum(s["restarts"] for s in shards),
            "lifetime_quarantines": sum(s["lifetime_quarantines"] for s in shards),
            "workers": self.config.fleet_workers,
        }
        return status
