"""The request lifecycle, once: admit → route → dispatch → record → recover.

:class:`RequestLifecycle` is the one implementation of everything the
service promises about a request — idempotent admission, typed load
shedding, the write-ahead ``accepted`` record, placement, exactly-once
terminal recording, takeover of a dead worker's requests, drain and
rebuild from the journal. It is a single-threaded state machine: it
starts no thread, process or socket and reads no clock but the one it is
given. One thread makes every call: it feeds the core **events** and
carries out the **effects** it returns:

==================  =====================================================
event               what the core does
==================  =====================================================
``admit``           join / replay / shed, else ticket → write-ahead
                    ``accepted`` → enqueue on a slot
``cancel``          fire the ticket's token (a queued ticket resolves
                    ``cancelled`` when its turn comes, journaled unstarted)
``start``           age out stored results and sealed journal segments,
                    ask for every slot's executor
``worker_ready``    slot becomes ``alive`` and may be dispatched to
``heartbeat``       proof of life for the failure detector
``started``         journal ``started``
``completed``       store → seam → journal ``completed`` (or ``cancelled``),
                    resolve the ticket
``worker_lost``     kill, re-route the slot's requests (in flight first,
                    flagged ``recovered``), respawn with backoff or
                    quarantine
``tick``            heartbeat-miss and startup-timeout verdicts, due respawns
``drain``           stop admitting, reject what is queued
==================  =====================================================

:meth:`RequestLifecycle.on_message` maps a shard worker's protocol
message to its event; the fleet's event loop and the drill both
deliver the one worker class's messages through it.

Effects (:class:`Effect`) are ``dispatch`` a ticket to a slot, ``cancel``
a dispatched ticket, ``kill`` / ``spawn`` a slot's executor, and
``resolve`` — the ticket's future already holds the response, the effect
tells the driver so (to log it, or to hand it to a simulated client).

A :class:`Slot` is one journal family, one FIFO and one executor. Two
callers run this machine: the service (:mod:`repro.service.fleet`), N
slots over forked shard worker processes, and the drill
(:mod:`repro.drill.sim`), N slots of the fleet's worker class,
tick-stepped on a virtual clock.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import logging
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.serialization import decode, encode
from repro.service.heartbeat import HeartbeatTracker, RestartPolicy
from repro.service.journal import RequestJournal
from repro.service.requests import (
    AssessRequest,
    SearchRequest,
    ServiceResponse,
    Ticket,
)
from repro.service.store import ResultStore
from repro.util.cancel import CancellationToken
from repro.util.errors import AdmissionRejected, ValidationError
from repro.util.faultpoints import fault_hit, raise_if_crash
from repro.util.metrics import MetricsRegistry

logger = logging.getLogger("repro.service")

#: How long a freshly spawned executor may take to report ready before it
#: is declared lost. Generous: topology builds are O(seconds) on a loaded
#: CI box and a false positive here causes a pointless respawn.
STARTUP_TIMEOUT_SECONDS = 60.0


class HashRing:
    """A consistent-hash ring over shard numbers.

    sha256-based so placement is stable across processes and runs
    (``hash()`` is salted per process). ``replicas`` virtual nodes per
    shard smooth the key distribution; ``owner`` walks clockwise from
    the key's point to the first *eligible* shard, so removing a shard
    moves only that shard's arc — the property that keeps failover from
    reshuffling keys that never touched the dead worker.
    """

    def __init__(self, shards: int, replicas: int = 64):
        self.shards = shards
        self._points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                self._points.append((self._hash(f"shard-{shard}#{replica}"), shard))
        self._points.sort()
        self._keys = [point for point, _ in self._points]

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def owner(self, key: str, eligible=None) -> int | None:
        """The shard owning ``key`` among ``eligible`` (default: all)."""
        if eligible is not None:
            eligible = set(eligible)
            if not eligible:
                return None
        start = bisect.bisect_right(self._keys, self._hash(key))
        for offset in range(len(self._points)):
            _, shard = self._points[(start + offset) % len(self._points)]
            if eligible is None or shard in eligible:
                return shard
        return None


def fingerprint(request) -> str:
    """Canonical digest of the request payload, key excluded.

    Two submissions under one idempotency key must describe the same
    work; the fingerprint is how a reuse-with-different-payload is
    caught instead of silently answered with the other request's result.
    """
    document = encode(request)
    document.pop("idempotency_key", None)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def open_state(config, shards: int):
    """Open ``config.journal_dir``: ``(journals, store)``, one segment
    family per slot. ``([], None)`` when durability is off."""
    if config.journal_dir is None:
        return [], None
    root = os.fspath(config.journal_dir)
    journals = [
        RequestJournal(
            root, segment_bytes=config.journal_segment_bytes, shard=shard
        )
        for shard in range(shards)
    ]
    return journals, ResultStore(os.path.join(root, "results"))


def _accepted_ids(states) -> set[str]:
    """Every request id an ``accepted`` record in ``states`` names."""
    return set().union(*(ids for state in states for ids in state.segment_ids.values()))


class Effect(NamedTuple):
    """Something the driver must do, or be told, after an event."""

    kind: str  # dispatch | cancel | kill | spawn | resolve
    shard: int | None = None
    ticket: Ticket | None = None
    queue_seconds: float = 0.0  # dispatch: how long the ticket queued
    reason: str | None = None  # cancel
    response: ServiceResponse | None = None  # resolve


@dataclass
class Slot:
    """One journal family + one FIFO + one executor."""

    shard: int
    journal: RequestJournal | None = None
    # starting | alive | dead (only while its work is taken over) |
    # respawning | quarantined
    state: str = "starting"
    queue: deque = field(default_factory=deque)
    inflight: dict = field(default_factory=dict)  # request id -> Ticket
    generation: int = 0
    spawned_at: float = 0.0
    respawn_at: float | None = None

    @property
    def name(self) -> str:
        return f"shard-{self.shard}"


def _rejection(reason: str, message: str) -> dict:
    return {"error": "admission", "reason": reason, "message": message}


class RequestLifecycle:
    """The request-lifecycle state machine shared by every driver.

    ``config`` is read for ``queue_capacity``, ``default_deadline_seconds``,
    ``result_ttl_seconds`` and the heartbeat / respawn / quarantine knobs.
    ``journals`` is empty (durability off) or one open journal per slot;
    ``topology`` is what recovered requests are re-validated against.
    """

    def __init__(
        self,
        config,
        topology,
        journals,
        store,
        *,
        slots: int,
        clock,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config
        self.topology = topology
        self.journals = list(journals)
        self.store = store
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.heartbeats = HeartbeatTracker(clock=clock)
        self.restarts = RestartPolicy(
            backoff_seconds=config.respawn_backoff_seconds,
            backoff_cap_seconds=config.respawn_backoff_cap_seconds,
            quarantine_restarts=config.quarantine_restarts,
            quarantine_window_seconds=config.quarantine_window_seconds,
            clock=clock,
        )
        self.ring = HashRing(slots)
        self.root_token = CancellationToken(clock=clock)
        self.slots = [
            Slot(
                shard=shard,
                journal=self.journals[shard] if self.journals else None,
                spawned_at=clock(),
            )
            for shard in range(slots)
        ]
        self.tickets: dict[str, Ticket] = {}
        # idempotency_key -> ("inflight", fingerprint, Ticket) while a
        # submission is live, or ("completed", fingerprint, status) once
        # its response is durably stored.
        self.keys: dict[str, tuple[str, str | None, object]] = {}
        self.draining = False
        self.stopped = False
        self._rebuild_pending()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(self, kind: str, request) -> tuple[Ticket, list[Effect]]:
        """Ticket a validated request, or join / replay / shed it.

        With a journal, a request carrying a known idempotency key never
        executes twice: it joins the live ticket or resolves at once with
        the stored response. Sheds raise :class:`AdmissionRejected`
        *before* anything is journaled — an overloaded service must not
        pay two fsyncs to say no.
        """
        if self.stopped:
            self._shed("service is stopped and answers nothing", "stopped")
        key = request.idempotency_key
        digest = None
        if key is not None and self.journals:
            digest = fingerprint(request)
            existing = self._resolve_key(kind, request, key, digest)
            if existing is not None:
                return existing, []
        if self.draining:
            self._shed("service is draining and accepts no new requests", "draining")
        if not self._routable():
            self.metrics.incr("fleet/failover_sheds")
            self._shed(
                "no shard worker is alive; failover in progress, retry",
                "failover",
            )
        if self.depth() >= self.config.queue_capacity:
            self.metrics.incr("service/shed")
            self._shed(
                f"admission queue is full ({self.config.queue_capacity} "
                "queued); retry with backoff",
                "queue_full",
            )
        ticket = Ticket(
            id=self._next_id(),
            kind=kind,
            request=request,
            token=self._token_for(request),
            enqueued_at=self.clock(),
            fingerprint=digest,
        )
        self._route(ticket)
        self.tickets[ticket.id] = ticket
        if digest is not None:
            self.keys[key] = ("inflight", digest, ticket)
        self.metrics.incr("service/admitted")
        self.metrics.incr("service/requests")
        logger.info(
            "request %s admitted kind=%s shard=%s", ticket.id, kind, ticket.shard
        )
        return ticket, self._dispatch()

    def _shed(self, message: str, reason: str) -> None:
        self.metrics.incr("service/rejected")
        raise AdmissionRejected(
            message,
            reason=reason,
            queue_depth=self.depth(),
            capacity=self.config.queue_capacity,
        )

    def _next_id(self) -> str:
        number, self._next_number = self._next_number, self._next_number + 1
        return f"req-{number}"

    def _token_for(self, request) -> CancellationToken:
        deadline = request.deadline_seconds
        if deadline is None:
            deadline = self.config.default_deadline_seconds
        return self.root_token.child(deadline_seconds=deadline)

    def depth(self) -> int:
        """Tickets queued (admitted, not yet dispatched) across all slots."""
        return sum(len(slot.queue) for slot in self.slots)

    def _resolve_key(self, kind, request, key, digest) -> Ticket | None:
        """Route a known idempotency key; ``None`` means proceed fresh.

        Raises :class:`ValidationError` when the key was used with a
        different payload. An inflight key returns the live ticket; a
        completed key returns a pre-resolved ticket replaying the stored
        response. A completed key whose stored result has aged out (or
        was unreadable) is forgotten and re-executed — deterministic
        under the key anyway.
        """
        entry = self.keys.get(key)
        if entry is None:
            return None
        state, known, payload = entry
        if known != digest:
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
            logger.info("request with key %s joined inflight %s", key, payload.id)
            return payload
        stored = self.store.get(key) if self.store is not None else None
        if stored is None:
            del self.keys[key]
            return None
        response = replace(decode(ServiceResponse, stored), replayed=True)
        ticket = Ticket(
            id=response.request_id or self._next_id(),
            kind=kind,
            request=request,
            token=CancellationToken(clock=self.clock),
            enqueued_at=self.clock(),
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

    def _forget_key(self, ticket: Ticket) -> None:
        """Drop the key->ticket binding when ``ticket`` ended unstored."""
        entry = self.keys.get(ticket.idempotency_key)
        if entry is not None and entry[0] == "inflight" and entry[2] is ticket:
            del self.keys[ticket.idempotency_key]

    def cancel(self, request_id: str, reason: str) -> list[Effect] | None:
        """Fire a request's token; ``None`` for unknown ids."""
        ticket = self.tickets.get(request_id)
        if ticket is None:
            return None
        ticket.token.cancel(reason)
        self.metrics.incr("service/cancel_requests")
        return [
            Effect("cancel", slot.shard, ticket, reason=reason)
            for slot in self.slots
            if request_id in slot.inflight
        ]

    # ------------------------------------------------------------------
    # Placement and dispatch
    # ------------------------------------------------------------------

    def _routable(self) -> list[int]:
        """Slots that can accept work: alive now, or coming back."""
        return [
            slot.shard
            for slot in self.slots
            if slot.state in ("starting", "alive", "respawning")
        ]

    def _route(self, ticket: Ticket, front: bool = False) -> list[Effect]:
        """Queue the ticket on a slot, write-ahead.

        Keyed tickets go to the ring owner among routable slots (a key
        deterministically maps to a worker); unkeyed tickets go to the
        shortest queue and may later be stolen by any idle slot. With
        every slot quarantined nothing will ever run the ticket: it is
        rejected with a typed ``failover`` response.
        """
        routable = self._routable()
        if not routable:
            return self._end_unstarted(
                ticket,
                "rejected",
                _rejection("failover", "all shard workers are quarantined"),
                "failover",
            )
        if ticket.idempotency_key is not None:
            shard = self.ring.owner(ticket.idempotency_key, routable)
        else:
            shard = min(routable, key=lambda s: len(self.slots[s].queue))
        if shard != ticket.shard:
            if ticket.shard is not None:
                logger.info(
                    "request %s moved shard %s -> %s", ticket.id, ticket.shard, shard
                )
            ticket.shard = shard
            self._write_ahead(ticket)
        if front:
            self.slots[shard].queue.appendleft(ticket)
        else:
            self.slots[shard].queue.append(ticket)
        return []

    def _write_ahead(self, ticket: Ticket) -> None:
        """Make the admission durable in its slot's journal family
        before the ticket can reach an executor (on takeover: re-accept
        into the new owner's family), so a crash at any later point
        replays it."""
        journal = self.slots[ticket.shard].journal
        if journal is None:
            return
        journal.accepted(
            ticket.id,
            ticket.kind,
            encode(ticket.request),
            ticket.idempotency_key,
            ticket.fingerprint,
        )
        # Drill seam: supervisor death between the write-ahead record and
        # the enqueue — the request must be recovered from the journal
        # alone.
        raise_if_crash(
            fault_hit("fleet.route.accepted", request=ticket.id),
            "fleet.route.accepted",
        )

    def _pick(self, slot: Slot) -> Ticket | None:
        """Own queue first; otherwise steal the oldest *unkeyed* ticket
        from the longest queue that has one (the lowest shard's, on a
        tie). Keyed tickets stay with
        their ring owner (placement is what makes a key a key). A stolen
        ticket keeps its journal family: only the executor changes."""
        if slot.queue:
            return slot.queue.popleft()
        victim = None
        for other in self.slots:
            if other is slot or not any(
                t.idempotency_key is None for t in other.queue
            ):
                continue
            if victim is None or len(other.queue) > len(victim.queue):
                victim = other
        if victim is None:
            return None
        ticket = next(t for t in victim.queue if t.idempotency_key is None)
        victim.queue.remove(ticket)
        self.metrics.incr("fleet/steals")
        return ticket

    def _dispatch(self) -> list[Effect]:
        """Hand queued tickets to every alive slot with a free executor."""
        effects: list[Effect] = []
        if self.stopped:
            return effects
        for slot in self.slots:
            while slot.state == "alive" and not slot.inflight:
                ticket = self._pick(slot)
                if ticket is None:
                    break
                queue_seconds = max(0.0, self.clock() - ticket.enqueued_at)
                if ticket.token.cancelled:
                    reason = ticket.token.reason
                    effects += self._end_unstarted(
                        ticket,
                        "cancelled",
                        {
                            "error": "cancelled",
                            "reason": reason,
                            "message": "cancelled before execution started",
                        },
                        reason or "cancelled",
                        queue_seconds,
                    )
                    continue
                self.metrics.observe("service/queue_wait", queue_seconds)
                slot.inflight[ticket.id] = ticket
                effects.append(
                    Effect(
                        "dispatch", slot.shard, ticket, queue_seconds=queue_seconds
                    )
                )
        self.metrics.set_gauge("service/queue_depth", self.depth())
        return effects

    # ------------------------------------------------------------------
    # Execution outcomes
    # ------------------------------------------------------------------

    def on_message(self, shard: int, message: dict) -> list[Effect]:
        """A shard worker's protocol message as the event it stands for:
        ``hello`` → :meth:`worker_ready`, ``heartbeat``, ``started``, and
        ``response`` → :meth:`completed` with the decoded response. Any
        other type is ignored."""
        kind = message.get("type")
        if kind == "hello":
            return self.worker_ready(shard)
        if kind == "heartbeat":
            return self.heartbeat(shard)
        if kind == "started":
            return self.started(shard, message["id"])
        if kind == "response":
            response = decode(ServiceResponse, message["response"])
            return self.completed(shard, message["id"], response)
        return []

    def started(self, shard: int, request_id: str) -> list[Effect]:
        """An executor began the request: journal ``started``."""
        ticket = self.slots[shard].inflight.get(request_id)
        if ticket is not None:
            journal = self.slots[ticket.shard].journal
            if journal is not None:
                journal.started(request_id)
        return []

    def completed(
        self, shard: int, request_id: str, response: ServiceResponse
    ) -> list[Effect]:
        """An executor answered: record the outcome, resolve the ticket."""
        ticket = self.slots[shard].inflight.pop(request_id, None)
        if ticket is None:
            return []  # stale answer from a superseded execution
        self._record_terminal(ticket, response)
        self.metrics.observe("service/latency", response.elapsed_seconds)
        self.metrics.incr(f"service/status/{response.status}")
        return self._resolve(ticket, response) + self._dispatch()

    def _record_terminal(self, ticket: Ticket, response: ServiceResponse) -> None:
        """Make the request's outcome durable before the client sees it.

        ``ok``/``degraded``/``error`` responses are stored (when keyed)
        and journaled ``completed`` — a resubmission replays them.
        ``cancelled`` is journaled without a stored result — a
        resubmission re-executes, which is what a client cancelling and
        retrying means. An *internal* error (the executor itself broke:
        ``MemoryError``, a bug) is no answer to the request either: it is
        journaled ``cancelled(reason="internal")`` and the key forgotten,
        so a retry re-executes instead of replaying the breakage for a
        week. Journal trouble never blocks the response: the client
        still gets its answer, durability is logged as lost.
        """
        journal = self.slots[ticket.shard].journal
        if journal is None:
            return
        key = ticket.idempotency_key
        internal = (
            response.status == "error"
            and (response.error or {}).get("error") == "internal"
        )
        try:
            if response.status in ("ok", "degraded", "error") and not internal:
                if key is not None and self.store is not None:
                    self.store.put(key, encode(response))
                # Drill seam: supervisor death between the durable result
                # and the journal's terminal record — the request must
                # re-execute bit-identically after recovery.
                raise_if_crash(
                    fault_hit("fleet.record_terminal", request=ticket.id),
                    "fleet.record_terminal",
                )
                journal.completed(ticket.id, response.status)
                if key is not None:
                    self.keys[key] = (
                        "completed",
                        ticket.fingerprint,
                        response.status,
                    )
            else:
                reason = (
                    "internal"
                    if internal
                    else (response.error or {}).get("reason", "cancelled")
                )
                journal.cancelled(ticket.id, reason=reason, started=True)
                self._forget_key(ticket)
        except Exception:
            logger.exception(
                "request %s: failed to journal terminal state", ticket.id
            )

    def _resolve(self, ticket: Ticket, response: ServiceResponse) -> list[Effect]:
        ticket.reject(response)
        self.tickets.pop(ticket.id, None)
        logger.info(
            "request %s kind=%s status=%s shard=%s backend=%s elapsed=%.3fs "
            "queue=%.3fs",
            ticket.id,
            ticket.kind,
            response.status,
            ticket.shard,
            response.backend,
            response.elapsed_seconds,
            response.queue_seconds,
        )
        return [Effect("resolve", ticket.shard, ticket, response=response)]

    def _end_unstarted(
        self,
        ticket: Ticket,
        status: str,
        error: dict,
        reason: str,
        queue_seconds: float = 0.0,
    ) -> list[Effect]:
        """Resolve a ticket no executor ever began. The journal must
        agree it ended unstarted, or the next process would re-execute
        work the client saw rejected."""
        journal = self.slots[ticket.shard].journal
        if journal is not None:
            journal.cancelled(ticket.id, reason=reason, started=False)
        self._forget_key(ticket)
        self.metrics.incr(f"service/status/{status}")
        response = ServiceResponse(
            request_id=ticket.id,
            status=status,
            error=error,
            queue_seconds=queue_seconds,
        )
        return self._resolve(ticket, response)

    # ------------------------------------------------------------------
    # Executors: liveness, loss, takeover
    # ------------------------------------------------------------------

    def start(self) -> list[Effect]:
        """Begin serving: age out old results and the journal segments
        that remember only them, ask for every executor. A family keeps
        the terminal record of a request another family (a slot's or a
        foreign one) still holds accepted: without it the request would
        replay as pending there."""
        if self.store is not None:
            ttl = self.config.result_ttl_seconds
            self.store.compact(ttl)
            for journal in self.journals:
                others = self._foreign + [
                    other.replay() for other in self.journals if other is not journal
                ]
                journal.gc(ttl, self._terminal_ids, kept_ids=_accepted_ids(others))
        return [self._spawn(slot) for slot in self.slots]

    def _spawn(self, slot: Slot) -> Effect:
        slot.generation += 1
        slot.spawned_at = self.clock()
        slot.respawn_at = None
        slot.inflight.clear()
        self._set_state(slot, "starting")
        self.heartbeats.annotate(
            slot.name, shard=slot.shard, generation=slot.generation
        )
        return Effect("spawn", slot.shard)

    def _set_state(self, slot: Slot, state: str) -> None:
        slot.state = state
        self.heartbeats.annotate(slot.name, status=state)

    def worker_ready(self, shard: int) -> list[Effect]:
        """The slot's executor said hello: it may be dispatched to."""
        slot = self.slots[shard]
        if slot.state == "starting":
            self._set_state(slot, "alive")
        return self.heartbeat(shard) + self._dispatch()

    def heartbeat(self, shard: int) -> list[Effect]:
        slot = self.slots[shard]
        self.heartbeats.beat(slot.name, busy=bool(slot.inflight))
        return []

    def tick(self) -> list[Effect]:
        """Time passed: judge silent and slow-starting executors, spawn
        the ones whose backoff is over."""
        effects: list[Effect] = []
        if self.stopped:
            return effects
        now = self.clock()
        misses = self.config.heartbeat_misses
        for slot in self.slots:
            if slot.state == "alive" and self.heartbeats.missed(
                slot.name, self.config.heartbeat_interval_seconds, misses
            ):
                effects += self.worker_lost(
                    slot.shard, f"missed {misses} heartbeats"
                )
            elif (
                slot.state == "starting"
                and now - slot.spawned_at > STARTUP_TIMEOUT_SECONDS
            ):
                effects += self.worker_lost(slot.shard, "startup timeout")
            elif slot.state == "respawning" and now >= slot.respawn_at:
                effects.append(self._spawn(slot))
                self.metrics.incr("fleet/respawns")
        return effects + self._dispatch()

    def worker_lost(self, shard: int, why: str) -> list[Effect]:
        """Declare a slot's executor dead: kill it (a silent worker must
        not come back and answer for work that has been handed over),
        decide whether it respawns with backoff or is quarantined (a
        flapping slot, whose key range the survivors keep serving), and
        move its requests to the survivors — or, with none left, keep
        them for the slot's next executor."""
        slot = self.slots[shard]
        if self.stopped or slot.state not in ("starting", "alive"):
            return []
        logger.warning("%s declared dead (%s)", slot.name, why)
        self.metrics.incr("fleet/worker_deaths")
        delay = self.restarts.record_failure(slot.name)
        self._set_state(slot, "dead")
        effects = [Effect("kill", shard)] + self._takeover(slot, delay is not None)
        if delay is None:
            self._set_state(slot, "quarantined")
            self.metrics.incr("fleet/quarantined")
            logger.error(
                "%s quarantined after %d restarts; shard served by survivors",
                slot.name,
                self.restarts.total_restarts(slot.name),
            )
        else:
            self._set_state(slot, "respawning")
            slot.respawn_at = self.clock() + delay
            logger.info("%s respawning in %.2fs", slot.name, delay)
        return effects + self._dispatch()

    def _takeover(self, slot: Slot, respawning: bool) -> list[Effect]:
        """Re-route a dead slot's live tickets — the objects holding the
        futures clients are blocked on. The orphaned in-flight request
        goes to the *front* of its new queue flagged ``recovered`` (its
        id keeps the seed, so the replay is bit-identical), queued
        tickets behind it in arrival order. A slot that will respawn and
        has no routable survivor keeps them, in that order, for its next
        executor. The journal is not read: what it holds is what a
        *restarted* supervisor recovers from."""
        orphans = list(slot.inflight.values())
        queued = list(slot.queue)
        slot.inflight.clear()
        slot.queue.clear()
        for ticket in orphans:
            ticket.recovered = True
            self.metrics.incr("fleet/orphans_recovered")
        if respawning and not self._routable():
            slot.queue.extend(orphans + queued)
            return []
        effects: list[Effect] = []
        for ticket in reversed(orphans):
            effects += self._route(ticket, front=True)
        for ticket in queued:
            effects += self._route(ticket)
        return effects

    # ------------------------------------------------------------------
    # Drain, stop, recovery
    # ------------------------------------------------------------------

    def drain(self) -> list[Effect]:
        """Stop admitting; reject every queued ticket, typed and
        journaled. In-flight requests are unaffected — the graceful
        contract is "in-flight finish, queued get a typed rejection"."""
        self.draining = True
        effects: list[Effect] = []
        for slot in self.slots:
            stranded = list(slot.queue)
            slot.queue.clear()
            for ticket in stranded:
                effects += self._end_unstarted(
                    ticket,
                    "rejected",
                    _rejection(
                        "draining", "service is draining; request was not started"
                    ),
                    "draining",
                )
        return effects

    def cancel_inflight(self, reason: str) -> list[Effect]:
        """Cancel whatever is still executing into an anytime result."""
        effects = []
        for slot in self.slots:
            for ticket in slot.inflight.values():
                ticket.token.cancel(reason)
                effects.append(Effect("cancel", slot.shard, ticket, reason=reason))
        return effects

    def stop(self) -> None:
        """Hard stop, first half: shed everything new, dispatch nothing
        more, cancel what runs, judge no executor (``tick`` and
        ``worker_lost`` do nothing). Executors may still report
        outcomes."""
        self.draining = self.stopped = True
        self.root_token.cancel("service stopped")

    def close(self) -> None:
        """Hard stop, second half: executors are gone. Whatever is still
        open is answered ``stopped`` *without* a journal record — it was
        accepted, so the next process recovers it."""
        for ticket in self.tickets.values():
            ticket.reject(
                ServiceResponse(
                    request_id=ticket.id,
                    status="rejected",
                    error=_rejection(
                        "stopped", "service stopped before the request ran"
                    ),
                )
            )
        self.tickets.clear()
        for slot in self.slots:
            slot.queue.clear()
            slot.inflight.clear()
        for journal in self.journals:
            journal.close()

    def _rebuild_pending(self) -> None:
        """Turn the journals' replay state into queued tickets.

        Every segment family in the directory is folded in: the slots'
        own, and *foreign* ones no slot owns — the unsharded family an
        earlier single-process service wrote, or shards past the slot
        count of a fleet that shrank. Their keys, terminal ids and
        request numbers count as the slots' own, so no key re-executes
        and no id is handed out twice. A request a takeover moved is
        pending in its old family and finished in its new one: terminal
        anywhere means done.

        Recovered tickets keep their journaled ids (the seed derivation
        and any client polling depend on that) and are flagged so the
        result's runtime metadata discloses the re-execution. A ticket
        pending in a slot's family queues on that slot; one pending only
        in a foreign family is routed like a takeover — to its key's
        ring owner, re-accepted into that slot's family. A journaled
        request that no longer validates (topology changed under it) is
        journaled cancelled rather than crashing the service.
        """
        owned = [journal.replay() for journal in self.journals]
        self._foreign = foreign = self._foreign_states()
        self._terminal_ids: set[str] = set()
        for state in owned + foreign:
            self._terminal_ids |= state.terminal_ids
            for key, (digest, status) in state.keys.items():
                self.keys[key] = ("completed", digest, status)
        # New ids start past every journaled id, so a restart can never
        # hand out an id the journal already knows.
        self._next_number = 1 + max(
            (state.max_request_number for state in owned + foreign), default=0
        )
        homes = list(zip(self.slots, owned)) + [(None, state) for state in foreign]
        for home, state in homes:
            for entry in state.pending:
                if (
                    entry.request_id in self._terminal_ids
                    or entry.request_id in self.tickets
                ):
                    continue
                try:
                    request_cls = (
                        SearchRequest if entry.kind == "search" else AssessRequest
                    )
                    request = decode(request_cls, entry.request)
                    request.validate(self.topology)
                except ValidationError as exc:
                    logger.warning(
                        "recovery: dropping journaled request %s (%s)",
                        entry.request_id,
                        exc,
                    )
                    (home or self.slots[0]).journal.cancelled(
                        entry.request_id,
                        reason="unrecoverable",
                        started=entry.started,
                    )
                    continue
                ticket = Ticket(
                    id=entry.request_id,
                    kind=entry.kind,
                    request=request,
                    token=self._token_for(request),
                    enqueued_at=self.clock(),
                    recovered=True,
                    shard=None if home is None else home.shard,
                    fingerprint=entry.fingerprint,
                )
                self.tickets[ticket.id] = ticket
                if home is None:
                    self._route(ticket)
                else:
                    home.queue.append(ticket)
                if entry.idempotency_key is not None:
                    self.keys[entry.idempotency_key] = (
                        "inflight",
                        entry.fingerprint,
                        ticket,
                    )
        if self.tickets:
            self.metrics.incr("service/recovered", len(self.tickets))
            logger.info(
                "recovery: re-enqueued %d journaled request(s)", len(self.tickets)
            )

    def _foreign_states(self) -> list:
        """Read-only replays of the journal directory's segment families
        that no slot owns, unsharded first."""
        if not self.journals:
            return []
        directory = self.journals[0].directory
        owned = {journal.shard for journal in self.journals}
        families = RequestJournal.families(directory) - owned
        return [
            RequestJournal.scan(directory, shard=family)
            for family in sorted(families, key=lambda f: -1 if f is None else f)
        ]
