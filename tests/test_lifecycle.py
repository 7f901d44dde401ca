"""The request-lifecycle core, thread-free, and the drivers around it.

The first half feeds :class:`RequestLifecycle` events on a fake clock and
reads the effects, the journal and the store — no thread, process or
sleep. The second half checks that the forked fleet and the
deterministic drill really run that one core: the fleet journals one
lifecycle per request and stores the answer it gave, a crashed executor
follows one rule, the seams live in the core, and the drill notices when
the core's durability order is broken.
"""

from __future__ import annotations

import ast
import inspect
import multiprocessing
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.drill.engine import run_campaign
from repro.drill.sim import DrillSim
from repro.serialization import encode
from repro.service import executor, fleet, lifecycle
from repro.service.fleet import FleetSupervisor, ServiceConfig, ShardWorker
from repro.service.journal import RequestJournal, segment_families
from repro.service.lifecycle import RequestLifecycle, open_state
from repro.service.requests import AssessRequest, ServiceResponse
from repro.service.store import ResultStore
from repro.util.errors import AdmissionRejected, ConfigurationError, ValidationError
from repro.util.faultpoints import FaultPoints, armed, fault_hit, raise_if_crash

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker fleet requires the fork start method",
)

TOPOLOGY = SimpleNamespace(components=frozenset(f"h{i}" for i in range(8)))


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _request(key=None, host="h0", k=1):
    return AssessRequest(hosts=(host,), k=k, idempotency_key=key)


def _core(tmp_path, slots=1, up=True, **overrides):
    """A core over a real journal directory, one segment family per
    slot; ``up`` brings every slot alive (as the fleet's ``start`` + each
    worker's hello would)."""
    config = ServiceConfig(
        journal_dir=None if tmp_path is None else os.fspath(tmp_path),
        **overrides,
    )
    core = RequestLifecycle(
        config,
        TOPOLOGY,
        *open_state(config, slots),
        slots=slots,
        clock=FakeClock(),
    )
    if up:
        assert [e.kind for e in core.start()] == ["spawn"] * slots
        for shard in range(slots):
            core.worker_ready(shard)
    return core


def _fleet_core(tmp_path, slots=2, **overrides):
    return _core(tmp_path, slots=slots, **overrides)


def _ok(ticket, result=None):
    return ServiceResponse(
        request_id=ticket.id, status="ok", result=result or {"score": 0.5}
    )


def _events(directory, request_id, shard=...):
    state = RequestJournal.scan(directory, shard=shard)
    return [e["event"] for e in state.events.get(request_id, [])]


def _kinds(effects):
    return [effect.kind for effect in effects]


def _first_ids(core):
    return [core.admit("assess", _request())[0].id for _ in range(2)]


def _key_owned_by(core, shard, taken=()):
    return next(
        key
        for key in (f"key-{i}" for i in range(1000))
        if core.ring.owner(key) == shard and key not in taken
    )


class TestAdmission:
    """The bounded admission queue's contract, now the core's."""

    def test_fifo_and_depth(self, tmp_path):
        core = _core(tmp_path, up=False)
        a, _ = core.admit("assess", _request())
        b, _ = core.admit("assess", _request())
        assert core.depth() == 2
        core.start()
        (first,) = core.worker_ready(0)
        assert (first.kind, first.ticket) == ("dispatch", a)
        assert core.depth() == 1
        resolve, second = core.completed(0, a.id, _ok(a))
        assert (resolve.kind, resolve.ticket) == ("resolve", a)
        assert (second.kind, second.ticket) == ("dispatch", b)

    def test_overflow_is_typed_and_immediate(self, tmp_path):
        core = _core(tmp_path, up=False, queue_capacity=2)
        core.admit("assess", _request())
        core.admit("assess", _request())
        with pytest.raises(AdmissionRejected) as excinfo:
            core.admit("assess", _request())
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.capacity == 2
        assert core.metrics.counter("service/shed") == 1

    def test_a_shed_submission_leaves_the_journal_untouched(self, tmp_path):
        """Shed before journaling: saying no costs no fsync."""

        def journal_bytes():
            return {
                name: (tmp_path / name).read_bytes()
                for name in sorted(os.listdir(tmp_path))
                if name.endswith(".waj")
            }

        core = _core(tmp_path, up=False, queue_capacity=1)
        core.admit("assess", _request("kept"))
        before = journal_bytes()
        with pytest.raises(AdmissionRejected, match="full"):
            core.admit("assess", _request("shed"))
        core.draining = True
        with pytest.raises(AdmissionRejected, match="draining"):
            core.admit("assess", _request("late"))
        assert journal_bytes() == before
        assert "shed" not in core.keys and "late" not in core.keys

    def test_drain_rejects_stranded_and_new(self, tmp_path):
        core = _core(tmp_path, up=False)
        tickets = [core.admit("assess", _request(f"k{i}"))[0] for i in range(2)]
        effects = core.drain()
        assert _kinds(effects) == ["resolve", "resolve"]
        for ticket in tickets:
            response = ticket.future.result(timeout=0)
            assert response.status == "rejected"
            assert response.error["reason"] == "draining"
            assert _events(tmp_path, ticket.id) == ["accepted", "cancelled"]
        # Rejected tickets are forgotten, not left open behind the drain.
        assert core.depth() == 0 and not core.tickets and not core.keys
        with pytest.raises(AdmissionRejected) as excinfo:
            core.admit("assess", _request())
        assert excinfo.value.reason == "draining"

    def test_stopped_core_rejects_with_stopped(self, tmp_path):
        core = _core(tmp_path)
        core.stop()
        with pytest.raises(AdmissionRejected) as excinfo:
            core.admit("assess", _request())
        assert excinfo.value.reason == "stopped"

    def test_recovered_tickets_queue_first_and_bypass_capacity(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            for number in (3, 4, 5):
                journal.accepted(f"req-{number}", "assess", encode(_request()))
        core = _core(tmp_path, up=False, queue_capacity=1)
        # Already admitted once: never shed, original order kept.
        assert [t.id for t in core.slots[0].queue] == ["req-3", "req-4", "req-5"]
        assert all(t.recovered for t in core.slots[0].queue)
        with pytest.raises(AdmissionRejected):
            core.admit("assess", _request())
        core.start()
        (first,) = core.worker_ready(0)
        assert first.ticket.id == "req-3"
        # And new ids start past everything the journal knows.
        core.completed(0, "req-3", _ok(first.ticket))
        core.completed(0, "req-4", _ok(core.tickets["req-4"]))
        core.completed(0, "req-5", _ok(core.tickets["req-5"]))
        fresh, _ = core.admit("assess", _request())
        assert fresh.id == "req-6"

    def test_dispatch_carries_the_time_queued(self, tmp_path):
        core = _core(tmp_path, up=False)
        ticket, _ = core.admit("assess", _request())
        core.clock.now += 2.5
        core.start()
        (dispatch,) = core.worker_ready(0)
        assert (dispatch.ticket, dispatch.queue_seconds) == (ticket, 2.5)

    def test_ids_count_from_one_past_every_journaled_id(self, tmp_path):
        assert _first_ids(_core(None)) == ["req-1", "req-2"]
        journal = RequestJournal(os.fspath(tmp_path), shard=0)
        journal.accepted("req-41", "assess", encode(_request()), None, None)
        journal.completed("req-41", "ok")
        journal.close()
        assert _first_ids(_core(tmp_path)) == ["req-42", "req-43"]

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValidationError) as excinfo:
            _core(tmp_path, queue_capacity=0)
        assert excinfo.value.fields() == ("queue_capacity",)


class TestIdempotency:
    def test_duplicate_key_joins_the_live_ticket(self, tmp_path):
        core = _core(tmp_path)
        first, effects = core.admit("assess", _request("job"))
        assert _kinds(effects) == ["dispatch"]
        second, effects = core.admit("assess", _request("job"))
        assert second is first and effects == []
        assert core.metrics.counter("service/idempotent_joins") == 1
        assert _events(tmp_path, first.id) == ["accepted"]

    def test_key_reuse_with_another_payload_is_a_validation_error(self, tmp_path):
        core = _core(tmp_path)
        core.admit("assess", _request("job", host="h0"))
        with pytest.raises(ValidationError, match="different request payload"):
            core.admit("assess", _request("job", host="h1"))

    def test_completed_key_replays_the_stored_response(self, tmp_path):
        core = _core(tmp_path)
        ticket, _ = core.admit("assess", _request("job"))
        core.completed(0, ticket.id, _ok(ticket, {"score": 0.25}))
        again, effects = core.admit("assess", _request("job"))
        assert effects == []
        response = again.future.result(timeout=0)
        assert response.replayed and response.request_id == ticket.id
        assert response.result == {"score": 0.25}
        assert core.metrics.counter("service/idempotent_replays") == 1

    def test_aged_out_result_is_reexecuted(self, tmp_path):
        core = _core(tmp_path)
        ticket, _ = core.admit("assess", _request("job"))
        core.completed(0, ticket.id, _ok(ticket))
        assert core.store.compact(0.0)  # every stored result ages out
        fresh, effects = core.admit("assess", _request("job"))
        assert fresh.id != ticket.id and not fresh.future.done()
        assert _kinds(effects) == ["dispatch"]

    def test_cancel_before_start_is_journaled_unstarted_and_retried_fresh(
        self, tmp_path
    ):
        core = _core(tmp_path, up=False)
        ticket, _ = core.admit("assess", _request("job"))
        assert core.cancel(ticket.id, "changed my mind") == []  # not dispatched
        assert core.cancel("req-unknown", "x") is None
        core.start()
        (resolve,) = core.worker_ready(0)
        assert resolve.kind == "resolve"
        response = ticket.future.result(timeout=0)
        assert response.status == "cancelled"
        assert response.error["reason"] == "changed my mind"
        state = RequestJournal.scan(tmp_path)
        assert state.events[ticket.id][-1]["event"] == "cancelled"
        assert state.events[ticket.id][-1]["reason"] == "changed my mind"
        assert "job" not in core.keys
        fresh, effects = core.admit("assess", _request("job"))
        assert fresh.id != ticket.id and _kinds(effects) == ["dispatch"]

    def test_cancel_of_a_dispatched_ticket_is_forwarded(self, tmp_path):
        core = _core(tmp_path)
        ticket, _ = core.admit("assess", _request())
        (effect,) = core.cancel(ticket.id, "stop")
        assert (effect.kind, effect.shard, effect.reason) == ("cancel", 0, "stop")
        assert ticket.token.cancelled

    def test_fresh_keyed_request_costs_three_appends_one_fingerprint(
        self, tmp_path, monkeypatch
    ):
        appends, digests = [], []
        real_append = RequestJournal._append
        real_fingerprint = lifecycle.fingerprint
        monkeypatch.setattr(
            RequestJournal,
            "_append",
            lambda self, record: (
                appends.append(record["event"]),
                real_append(self, record),
            )[1],
        )
        monkeypatch.setattr(
            lifecycle,
            "fingerprint",
            lambda request: (digests.append(1), real_fingerprint(request))[1],
        )
        core = _fleet_core(tmp_path)
        ticket, _ = core.admit("assess", _request("job"))
        core.started(ticket.shard, ticket.id)
        core.completed(ticket.shard, ticket.id, _ok(ticket))
        assert appends == ["accepted", "started", "completed"]
        assert len(digests) == 1


class TestTerminalRecords:
    """What each kind of executor outcome leaves in the journal, the
    store and the key table."""

    def _finish(self, tmp_path, key, status, error):
        core = _core(tmp_path)
        ticket, _ = core.admit("assess", _request(key))
        response = ServiceResponse(ticket.id, status, error=error)
        core.completed(0, ticket.id, response)
        last = RequestJournal.scan(tmp_path).events[ticket.id][-1]
        return core, ticket, response, last

    def test_an_error_answer_is_stored_and_replayed(self, tmp_path):
        core, ticket, answer, last = self._finish(
            tmp_path, "job", "error", {"error": "validation", "message": "no"}
        )
        assert last["event"] == "completed"
        assert core.keys["job"] == ("completed", ticket.fingerprint, "error")
        assert core.store.get("job") == encode(answer)

    def test_an_executor_crash_is_no_answer_and_unbinds_the_key(self, tmp_path):
        core, _, _, last = self._finish(
            tmp_path, "job", "error", {"error": "internal", "message": "boom"}
        )
        assert (last["event"], last["reason"]) == ("cancelled", "internal")
        assert "job" not in core.keys and core.store.get("job") is None

    def test_a_cancelled_run_is_journaled_with_its_reason(self, tmp_path):
        core, _, _, last = self._finish(
            tmp_path, "job", "cancelled", {"error": "cancelled", "reason": "deadline"}
        )
        assert (last["event"], last["reason"]) == ("cancelled", "deadline")
        assert "job" not in core.keys and core.store.get("job") is None

    def test_an_unkeyed_answer_is_journaled_and_not_stored(self, tmp_path):
        core, ticket, _, last = self._finish(tmp_path, None, "ok", None)
        assert _events(tmp_path, ticket.id) == ["accepted", "completed"]
        assert not os.listdir(tmp_path / "results")


class TestOnMessage:
    """One mapping from a worker's protocol message to its core event,
    shared by the fleet's event loop and the drill."""

    def test_hello_makes_the_starting_slot_alive_and_dispatches(self, tmp_path):
        core = _core(tmp_path, up=False)
        ticket, _ = core.admit("assess", _request())
        core.start()
        assert core.slots[0].state == "starting"
        (effect,) = core.on_message(0, {"type": "hello", "shard": 0, "pid": 1})
        assert core.slots[0].state == "alive"
        assert (effect.kind, effect.ticket) == ("dispatch", ticket)
        assert core.heartbeats.age("shard-0") is not None

    def test_heartbeat_is_proof_of_life(self, tmp_path):
        core = _core(tmp_path)
        core.clock.now += 5.0
        assert core.heartbeats.age("shard-0") == 5.0
        assert core.on_message(0, {"type": "heartbeat", "shard": 0}) == []
        assert core.heartbeats.age("shard-0") == 0.0

    def test_started_journals_started(self, tmp_path):
        core = _core(tmp_path)
        ticket, _ = core.admit("assess", _request("job"))
        assert core.on_message(0, {"type": "started", "id": ticket.id}) == []
        assert _events(tmp_path, ticket.id) == ["accepted", "started"]

    def test_a_response_is_completed_with_the_decoded_response(self, tmp_path):
        """Stored, journaled and resolved exactly as ``completed`` with
        the response the pipe message encodes."""

        def direct(core, ticket, response):
            return core.completed(0, ticket.id, response)

        def as_message(core, ticket, response):
            message = {"type": "response", "id": ticket.id}
            return core.on_message(0, dict(message, response=encode(response)))

        outcomes = []
        for directory, deliver in (
            (tmp_path / "direct", direct),
            (tmp_path / "message", as_message),
        ):
            core = _core(directory)
            ticket, _ = core.admit("assess", _request("job"))
            follower, _ = core.admit("assess", _request())
            response = ServiceResponse(
                request_id=ticket.id,
                status="degraded",
                result={"score": 0.75, "rounds": 3},
                elapsed_seconds=0.5,
                queue_seconds=0.25,
                backend="chunked-sequential",
            )
            effects = deliver(core, ticket, response)
            assert [(e.kind, e.ticket) for e in effects] == [
                ("resolve", ticket), ("dispatch", follower),
            ]
            assert effects[0].response == response
            assert ticket.future.result(timeout=0) == response
            assert core.keys["job"] == ("completed", ticket.fingerprint, "degraded")
            outcomes.append(
                (core.store.get("job"), _events(directory, ticket.id), ticket.id)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == encode(response)
        assert outcomes[0][1] == ["accepted", "completed"]

    def test_unknown_types_are_ignored(self, tmp_path):
        core = _core(tmp_path, up=False)
        ticket, _ = core.admit("assess", _request("job"))
        core.start()
        for message in ({"type": "bogus", "id": ticket.id}, {"id": ticket.id}):
            assert core.on_message(0, message) == []
        assert core.slots[0].state == "starting"
        assert core.heartbeats.age("shard-0") is None
        assert _events(tmp_path, ticket.id) == ["accepted"]


class TestFailover:
    def test_worker_lost_midflight_orphan_leads_the_survivors_queue(
        self, tmp_path
    ):
        core = _fleet_core(tmp_path)
        victim_key = _key_owned_by(core, 0)
        busy_key = _key_owned_by(core, 1)
        queued_key = _key_owned_by(core, 1, taken=(busy_key,))
        core.admit("assess", _request(busy_key))
        queued, _ = core.admit("assess", _request(queued_key))
        orphan, effects = core.admit("assess", _request(victim_key))
        assert [(e.kind, e.shard) for e in effects] == [("dispatch", 0)]
        core.started(0, orphan.id)

        effects = core.worker_lost(0, "process exited")
        assert _kinds(effects) == ["kill"]
        assert list(core.slots[1].queue) == [orphan, queued]
        assert orphan.recovered and orphan.shard == 1
        assert not queued.recovered
        assert core.slots[0].state == "respawning"
        # Re-accepted into the survivor's family; the dead family keeps
        # its half of the story and nothing more is ever written there.
        assert _events(tmp_path, orphan.id, shard=0) == ["accepted", "started"]
        assert _events(tmp_path, orphan.id, shard=1) == ["accepted"]
        assert core.metrics.counter("fleet/orphans_recovered") == 1
        # The survivor finishes it, in its own family.
        core.completed(1, next(iter(core.slots[1].inflight)), _ok(orphan))
        assert orphan.id in core.slots[1].inflight
        core.completed(1, orphan.id, _ok(orphan))
        assert _events(tmp_path, orphan.id, shard=1) == ["accepted", "completed"]

    def test_silent_worker_is_killed_and_respawned_after_backoff(self, tmp_path):
        core = _fleet_core(
            tmp_path,
            heartbeat_interval_seconds=1.0,
            heartbeat_misses=3,
            respawn_backoff_seconds=2.0,
        )
        clock = core.clock
        clock.now += 2.9
        core.heartbeat(1)
        assert core.tick() == []
        clock.now += 0.2  # shard 0 has now been silent for 3.1 s
        effects = core.tick()
        assert [(e.kind, e.shard) for e in effects] == [("kill", 0)]
        assert core.slots[0].state == "respawning"
        core.heartbeat(1)
        clock.now += 1.9
        core.heartbeat(1)
        assert core.tick() == []  # still backing off
        clock.now += 0.2
        core.heartbeat(1)
        effects = core.tick()
        assert [(e.kind, e.shard) for e in effects] == [("spawn", 0)]
        assert core.slots[0].state == "starting"
        assert core.slots[0].generation == 2

    def test_quarantining_every_slot_rejects_with_typed_failover(self, tmp_path):
        core = _fleet_core(tmp_path, quarantine_restarts=0)
        core.admit("assess", _request())  # dispatched to shard 0
        queued, _ = core.admit("assess", _request(_key_owned_by(core, 0)))
        core.worker_lost(0, "process exited")
        assert core.slots[0].state == "quarantined"
        assert queued in core.slots[1].queue or queued.id in core.slots[1].inflight
        effects = core.worker_lost(1, "process exited")
        assert core.slots[1].state == "quarantined"
        assert _kinds(effects).count("resolve") == 2
        response = queued.future.result(timeout=0)
        assert response.status == "rejected"
        assert response.error["reason"] == "failover"
        assert not core.tickets and not core.keys
        assert RequestJournal.scan(tmp_path).pending == []
        with pytest.raises(AdmissionRejected) as excinfo:
            core.admit("assess", _request())
        assert excinfo.value.reason == "failover"

    def test_a_lone_slot_that_respawns_keeps_its_tickets_orphans_first(
        self, tmp_path
    ):
        """With no survivor, a slot that will respawn is where its work
        waits: the orphan leads its queue flagged ``recovered``, nothing
        is rejected, and its next executor runs both in its own family."""
        core = _core(tmp_path, slots=1, respawn_backoff_seconds=2.0)
        orphan, effects = core.admit("assess", _request("key-a"))
        assert [(e.kind, e.shard) for e in effects] == [("dispatch", 0)]
        core.started(0, orphan.id)
        queued, _ = core.admit("assess", _request("key-b"))

        effects = core.worker_lost(0, "missed 3 heartbeats")
        assert _kinds(effects) == ["kill"]
        assert core.slots[0].state == "respawning"
        assert list(core.slots[0].queue) == [orphan, queued]
        assert orphan.recovered and not queued.recovered
        assert not orphan.future.done() and not queued.future.done()
        assert core.metrics.counter("fleet/orphans_recovered") == 1
        assert core.metrics.counter("service/rejected") == 0

        core.clock.now += 2.0
        assert _kinds(core.tick()) == ["spawn"]
        (dispatch,) = core.worker_ready(0)
        assert (dispatch.kind, dispatch.ticket) == ("dispatch", orphan)
        _resolve, second = core.completed(0, orphan.id, _ok(orphan))
        assert (second.kind, second.ticket) == ("dispatch", queued)
        assert orphan.future.result(timeout=0).status == "ok"
        assert _events(tmp_path, orphan.id, shard=0) == [
            "accepted",
            "started",
            "completed",
        ]

    def test_a_lone_slot_that_is_quarantined_rejects_its_tickets(self, tmp_path):
        core = _core(tmp_path, slots=1, quarantine_restarts=0)
        orphan, _ = core.admit("assess", _request("key-a"))
        core.worker_lost(0, "process exited")
        assert core.slots[0].state == "quarantined"
        response = orphan.future.result(timeout=0)
        assert response.status == "rejected"
        assert response.error["reason"] == "failover"

    def test_idle_slot_steals_unkeyed_work_but_never_a_key(self, tmp_path):
        core = _fleet_core(tmp_path, up=False)
        keyed, _ = core.admit("assess", _request(_key_owned_by(core, 0)))
        pinned, _ = core.admit(
            "assess",
            _request(_key_owned_by(core, 0, taken=(keyed.idempotency_key,))),
        )
        loose, _ = core.admit("assess", _request())  # shortest queue: shard 1
        other, _ = core.admit("assess", _request())
        core.start()
        home = {t.id: t.shard for t in (keyed, pinned, loose, other)}
        assert home[keyed.id] == home[pinned.id] == 0
        loose_on_zero = [t for t in (loose, other) if home[t.id] == 0]
        effects = core.worker_ready(1)
        taken = [e.ticket for e in effects if e.kind == "dispatch"]
        assert len(taken) == 1 and taken[0].idempotency_key is None
        while core.slots[1].inflight:
            (ticket,) = core.slots[1].inflight.values()
            core.started(1, ticket.id)
            core.completed(1, ticket.id, _ok(ticket))
        # Shard 1 drained every unkeyed ticket, its own and shard 0's;
        # the keyed ones still wait for their owner.
        assert list(core.slots[0].queue) == [keyed, pinned]
        assert core.metrics.counter("fleet/steals") == len(loose_on_zero)
        for ticket in loose_on_zero:  # stolen work stays in its own family
            assert _events(tmp_path, ticket.id, shard=0) == [
                "accepted", "started", "completed",
            ]

    def test_a_tie_for_the_longest_queue_is_stolen_from_the_lowest_shard(
        self, tmp_path
    ):
        core = _core(tmp_path, slots=3, up=False)
        tickets = [core.admit("assess", _request())[0] for _ in range(6)]
        assert [t.shard for t in tickets] == [0, 1, 2, 0, 1, 2]
        core.start()
        for shard in (1, 2, 0):  # each takes the head of its own queue
            core.worker_ready(shard)
        core.completed(0, tickets[0].id, _ok(tickets[0]))  # then its own next
        resolve, steal = core.completed(0, tickets[3].id, _ok(tickets[3]))
        assert (steal.kind, steal.shard, steal.ticket) == ("dispatch", 0, tickets[4])

    def test_a_worker_that_never_says_hello_is_lost_after_a_minute(self, tmp_path):
        core = _fleet_core(tmp_path, up=False)
        core.start()
        core.worker_ready(0)
        core.clock.now += lifecycle.STARTUP_TIMEOUT_SECONDS
        core.heartbeat(0)
        assert core.tick() == []
        core.clock.now += 0.5
        core.heartbeat(0)
        assert _kinds(core.tick()) == ["kill"]
        assert [slot.state for slot in core.slots] == ["alive", "respawning"]

    def test_a_respawn_is_due_the_moment_its_backoff_ends(self, tmp_path):
        core = _fleet_core(tmp_path, respawn_backoff_seconds=0.25)
        assert _kinds(core.worker_lost(1, "process exited")) == ["kill"]
        assert core.worker_lost(1, "process exited") == []  # already dead
        core.clock.now += 0.25
        core.heartbeat(0)
        assert _kinds(core.tick()) == ["spawn"]
        assert core.slots[1].state == "starting"

    def test_a_stopped_core_judges_no_executor(self, tmp_path):
        """After ``stop`` the fleet winds its workers down: no silence,
        exit or startup delay is a loss, nothing is taken over."""
        core = _fleet_core(tmp_path)
        ticket, _ = core.admit("assess", _request())
        core.stop()
        core.clock.now += 2 * lifecycle.STARTUP_TIMEOUT_SECONDS
        assert core.tick() == []
        assert core.worker_lost(ticket.shard, "process exited") == []
        assert [slot.state for slot in core.slots] == ["alive", "alive"]
        assert core.slots[ticket.shard].inflight == {ticket.id: ticket}
        assert _events(tmp_path, ticket.id, shard=ticket.shard) == ["accepted"]

    def test_moved_and_finished_request_is_not_resurrected(self, tmp_path):
        """A takeover leaves the request pending in the dead family and
        finished in the survivor's: terminal anywhere means done."""
        payload = encode(_request("moved"))
        with RequestJournal(tmp_path, shard=1) as dead:
            dead.accepted("req-5", "assess", payload, "moved", "fp")
            dead.started("req-5")
        with RequestJournal(tmp_path, shard=0) as survivor:
            survivor.accepted("req-5", "assess", payload, "moved", "fp")
            survivor.completed("req-5", "ok")
        core = _fleet_core(tmp_path, up=False)
        assert not core.tickets and core.depth() == 0
        assert core.keys["moved"] == ("completed", "fp", "ok")

    def test_full_restart_recovers_each_family_onto_its_slot(self, tmp_path):
        with RequestJournal(tmp_path, shard=1) as journal:
            ghost = _request("ghost")
            journal.accepted(
                "req-7", "assess", encode(ghost), "ghost",
                lifecycle.fingerprint(ghost),
            )
            journal.accepted("req-9", "assess", {"hosts": ["nowhere"], "k": 1})
        core = _fleet_core(tmp_path, up=False)
        (ticket,) = core.slots[1].queue
        assert (ticket.id, ticket.recovered, ticket.shard) == ("req-7", True, 1)
        assert core.keys["ghost"][0] == "inflight"
        assert core.metrics.counter("service/recovered") == 1
        # The request that no longer validates was dropped loudly.
        assert "req-9" in RequestJournal.scan(tmp_path).terminal_ids
        again, _ = core.admit("assess", _request("ghost"))
        assert again is ticket
        # Not re-accepted: its family already holds the record.
        assert _events(tmp_path, "req-7") == ["accepted"]


class TestForeignFamilies:
    """A journal directory holding segment families no slot owns — the
    unsharded family of an earlier single-process service, or shards a
    shrunk fleet no longer runs — keeps exactly-once: their keys replay,
    their ids are never handed out again, their pending requests run
    once."""

    def test_a_shrunk_fleet_replays_the_dropped_shards_keys(self, tmp_path):
        wide = _fleet_core(tmp_path, slots=3)
        done = {}
        for index in range(8):  # keys on every shard, the third included
            key = _key_owned_by(wide, index % 3, taken=tuple(done))
            ticket, _ = wide.admit("assess", _request(key))
            done[key] = ticket
            wide.started(ticket.shard, ticket.id)
            wide.completed(ticket.shard, ticket.id, _ok(ticket, {"n": index}))
        left = _key_owned_by(wide, 2, taken=tuple(done))
        pending, _ = wide.admit("assess", _request(left))
        assert pending.shard == 2
        wide.close()

        narrow = _fleet_core(tmp_path, slots=2, up=False)
        for key, ticket in done.items():
            again, effects = narrow.admit("assess", _request(key))
            assert effects == []
            response = again.future.result(timeout=0)
            assert response.replayed and response.request_id == ticket.id
        # The dropped shard's pending request runs once, on its key's
        # new owner, re-accepted into that slot's family.
        (moved,) = narrow.tickets.values()
        owner = narrow.ring.owner(left)
        assert (moved.id, moved.recovered, moved.shard) == (pending.id, True, owner)
        assert list(narrow.slots[owner].queue) == [moved]
        assert _events(tmp_path, pending.id, shard=2) == ["accepted"]
        assert _events(tmp_path, pending.id, shard=owner) == ["accepted"]
        fresh, _ = narrow.admit("assess", _request())
        assert fresh.id == "req-10"

    def test_a_corrupt_foreign_family_refuses_the_start(self, tmp_path):
        """A bad frame with records after it in a family no slot owns is
        refused loudly, as in an owned one, and nothing is cut."""
        with RequestJournal(tmp_path) as journal:
            for number in (1, 2):
                journal.accepted(f"req-{number}", "assess", encode(_request()))
            segment = journal._current_path
        data = bytearray(open(segment, "rb").read())
        data[10] ^= 0x01  # a payload byte of the first record
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ConfigurationError, match="corrupt mid-stream"):
            _core(tmp_path, slots=1)
        assert open(segment, "rb").read() == bytes(data)

    def test_a_foreign_request_that_no_longer_validates_ends_once(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            request = _request(host="gone")
            journal.accepted("req-5", "assess", encode(request), None, None)
        first = _core(tmp_path, slots=1)
        assert not first.tickets
        assert _events(tmp_path, "req-5", shard=0) == ["cancelled"]
        first.close()
        assert not _core(tmp_path, slots=1).tickets

    def test_an_unsharded_directory_is_served_without_reexecution(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "results"))
        with RequestJournal(tmp_path) as journal:
            for number in range(1, 9):
                request = _request(f"old-{number}")
                journal.accepted(
                    f"req-{number}", "assess", encode(request),
                    request.idempotency_key, lifecycle.fingerprint(request),
                )
                journal.started(f"req-{number}")
                store.put(
                    request.idempotency_key,
                    encode(ServiceResponse(f"req-{number}", "ok", {"n": number})),
                )
                journal.completed(f"req-{number}", "ok")
            waiting = _request("old-pending")
            journal.accepted(
                "req-9", "assess", encode(waiting), "old-pending",
                lifecycle.fingerprint(waiting),
            )
            journal.accepted("req-10", "assess", {"hosts": ["gone"], "k": 1})

        core = _fleet_core(tmp_path, up=False)
        for number in range(1, 9):
            again, effects = core.admit("assess", _request(f"old-{number}"))
            assert effects == []
            response = again.future.result(timeout=0)
            assert response.replayed and response.request_id == f"req-{number}"
            assert response.result == {"n": number}
        (ticket,) = core.tickets.values()
        owner = core.ring.owner("old-pending")
        assert (ticket.id, ticket.recovered, ticket.shard) == ("req-9", True, owner)
        assert _events(tmp_path, "req-9", shard=owner) == ["accepted"]
        # The request that no longer validates ends in a slot's family:
        # terminal anywhere means done, so the next start skips it.
        assert "req-10" in RequestJournal.scan(tmp_path).terminal_ids
        fresh, _ = core.admit("assess", _request())
        assert fresh.id == "req-11"
        core.close()
        assert set(_fleet_core(tmp_path, up=False).tickets) == {"req-9", "req-11"}

    def test_gc_at_start_keeps_the_record_that_finished_a_foreign_request(
        self, tmp_path
    ):
        """The unsharded family keeps ``req-1`` pending for good; only
        its new owner's family says it finished. Collecting that family's
        sealed, aged-out segment at start would run it again."""
        with RequestJournal(tmp_path) as journal:
            old = _request("old")
            journal.accepted(
                "req-1", "assess", encode(old), "old", lifecycle.fingerprint(old)
            )
        settings = dict(journal_segment_bytes=2048, result_ttl_seconds=1e-6)
        core = _fleet_core(tmp_path, **settings)
        owner = core.ring.owner("old")
        done, keys = [], ["old"]
        while True:  # finish work on the owner until its family rotates
            for ticket in list(core.slots[owner].inflight.values()):
                core.started(owner, ticket.id)
                core.completed(owner, ticket.id, _ok(ticket))
                done.append(ticket.id)
            if len(segment_families(tmp_path)[owner]) > 1:
                break
            keys.append(_key_owned_by(core, owner, taken=keys))
            core.admit("assess", _request(keys[-1]))
        assert done[0] == "req-1"
        assert _events(tmp_path, "req-1", shard=None) == ["accepted"]
        core.close()
        for _ in range(2):  # the first start collects, the second replays
            core = _fleet_core(tmp_path, **settings)
            assert not core.tickets
            core.close()
        assert "req-1" in RequestJournal.scan(tmp_path).terminal_ids


# ----------------------------------------------------------------------
# The drivers run this core and nothing else
# ----------------------------------------------------------------------


def _service_config(journal_dir, **overrides) -> ServiceConfig:
    defaults = dict(
        scale="tiny",
        seed=1,
        rounds=200,
        chunks=4,
        queue_capacity=16,
        journal_dir=os.fspath(journal_dir),
        heartbeat_interval_seconds=0.1,
        heartbeat_misses=5,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _hosts(service, count=3):
    return tuple(
        c for c in service.topology.components if c.startswith("host")
    )[:count]


@needs_fork
class TestDriverEquivalence:
    def test_fleet_writes_one_lifecycle_and_the_stored_answer(self, tmp_path):
        """A keyed request through the forked fleet leaves one
        lifecycle in the journal (accepted, started, completed: three
        records, none for anything else) and stores, under its key, the
        very answer the caller got."""
        with FleetSupervisor(_service_config(tmp_path)) as service:
            request = AssessRequest(
                hosts=_hosts(service), k=2, idempotency_key="same"
            )
            answer = service.assess(request, timeout=120)
            stored = service.core.store.get("same")
        assert answer.status == "ok"
        assert stored["status"] == "ok"
        assert stored == encode(answer)
        state = RequestJournal.scan(tmp_path)
        assert [e["event"] for e in state.events[answer.request_id]] == [
            "accepted", "started", "completed",
        ]
        assert state.records == 3

    def test_crashed_executor_is_an_internal_error_and_the_retry_reexecutes(
        self, tmp_path, monkeypatch
    ):
        """A non-``ReproError`` out of a shard worker's executor answers
        ``error``/``internal``, is journaled cancelled and unbinds the key
        — the retry runs, it neither joins the dead ticket nor replays
        the breakage."""
        real = executor.chunked_assess
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("cannot allocate the round matrix")
            return real(*args, **kwargs)

        # Fleet workers fork after this and inherit it, counter included;
        # both submissions carry one key, so they meet one worker.
        monkeypatch.setattr(executor, "chunked_assess", flaky)
        with FleetSupervisor(_service_config(tmp_path)) as service:
            request = AssessRequest(
                hosts=_hosts(service), k=2, idempotency_key="big"
            )
            broken = service.assess(request, timeout=120)
            assert broken.status == "error"
            assert broken.error["error"] == "internal"
            assert "round matrix" in broken.error["message"]
            assert "big" not in service.core.keys
            assert not service.core.tickets
            retry = service.assess(request, timeout=120)
            assert retry.status == "ok" and not retry.replayed
            assert retry.request_id != broken.request_id
        state = RequestJournal.scan(tmp_path)
        last = state.events[broken.request_id][-1]
        assert (last["event"], last["reason"]) == ("cancelled", "internal")
        assert state.keys["big"][1] == "ok"


def _seam_name(node) -> str | None:
    """The seam a ``fault_hit(...)`` call names: its constant first
    argument, or the constant head of an f-string one."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "fault_hit"
        and node.args
    ):
        return None
    first = node.args[0]
    if isinstance(first, ast.JoinedStr) and first.values:
        first = first.values[0]
    return first.value if isinstance(first, ast.Constant) else None


def _fault_hits(module, seam: str) -> int:
    """``fault_hit("<seam>", ...)`` calls in ``module``'s syntax tree."""
    tree = ast.parse(inspect.getsource(module))
    return sum(_seam_name(node) == seam for node in ast.walk(tree))


class TestSeams:
    def test_durability_seams_exist_once_in_the_core(self):
        for seam in ("fleet.route.accepted", "fleet.record_terminal"):
            assert _fault_hits(lifecycle, seam) == 1
            for caller in (fleet, inspect.getmodule(DrillSim)):
                assert _fault_hits(caller, seam) == 0
                assert seam not in inspect.getsource(caller)

    def test_worker_seams_exist_once_in_the_worker_class(self):
        """Every ``worker.`` seam is hit in one place in ``src/``, the
        fleet's worker class, which the drill drives: the drill hits
        none of its own."""
        package = Path(lifecycle.__file__).parents[1]
        hits = [
            (path.relative_to(package).as_posix(), top.name, seam)
            for path in sorted(package.rglob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(top)
            for seam in [_seam_name(node)]
            if seam is not None and seam.startswith("worker.")
        ]
        assert hits == [
            ("service/fleet.py", "ShardWorker", "worker.heartbeat"),
            ("service/fleet.py", "ShardWorker", "worker.task."),
        ]
        source = inspect.getsource(inspect.getmodule(DrillSim))
        assert 'fault_hit("worker.' not in source
        assert 'fault_hit(f"worker.' not in source

    def test_seams_fire_in_the_drill(self, tmp_path):
        registry = FaultPoints()
        with armed(registry):
            sim = DrillSim(3, os.fspath(tmp_path), registry, shards=2, requests=6)
            sim.run()
        assert sim.quiesced
        assert registry.counters["fleet.route.accepted"] > 0
        assert registry.counters["fleet.record_terminal"] > 0
        sim.service.close_handles()

    @needs_fork
    def test_seams_fire_in_the_real_fleet(self, tmp_path):
        registry = FaultPoints()
        with armed(registry):
            with FleetSupervisor(_service_config(tmp_path)) as service:
                response = service.assess(
                    AssessRequest(hosts=_hosts(service), k=2), timeout=120
                )
        assert response.status == "ok"
        assert registry.counters["fleet.route.accepted"] == 1
        assert registry.counters["fleet.record_terminal"] == 1


class TestDrillRunsProductionCode:
    """``repro drill --rounds 30 --seed 7`` passes on the real core (CI's
    drill-smoke) and fails when the core's durability order is broken:
    the invariants are about production transitions, not a mirror."""

    def _campaign(self, out_dir):
        return run_campaign(
            rounds=30, seed=7, shrink_failures=False, out_dir=os.fspath(out_dir)
        )

    def test_completed_before_store_put_breaks_store_journal_agreement(
        self, monkeypatch, tmp_path
    ):
        def journal_first(self, ticket, response):
            self.slots[ticket.shard].journal.completed(ticket.id, response.status)
            raise_if_crash(
                fault_hit("fleet.record_terminal", request=ticket.id),
                "fleet.record_terminal",
            )
            key = ticket.idempotency_key
            if key is not None:
                self.store.put(key, encode(response))
                self.keys[key] = ("completed", ticket.fingerprint, response.status)

        monkeypatch.setattr(RequestLifecycle, "_record_terminal", journal_first)
        report = self._campaign(tmp_path)
        assert not report.passed
        assert "store-journal-agreement" in {
            v.invariant for v in report.failure.violations
        }

    def test_a_cancelled_task_never_answered_leaves_its_client_waiting(
        self, monkeypatch, tmp_path
    ):
        """The drill steps the fleet's worker class: a worker that drops
        a task once it is cancelled, answering nothing, is caught."""
        step = ShardWorker.step

        def swallow_cancelled(self):
            if self.phase == "respond" and self.response.status == "cancelled":
                self.tasks.popleft()
                self.phase = "started"
                return True
            return step(self)

        monkeypatch.setattr(ShardWorker, "step", swallow_cancelled)
        report = self._campaign(tmp_path)
        assert not report.passed
        assert "fleet-drained" in {
            v.invariant for v in report.failure.violations
        }

    def test_skipping_the_write_ahead_record_loses_requests(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            RequestLifecycle, "_write_ahead", lambda self, ticket: None
        )
        report = self._campaign(tmp_path)
        assert not report.passed
        assert "no-lost-request" in {
            v.invariant for v in report.failure.violations
        }
