"""Crash recovery and idempotent retries on the durable service.

The durability contract under test: a journaled-but-unfinished request
survives a process death and re-executes with the same ids and the same
random stream (bit-identical estimate), re-executions are disclosed via
``runtime.recovered``, and a completed idempotency key is never executed
twice — it replays the stored response, flagged ``replayed``.
"""

from __future__ import annotations

import pytest

from repro.service.fleet import FleetSupervisor, ServiceConfig
from repro.service.journal import RequestJournal
from repro.service.requests import AssessRequest
from repro.util.errors import AdmissionRejected, ValidationError


def _service(fattree4, inventory, **overrides) -> FleetSupervisor:
    defaults = dict(scale="tiny", rounds=1_000, queue_capacity=8, fleet_workers=1)
    defaults.update(overrides)
    return FleetSupervisor(
        ServiceConfig(**defaults), topology=fattree4, dependency_model=inventory
    )


def _request(fattree4, key=None, k=2, rounds=None):
    return AssessRequest(
        hosts=tuple(fattree4.hosts[:3]), k=k, rounds=rounds, idempotency_key=key
    )


class TestIdempotentRetries:
    def test_resubmit_completed_key_replays_without_reexecution(
        self, fattree4, inventory, tmp_path
    ):
        with _service(
            fattree4, inventory, journal_dir=str(tmp_path)
        ).start() as service:
            first = service.assess(_request(fattree4, key="job-1"), timeout=60.0)
            assert first.status == "ok"
            assert not first.replayed
            again = service.assess(_request(fattree4, key="job-1"), timeout=60.0)
            assert again.replayed
            assert again.request_id == first.request_id
            assert again.status == first.status
            assert again.result["estimate"] == first.result["estimate"]
            assert service.metrics.counter("service/idempotent_replays") == 1
            # The replay cost zero assessment work: only one request ran.
            assert service.metrics.counter("service/status/ok") == 1

    def test_key_reuse_with_different_payload_is_rejected(
        self, fattree4, inventory, tmp_path
    ):
        with _service(
            fattree4, inventory, journal_dir=str(tmp_path)
        ).start() as service:
            service.assess(_request(fattree4, key="job-1", k=2), timeout=60.0)
            with pytest.raises(ValidationError, match="different request payload"):
                service.submit("assess", _request(fattree4, key="job-1", k=1))

    def test_queued_resubmission_joins_the_inflight_ticket(
        self, fattree4, inventory, tmp_path
    ):
        # Not started: submissions sit in the queue, so the second submit
        # deterministically finds the first one inflight.
        service = _service(fattree4, inventory, journal_dir=str(tmp_path))
        try:
            first = service.submit("assess", _request(fattree4, key="job-1"))
            second = service.submit("assess", _request(fattree4, key="job-1"))
            assert second is first
            assert service.metrics.counter("service/idempotent_joins") == 1
            service.start()
            response = first.future.result(timeout=60.0)
            assert response.status == "ok"
        finally:
            service.close()

    def test_cancelled_key_reexecutes_on_resubmission(
        self, fattree4, inventory, tmp_path
    ):
        service = _service(fattree4, inventory, journal_dir=str(tmp_path))
        try:
            ticket = service.submit("assess", _request(fattree4, key="job-1"))
            # Cancel while still queued (workers have not started), so the
            # terminal state is deterministically "cancelled".
            assert service.cancel(ticket.id, "changed my mind")
            service.start()
            cancelled = ticket.future.result(timeout=60.0)
            assert cancelled.status == "cancelled"
            # A cancelled key stores no result: retrying means re-running.
            fresh = service.assess(_request(fattree4, key="job-1"), timeout=60.0)
            assert fresh.status == "ok"
            assert not fresh.replayed
        finally:
            service.close()

    def test_same_key_is_deterministic_even_without_a_journal(
        self, fattree4, inventory
    ):
        # The per-request seed derives from the key whether or not
        # durability is on — two honest executions agree bit-for-bit.
        with _service(fattree4, inventory).start() as service:
            a = service.assess(_request(fattree4, key="job-1"), timeout=60.0)
            b = service.assess(_request(fattree4, key="job-1"), timeout=60.0)
            assert not a.replayed and not b.replayed
            assert a.result["estimate"] == b.result["estimate"]
            assert a.request_id != b.request_id  # two real executions


class TestCrashRecovery:
    def test_crash_replay_is_flagged_and_bit_identical(
        self, fattree4, inventory, tmp_path
    ):
        # Reference: a journal-free service answers the same keyed request.
        with _service(fattree4, inventory).start() as reference_service:
            reference = reference_service.assess(
                _request(fattree4, key="job-1"), timeout=60.0
            )
        journal_dir = tmp_path / "journal"

        # Crash: the request is journaled and queued, but the process dies
        # (simulated by never starting workers) before it executes.
        crashed = _service(fattree4, inventory, journal_dir=str(journal_dir))
        victim = crashed.submit("assess", _request(fattree4, key="job-1"))
        crashed.close()
        state = RequestJournal.scan(journal_dir)
        assert [p.request_id for p in state.pending] == [victim.id]

        # Restart on the same journal: the request replays to completion.
        with _service(
            fattree4, inventory, journal_dir=str(journal_dir)
        ).start() as revived:
            response = revived.assess(
                _request(fattree4, key="job-1"), timeout=60.0
            )
            assert response.request_id == victim.id  # original id kept
            assert response.result["runtime"]["recovered"] is True
            assert response.result["estimate"] == reference.result["estimate"]
            assert revived.metrics.counter("service/recovered") == 1
        # After completion the journal holds no pending work.
        assert RequestJournal.scan(journal_dir).pending == []

    def test_recovered_keyless_request_keeps_its_id_and_new_ids_advance(
        self, fattree4, inventory, tmp_path
    ):
        crashed = _service(fattree4, inventory, journal_dir=str(tmp_path))
        victim = crashed.submit("assess", _request(fattree4))
        crashed.close()
        with _service(
            fattree4, inventory, journal_dir=str(tmp_path)
        ).start() as revived:
            fresh = revived.submit("assess", _request(fattree4))
            assert fresh.id != victim.id
            assert int(fresh.id.split("-")[1]) > int(victim.id.split("-")[1])
            fresh_response = fresh.future.result(timeout=60.0)
            assert fresh_response.status == "ok"
            assert not fresh_response.result["runtime"]["recovered"]

    def test_shed_after_journaling_leaves_nothing_to_replay(
        self, fattree4, inventory, tmp_path
    ):
        service = _service(
            fattree4, inventory, journal_dir=str(tmp_path), queue_capacity=1
        )
        try:
            service.submit("assess", _request(fattree4, key="kept"))
            with pytest.raises(AdmissionRejected):
                service.submit("assess", _request(fattree4, key="shed"))
        finally:
            service.close()
        state = RequestJournal.scan(tmp_path)
        # Only the admitted request is pending; the shed one is terminal.
        assert [p.idempotency_key for p in state.pending] == ["kept"]

    def test_journaled_request_for_vanished_hosts_is_dropped_loudly(
        self, fattree4, inventory, tmp_path
    ):
        with RequestJournal(tmp_path) as journal:
            journal.accepted(
                "req-7", "assess", {"hosts": ["no-such-host"], "k": 1}
            )
        with _service(
            fattree4, inventory, journal_dir=str(tmp_path)
        ).start() as revived:
            assert revived.metrics.counter("service/recovered") == 0
        assert "req-7" in RequestJournal.scan(tmp_path).terminal_ids
