"""The resilient assessment service: admission, scheduling, anytime
degradation, drain semantics, health probes and the HTTP front-end."""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.service.client import HttpServiceClient, ServiceClient
from repro.service.executor import MIN_CHUNK_ROUNDS, chunk_layout, chunked_assess
from repro.service.health import (
    DRAINING,
    SERVING,
    STARTING,
    STOPPED,
    HealthMonitor,
)
from repro.service.requests import AssessRequest
from repro.service.scheduler import AssessmentService, ServiceConfig
from repro.service.server import ServiceHTTPServer
from repro.util.cancel import CancellationToken
from repro.util.errors import AdmissionRejected, ReproError, ValidationError


def _service(fattree4, inventory, **overrides) -> AssessmentService:
    defaults = dict(
        scale="tiny", rounds=2_000, queue_capacity=4, scheduler_workers=2
    )
    defaults.update(overrides)
    return AssessmentService(
        ServiceConfig(**defaults), topology=fattree4, dependency_model=inventory
    )


class TestHealthMonitor:
    def test_lifecycle_is_forward_only(self):
        health = HealthMonitor()
        assert health.state == STARTING
        health.transition(SERVING)
        health.transition(DRAINING)
        health.transition(SERVING)  # ignored: backwards
        assert health.state == DRAINING
        health.transition(STOPPED)
        assert health.state == STOPPED

    def test_live_and_ready_split(self):
        health = HealthMonitor()
        assert health.live and not health.ready
        health.transition(SERVING)
        assert health.live and health.ready
        health.transition(DRAINING)
        assert health.live and not health.ready
        health.transition(STOPPED)
        assert not health.live

    def test_snapshot_records_transitions(self):
        health = HealthMonitor()
        health.transition(SERVING)
        snapshot = health.snapshot()
        assert snapshot["state"] == SERVING
        assert [t["state"] for t in snapshot["transitions"]] == [
            STARTING, SERVING,
        ]

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor().transition("confused")


class TestServiceLifecycle:
    def test_normal_assess_round_trip(self, fattree4, inventory):
        with _service(fattree4, inventory) as service:
            client = ServiceClient(service)
            response = client.assess(fattree4.hosts[:3], k=2, timeout=60.0)
            assert response.ok
            assert response.status == "ok"
            assert response.backend == "chunked-sequential"
            assert 0.0 <= response.result["estimate"]["score"] <= 1.0
            assert response.result["runtime"]["cancelled"] is False
            assert response.request_id.startswith("req-")
        assert service.health.state == STOPPED

    def test_keyed_estimate_does_not_depend_on_who_runs_the_pieces(
        self, fattree4, inventory
    ):
        """The pool, the open breaker's inline fallback and a service with
        no pool cut a request into the same pieces under the same seeds,
        so a keyed request gets one answer from all three."""
        request = AssessRequest(
            hosts=tuple(fattree4.hosts[:3]), k=2, rounds=2 * MIN_CHUNK_ROUNDS,
            idempotency_key="same-bits",
        )
        with _service(fattree4, inventory, parallel_workers=2) as service:
            pooled = service.assess(request, timeout=60.0)
        with _service(
            fattree4, inventory, parallel_workers=2,
            breaker_failure_threshold=1, breaker_recovery_seconds=3600.0,
        ) as service:
            service.breaker.record_failure()
            fallback = service.assess(request, timeout=60.0)
        with _service(fattree4, inventory) as service:
            alone = service.assess(request, timeout=60.0)
        assert (pooled.backend, fallback.backend, alone.backend) == (
            "parallel", "chunked-sequential", "chunked-sequential",
        )
        assert pooled.result["runtime"]["portion_seeds"] == (
            alone.result["runtime"]["portion_seeds"]
        )
        assert len(alone.result["runtime"]["portion_seeds"]) == 2
        assert pooled.result["estimate"] == alone.result["estimate"]
        assert fallback.result["estimate"] == alone.result["estimate"]

    def test_search_round_trip(self, fattree4, inventory):
        with _service(fattree4, inventory, rounds=500) as service:
            client = ServiceClient(service)
            response = client.search(
                k=2, n=3, max_seconds=0.5, timeout=60.0
            )
            assert response.ok
            assert response.backend == "search"
            assert response.result["best_plan"]
        assert service.health.state == STOPPED

    def test_invalid_request_never_costs_a_queue_slot(self, fattree4, inventory):
        with _service(fattree4, inventory) as service:
            with pytest.raises(ValidationError):
                service.submit(
                    "assess", AssessRequest(hosts=("host/nowhere",), k=1)
                )
            with pytest.raises(ValidationError):
                service.submit("mine", AssessRequest(hosts=("h",), k=1))
            assert service.status()["queue"]["depth"] == 0
            assert service.status()["inflight"] == 0

    def test_burst_beyond_capacity_is_shed(self, fattree4, inventory):
        # Workers not started: the queue must fill to capacity exactly and
        # shed the rest with the typed rejection.
        service = _service(fattree4, inventory, queue_capacity=4)
        request = AssessRequest(hosts=tuple(fattree4.hosts[:3]), k=2)
        admitted, shed = [], 0
        for _ in range(10):
            try:
                admitted.append(service.submit("assess", request))
            except AdmissionRejected as exc:
                assert exc.reason == "queue_full"
                shed += 1
        assert len(admitted) == 4
        assert shed == 6
        assert service.metrics.counter("service/shed") == 6

        # Drain: every queued ticket resolves with a typed rejection
        # response instead of hanging forever.
        service.drain(timeout_seconds=1.0)
        for ticket in admitted:
            response = ticket.future.result(timeout=1.0)
            assert response.status == "rejected"
            assert response.error["reason"] == "draining"
        assert service.health.state == STOPPED

    def test_cancel_unknown_request_returns_false(self, fattree4, inventory):
        with _service(fattree4, inventory) as service:
            assert service.cancel("req-does-not-exist") is False

    def test_tight_deadline_yields_anytime_not_exception(
        self, fattree4, inventory
    ):
        """Deadline mid-run: the client gets a *response*, never a timeout
        exception — degraded (partial estimate) or cancelled (nothing
        completed), depending on where the deadline lands."""
        with _service(fattree4, inventory, chunks=16) as service:
            client = ServiceClient(service)
            response = client.assess(
                fattree4.hosts[:3],
                k=2,
                rounds=3_000_000,
                deadline_seconds=0.15,
                timeout=60.0,
            )
            assert response.status in ("ok", "degraded", "cancelled")
            if response.status == "degraded":
                runtime = response.result["runtime"]
                assert runtime["cancelled"] is True
                assert runtime["dropped_rounds"] > 0
            elif response.status == "cancelled":
                assert response.error["error"] == "cancelled"

    def test_drain_rejects_queued_but_finishes_inflight(
        self, fattree4, inventory
    ):
        service = _service(
            fattree4, inventory, scheduler_workers=1, queue_capacity=4,
            rounds=200_000, chunks=4,
        ).start()
        request = AssessRequest(hosts=tuple(fattree4.hosts[:3]), k=2)
        tickets = [service.submit("assess", request) for _ in range(3)]
        service.drain(timeout_seconds=30.0)
        responses = [t.future.result(timeout=5.0) for t in tickets]
        statuses = sorted(r.status for r in responses)
        # At least the tail of the queue was rejected; whatever a worker
        # had already popped finished (possibly degraded, never dropped).
        assert "rejected" in statuses
        for response in responses:
            assert response.status in ("ok", "degraded", "cancelled", "rejected")
        assert service.health.state == STOPPED

    def test_status_snapshot_shape(self, fattree4, inventory):
        with _service(fattree4, inventory) as service:
            status = service.status()
            assert status["health"]["state"] == SERVING
            assert status["queue"] == {
                "depth": 0, "capacity": 4, "draining": False,
            }
            assert status["breaker"]["state"] == "closed"
            assert status["inflight"] == 0

    def test_metrics_record_requests_and_latency(self, fattree4, inventory):
        with _service(fattree4, inventory) as service:
            ServiceClient(service).assess(
                fattree4.hosts[:3], k=2, timeout=60.0
            )
            assert service.metrics.counter("service/requests") == 1
            assert service.metrics.counter("service/admitted") == 1
            assert service.metrics.counter("service/status/ok") == 1
            snapshot = service.metrics.snapshot()
            assert snapshot["timers"]["service/latency"]["calls"] == 1
            assert snapshot["timers"]["service/queue_wait"]["calls"] == 1


class _CountingAssessor:
    """Assessor proxy: records every piece's round count and optionally
    fires a token once the first piece returns."""

    def __init__(self, assessor, cancel_after_first=None):
        self._assessor = assessor
        self._token = cancel_after_first
        self.pieces: list[int] = []

    @property
    def rng(self):
        return self._assessor.rng

    @rng.setter
    def rng(self, value):
        self._assessor.rng = value

    def assess(self, plan, structure, rounds=None, cancel=None):
        result = self._assessor.assess(
            plan, structure, rounds=rounds, cancel=cancel
        )
        self.pieces.append(rounds)
        if self._token is not None:
            self._token.cancel("test: first piece done")
        return result


class TestChunkLayout:
    """The pure ``(rounds, chunks) -> piece sizes`` rule."""

    @settings(max_examples=300, deadline=None)
    @given(
        rounds=st.integers(min_value=1, max_value=40 * MIN_CHUNK_ROUNDS),
        chunks=st.integers(min_value=1, max_value=64),
    )
    def test_at_most_chunks_even_pieces_summing_to_rounds(self, rounds, chunks):
        layout = chunk_layout(rounds, chunks)
        assert 1 <= len(layout) <= chunks
        assert max(layout) - min(layout) <= 1
        assert sum(layout) == rounds

    def test_pieces_follow_work_not_a_fixed_count(self):
        assert chunk_layout(10_000, 8) == (10_000,)
        assert len(chunk_layout(3_000_000, 8)) == 8
        assert chunk_layout(2 * MIN_CHUNK_ROUNDS, 8) == (MIN_CHUNK_ROUNDS,) * 2
        # Neither a ninth piece of one round nor ``rounds`` one-round pieces.
        assert chunk_layout(8 * MIN_CHUNK_ROUNDS + 1, 8) == (
            (MIN_CHUNK_ROUNDS + 1,) + (MIN_CHUNK_ROUNDS,) * 7
        )
        assert chunk_layout(5, 8) == (5,)


class TestChunkedAnytime:
    """The sequential anytime backend, driven deterministically."""

    STRUCTURE = ApplicationStructure.k_of_n(2, 3)
    PIECE = MIN_CHUNK_ROUNDS

    def _run(self, fattree4, inventory, rounds, *, service=None, token=None,
             cancel_after_first=False):
        service = service or _service(fattree4, inventory, chunks=8)
        token = token or CancellationToken()
        assessor = _CountingAssessor(
            ReliabilityAssessor.from_config(
                fattree4, inventory, AssessmentConfig(rounds=800, rng=11)
            ),
            cancel_after_first=token if cancel_after_first else None,
        )
        plan = DeploymentPlan.single_component(
            fattree4.hosts[:3], self.STRUCTURE.components[0].name
        )
        result = chunked_assess(
            assessor, plan, self.STRUCTURE, rounds, service.config.chunks, token
        )
        return result, assessor.pieces

    def test_partial_chunks_become_widened_estimate(self, fattree4, inventory):
        rounds = 8 * self.PIECE
        result, pieces = self._run(
            fattree4, inventory, rounds, cancel_after_first=True
        )
        assert pieces == [self.PIECE]
        assert result.runtime.cancelled
        assert result.runtime.backend == "inline"
        assert result.estimate.rounds == self.PIECE  # 1 of 8 pieces
        assert result.runtime.dropped_rounds == 7 * self.PIECE
        assert result.runtime.dropped_portions == 7
        assert result.degraded

        from repro.sampling.statistics import estimate_from_results

        unwidened = estimate_from_results(np.asarray(result.per_round))
        coverage = rounds / self.PIECE
        assert result.estimate.variance == pytest.approx(
            unwidened.variance * coverage
        )
        assert result.estimate.confidence_interval_width == pytest.approx(
            unwidened.confidence_interval_width * coverage**0.5
        )

    def test_pre_fired_token_raises(self, fattree4, inventory):
        from repro.util.errors import OperationCancelled

        token = CancellationToken()
        token.cancel("gone")
        with pytest.raises(OperationCancelled):
            self._run(fattree4, inventory, 800, token=token)

    def test_uncancelled_run_is_not_degraded(self, fattree4, inventory):
        rounds = 3 * self.PIECE + 2
        result, pieces = self._run(fattree4, inventory, rounds)
        assert pieces == [self.PIECE + 1, self.PIECE + 1, self.PIECE]
        assert not result.degraded
        assert not result.runtime.cancelled
        assert result.runtime.dropped_portions == 0
        assert result.estimate.rounds == rounds

    def test_assess_calls_follow_the_work(self, fattree4, inventory):
        """The regression this layout fixes: a default request paid the
        per-assessment fixed cost once per configured chunk."""
        default = ServiceConfig()
        service = _service(fattree4, inventory, chunks=default.chunks)
        for rounds, expected in (
            (default.rounds, [default.rounds]),
            (8 * self.PIECE, [self.PIECE] * 8),
        ):
            _, pieces = self._run(fattree4, inventory, rounds, service=service)
            assert pieces == expected


@contextlib.contextmanager
def _http_server(fattree4, inventory, server_class=ServiceHTTPServer):
    """A started service behind a listening HTTP front, torn down on exit."""
    service = _service(fattree4, inventory).start()
    httpd = server_class(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, httpd
    finally:
        httpd.shutdown()
        thread.join(timeout=5.0)
        httpd.server_close()
        service.close()
    assert not thread.is_alive()


class TestHTTPFrontend:
    @pytest.fixture
    def http_service(self, fattree4, inventory):
        with _http_server(fattree4, inventory) as (service, httpd):
            port = httpd.server_address[1]
            yield service, HttpServiceClient(
                f"http://127.0.0.1:{port}", timeout=60.0
            )

    def test_readyz_and_healthz(self, http_service):
        service, client = http_service
        assert client.readyz() == {"ready": True, "state": "serving"}
        health = client.healthz()
        assert health["health"]["state"] == "serving"
        assert health["breaker"]["state"] == "closed"

    def test_assess_over_http(self, http_service, fattree4):
        _, client = http_service
        document = client.assess(fattree4.hosts[:3], k=2, rounds=1_000)
        assert document["status"] == "ok"
        assert document["backend"] == "chunked-sequential"
        assert 0.0 <= document["result"]["estimate"]["score"] <= 1.0

    def test_validation_error_rehydrates_client_side(self, http_service):
        _, client = http_service
        with pytest.raises(ValidationError) as excinfo:
            client.assess(["host/nowhere"], k=1)
        assert "hosts" in excinfo.value.fields()

    def test_malformed_body_is_a_field_error(self, http_service):
        _, client = http_service
        with pytest.raises(ValidationError) as excinfo:
            client.search(k="two", n=3)
        assert "k" in excinfo.value.fields()

    def test_cancel_unknown_request_is_404(self, http_service):
        _, client = http_service
        with pytest.raises(ReproError):
            client.cancel("req-unknown")

    def test_metrics_endpoint(self, http_service, fattree4):
        _, client = http_service
        client.assess(fattree4.hosts[:3], k=2, rounds=1_000)
        snapshot = client.metrics()
        assert snapshot["counters"]["service/requests"] >= 1
        assert "service/latency" in snapshot["timers"]


class _CountingSocket:
    """A server-side connection that records the size of every send."""

    def __init__(self, sock, sends: list[int]):
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *flags):
        self._sends.append(len(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingHTTPServer(ServiceHTTPServer):
    def __init__(self, address, service):
        super().__init__(address, service)
        self.sends: list[int] = []

    def get_request(self):
        sock, address = super().get_request()
        return _CountingSocket(sock, self.sends), address


class TestHTTPWire:
    def test_each_response_is_one_send_on_a_persistent_connection(
        self, fattree4, inventory
    ):
        """Headers and body in two sends cost a persistent connection one
        delayed ACK (about 40 ms) per response; counted, not timed."""
        exchanges = [
            ("GET", "/readyz", None, 200),
            ("POST", "/assess",
             {"hosts": fattree4.hosts[:3], "k": 2, "rounds": 1_000}, 200),
            ("POST", "/assess", {"hosts": ["host/nowhere"], "k": 1}, 400),
            ("GET", "/nowhere", None, 404),
            ("GET", "/healthz", None, 200),
        ]
        with _http_server(fattree4, inventory, _CountingHTTPServer) as (_, httpd):
            connection = http.client.HTTPConnection(
                "127.0.0.1", httpd.server_address[1], timeout=60.0
            )
            try:
                for sent, (method, path, payload, status) in enumerate(exchanges, 1):
                    body = None if payload is None else json.dumps(payload)
                    connection.request(method, path, body=body)
                    response = connection.getresponse()
                    document = response.read()
                    assert response.status == status
                    json.loads(document)
                    # One send per response so far, and it carried the body.
                    assert len(httpd.sends) == sent
                    assert httpd.sends[-1] > len(document)
            finally:
                connection.close()
