"""HTTP client retry policy: what retries, what must not, and how long.

All transport is monkeypatched — no sockets. The contract: admission
sheds (503 + ``error="admission"``) back off and retry; connection
errors retry only when re-sending cannot double-execute (GET, cancel,
or a POST carrying an idempotency key); deterministic failures
(validation, non-admission 503s) raise immediately; exhausted retries
report the attempt count.
"""

from __future__ import annotations

import http.client
import io
import json
import random
import urllib.error
import urllib.request

import pytest

from repro.service import client as client_module
from repro.service.client import HttpServiceClient
from repro.util.errors import AdmissionRejected, ReproError, ValidationError

SHED_BODY = {
    "error": "admission",
    "reason": "queue_full",
    "message": "queue is full",
    "queue_depth": 8,
    "capacity": 8,
}


def _http_error(code: int, body: dict) -> urllib.error.HTTPError:
    return urllib.error.HTTPError(
        "http://test/assess",
        code,
        "error",
        hdrs=None,
        fp=io.BytesIO(json.dumps(body).encode("utf-8")),
    )


class _Reply:
    def __init__(self, body: dict):
        self._body = json.dumps(body).encode("utf-8")

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class _Transport:
    """Scripted urlopen: pops one outcome per call, records each call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, request, timeout=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _Reply(outcome)


def _client(monkeypatch, transport, **overrides):
    sleeps: list[float] = []
    defaults = dict(
        max_attempts=3,
        sleep=sleeps.append,
        rng=random.Random(7),
    )
    defaults.update(overrides)
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    return HttpServiceClient("http://test", **defaults), sleeps


class TestAdmissionShedRetries:
    def test_shed_retries_then_succeeds(self, monkeypatch):
        transport = _Transport(
            [_http_error(503, SHED_BODY), {"request_id": "req-1", "status": "ok"}]
        )
        client, sleeps = _client(monkeypatch, transport)
        reply = client.assess(["h0", "h1"], k=1)
        assert reply["status"] == "ok"
        assert transport.calls == 2
        assert len(sleeps) == 1

    def test_exhausted_sheds_report_attempts(self, monkeypatch):
        transport = _Transport([_http_error(503, SHED_BODY) for _ in range(3)])
        client, sleeps = _client(monkeypatch, transport)
        with pytest.raises(AdmissionRejected, match=r"after 3 attempts"):
            client.assess(["h0"], k=1)
        assert transport.calls == 3
        assert len(sleeps) == 2

    def test_backoff_is_exponential_jittered_and_capped(self, monkeypatch):
        monkeypatch.setattr(client_module, "BACKOFF_SECONDS", 1.0)
        monkeypatch.setattr(client_module, "MAX_BACKOFF_SECONDS", 4.0)
        transport = _Transport([_http_error(503, SHED_BODY) for _ in range(6)])
        client, sleeps = _client(monkeypatch, transport, max_attempts=6)
        with pytest.raises(AdmissionRejected):
            client.assess(["h0"], k=1)
        assert len(sleeps) == 5
        for attempt, slept in enumerate(sleeps):
            base = min(4.0, 1.0 * 2**attempt)
            assert base <= slept <= base * 1.25
        # The cap holds even with jitter on top.
        assert max(sleeps) <= 4.0 * 1.25

    def test_int_seed_gives_reproducible_backoff(self, monkeypatch):
        """``rng=<int>`` seeds a private jitter stream: two clients built
        from the same seed sleep identical schedules, a different seed
        diverges."""

        def run(seed):
            transport = _Transport([_http_error(503, SHED_BODY) for _ in range(5)])
            client, sleeps = _client(
                monkeypatch, transport, max_attempts=5, rng=seed
            )
            with pytest.raises(AdmissionRejected):
                client.assess(["h0"], k=1)
            return sleeps

        first = run(99)
        assert first == run(99)
        assert first != run(100)

    def test_int_seed_matches_explicit_random_instance(self, monkeypatch):
        def run(rng):
            transport = _Transport([_http_error(503, SHED_BODY) for _ in range(4)])
            client, sleeps = _client(
                monkeypatch, transport, max_attempts=4, rng=rng
            )
            with pytest.raises(AdmissionRejected):
                client.assess(["h0"], k=1)
            return sleeps

        assert run(7) == run(random.Random(7))

    def test_non_admission_503_is_not_retried(self, monkeypatch):
        # /readyz answers 503 while draining — that is state, not overload.
        transport = _Transport([_http_error(503, {"status": "draining"})])
        client, sleeps = _client(monkeypatch, transport)
        with pytest.raises(ReproError):
            client.readyz()
        assert transport.calls == 1
        assert sleeps == []

    def test_validation_errors_raise_immediately(self, monkeypatch):
        body = {
            "error": "validation",
            "errors": [{"field": "k", "message": "must be positive"}],
        }
        transport = _Transport([_http_error(400, body)])
        client, sleeps = _client(monkeypatch, transport)
        with pytest.raises(ValidationError):
            client.assess(["h0"], k=-1)
        assert transport.calls == 1
        assert sleeps == []


class TestConnectionErrorRetries:
    def test_get_retries_connection_errors(self, monkeypatch):
        transport = _Transport(
            [urllib.error.URLError("refused"), {"status": "serving"}]
        )
        client, sleeps = _client(monkeypatch, transport)
        assert client.healthz() == {"status": "serving"}
        assert transport.calls == 2
        assert len(sleeps) == 1

    def test_cancel_retries_connection_errors(self, monkeypatch):
        transport = _Transport(
            [urllib.error.URLError("refused"), {"cancelled": True}]
        )
        client, _ = _client(monkeypatch, transport)
        assert client.cancel("req-1") == {"cancelled": True}
        assert transport.calls == 2

    def test_keyless_post_never_retries_connection_errors(self, monkeypatch):
        # The server may have admitted the request before the connection
        # died; without a key a resend could execute it twice.
        transport = _Transport([urllib.error.URLError("reset")] * 3)
        client, sleeps = _client(monkeypatch, transport)
        with pytest.raises(ReproError, match=r"after 1 attempt"):
            client.assess(["h0"], k=1)
        assert transport.calls == 1
        assert sleeps == []

    def test_keyed_post_retries_and_reports_attempts(self, monkeypatch):
        transport = _Transport([urllib.error.URLError("reset")] * 3)
        client, sleeps = _client(monkeypatch, transport)
        with pytest.raises(ReproError, match=r"after 3 attempt"):
            client.assess(["h0"], k=1, idempotency_key="job-1")
        assert transport.calls == 3
        assert len(sleeps) == 2

    def test_keyed_post_recovers_after_restart(self, monkeypatch):
        transport = _Transport(
            [
                urllib.error.URLError("refused"),
                urllib.error.URLError("refused"),
                {"request_id": "req-1", "status": "ok", "replayed": True},
            ]
        )
        client, _ = _client(monkeypatch, transport)
        reply = client.assess(["h0"], k=1, idempotency_key="job-1")
        assert reply["replayed"] is True
        assert transport.calls == 3

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            HttpServiceClient("http://test", max_attempts=0)


class TestFailoverWindowRetries:
    """Mid-response disconnects during a worker failover.

    ``urlopen`` wraps failures *opening* the connection in ``URLError``,
    but a socket reset while *reading* the response surfaces raw —
    ``http.client.RemoteDisconnected`` or ``ConnectionResetError``. Both
    mean the same thing during a fleet failover and must retry under the
    same idempotency rules.
    """

    def test_keyed_post_retries_remote_disconnected(self, monkeypatch):
        transport = _Transport(
            [
                http.client.RemoteDisconnected("closed mid-response"),
                {"request_id": "req-9", "status": "ok"},
            ]
        )
        client, sleeps = _client(monkeypatch, transport)
        reply = client.assess(["h0"], k=1, idempotency_key="key-1")
        assert reply["status"] == "ok"
        assert transport.calls == 2
        assert len(sleeps) == 1

    def test_keyed_post_retries_connection_reset(self, monkeypatch):
        transport = _Transport(
            [
                ConnectionResetError("peer reset"),
                ConnectionResetError("peer reset"),
                {"request_id": "req-9", "status": "ok"},
            ]
        )
        client, sleeps = _client(monkeypatch, transport)
        reply = client.assess(["h0"], k=1, idempotency_key="key-1")
        assert reply["status"] == "ok"
        assert transport.calls == 3

    def test_keyless_post_never_retries_resets(self, monkeypatch):
        transport = _Transport([ConnectionResetError("peer reset")])
        client, sleeps = _client(monkeypatch, transport)
        with pytest.raises(ReproError, match="after 1 attempt"):
            client.assess(["h0"], k=1)
        assert transport.calls == 1
        assert sleeps == []

    def test_get_retries_resets(self, monkeypatch):
        transport = _Transport(
            [http.client.RemoteDisconnected("restarting"), {"status": "serving"}]
        )
        client, _ = _client(monkeypatch, transport)
        assert client.readyz()["status"] == "serving"
        assert transport.calls == 2

    def test_exhausted_resets_report_attempts(self, monkeypatch):
        transport = _Transport([ConnectionResetError("reset")] * 3)
        client, _ = _client(monkeypatch, transport)
        with pytest.raises(ReproError, match="after 3 attempt"):
            client.assess(["h0"], k=1, idempotency_key="key-1")
