"""Client for the assessment service.

:class:`HttpServiceClient` speaks the HTTP protocol of
:mod:`repro.service.server` over stdlib ``urllib`` (no dependencies),
converting the typed error responses back into the same exceptions an
embedded :class:`~repro.service.fleet.FleetSupervisor` raises, so
callers handle overload and validation identically either way.

The HTTP client retries transient failures — connection errors while the
server restarts, and 503 admission sheds — with capped exponential
backoff plus jitter. Retrying is only safe when it cannot double-execute
work, so a POST is retried after a *connection* error only when it
carries an idempotency key (the service deduplicates it); reads and
cancels are always safe to retry, and an admission shed is safe by
definition (the request was never admitted).
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request

from repro.serialization import encode
from repro.service.requests import AssessRequest
from repro.util.errors import AdmissionRejected, ReproError, ValidationError

#: Base retry delay: attempt ``i`` sleeps about ``BACKOFF_SECONDS * 2**i``
#: plus up to 25% jitter, the base capped at ``MAX_BACKOFF_SECONDS``.
BACKOFF_SECONDS = 0.2
MAX_BACKOFF_SECONDS = 5.0


class HttpServiceClient:
    """Minimal stdlib HTTP client for a running ``repro serve`` process.

    Attributes:
        max_attempts: Total tries per logical request (first + retries).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        max_attempts: int = 3,
        sleep=time.sleep,
        rng: random.Random | int | None = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._sleep = sleep
        # An int seeds a private stream so retry timing is reproducible
        # (drills and tests); None keeps the unseeded production default.
        if isinstance(rng, random.Random):
            self._rng = rng
        else:
            self._rng = random.Random(rng) if rng is not None else random.Random()

    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with jitter for the given 0-based attempt."""
        base = min(MAX_BACKOFF_SECONDS, BACKOFF_SECONDS * (2**attempt))
        return base * (1.0 + 0.25 * self._rng.random())

    @staticmethod
    def _retriable_connection(method: str, path: str, payload) -> bool:
        """May this request be re-sent after a *connection* failure?

        A dropped connection leaves it unknown whether the server acted.
        GETs and cancels are idempotent by nature; a POST is only safe
        when it carries an idempotency key the service deduplicates on.
        """
        if method == "GET" or path.startswith("/cancel/"):
            return True
        return bool(payload and payload.get("idempotency_key"))

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        attempts = 0
        while True:
            request = urllib.request.Request(
                url,
                data=data,
                method=method,
                headers={"Content-Type": "application/json"} if data else {},
            )
            attempts += 1
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                    return json.loads(reply.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                try:
                    document = json.loads(exc.read().decode("utf-8"))
                except Exception:
                    document = {"error": "http", "message": str(exc)}
                # Only an admission shed is worth backing off for — the
                # request was never admitted, so a retry cannot duplicate
                # work. Other HTTP errors (validation, internal) are
                # deterministic and re-raise immediately.
                shed = exc.code == 503 and document.get("error") == "admission"
                if shed and attempts < self.max_attempts:
                    self._sleep(self._backoff(attempts - 1))
                    continue
                if shed and attempts > 1:
                    document = dict(document)
                    document["message"] = (
                        f"{document.get('message', 'request rejected')} "
                        f"(after {attempts} attempts)"
                    )
                self._raise_typed(exc.code, document)
                raise  # unreachable; _raise_typed always raises
            except (
                urllib.error.URLError,
                ConnectionError,
                http.client.HTTPException,
                TimeoutError,
            ) as exc:
                # ``URLError`` only covers failures *opening* the
                # connection. A worker failover can reset the socket
                # mid-response, which surfaces as a raw
                # ``ConnectionResetError`` / ``RemoteDisconnected`` from
                # ``reply.read()`` — equally transient, equally safe to
                # retry under an idempotency key.
                if (
                    attempts < self.max_attempts
                    and self._retriable_connection(method, path, payload)
                ):
                    self._sleep(self._backoff(attempts - 1))
                    continue
                raise ReproError(
                    f"service unreachable at {url} after {attempts} "
                    f"attempt(s): {getattr(exc, 'reason', exc)}"
                ) from exc

    @staticmethod
    def _raise_typed(status: int, document: dict) -> None:
        """Rehydrate the service's typed errors from an HTTP error body."""
        if status == 400 and document.get("error") == "validation":
            raise ValidationError(
                [(e["field"], e["message"]) for e in document.get("errors", [])]
            )
        if status == 503 and document.get("error") == "admission":
            raise AdmissionRejected(
                document.get("message", "request rejected"),
                reason=document.get("reason", "queue_full"),
                queue_depth=document.get("queue_depth"),
                capacity=document.get("capacity"),
            )
        raise ReproError(
            f"service returned HTTP {status}: "
            f"{document.get('message', document)}"
        )

    # ------------------------------------------------------------------

    def assess(
        self,
        hosts,
        k: int,
        rounds: int | None = None,
        deadline_seconds: float | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        request = AssessRequest(
            hosts=tuple(hosts),
            k=k,
            rounds=rounds,
            deadline_seconds=deadline_seconds,
            idempotency_key=idempotency_key,
        )
        return self._request("POST", "/assess", encode(request))

    def search(self, k: int, n: int, **options) -> dict:
        payload = {"k": k, "n": n}
        payload.update(options)
        return self._request("POST", "/search", payload)

    def cancel(self, request_id: str) -> dict:
        return self._request("POST", f"/cancel/{request_id}")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def readyz(self) -> dict:
        return self._request("GET", "/readyz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")
