"""HTTP front-end for the assessment service: ``python -m repro serve``.

Stdlib-only (``http.server``) so the service runs anywhere the library
does. The handler is a thin protocol adapter — all behaviour (admission,
deadlines, anytime degradation, the shard workers) lives in
:class:`~repro.service.fleet.FleetSupervisor`; this module maps it onto
HTTP:

====================  ======================================================
``POST /assess``      body ``{"hosts": [...], "k": 2, "rounds"?,
                      "deadline_seconds"?}`` → 200 with the assessment
                      (``status`` ``ok`` or ``degraded`` — a deadline hit
                      is a *successful* anytime response, never a 5xx)
``POST /search``      body ``{"k", "n", "max_seconds"?, ...}`` → 200
``POST /cancel/<id>`` fire a request's cancellation token → 202 / 404
``GET /healthz``      liveness + full status snapshot (200 / 503)
``GET /readyz``       readiness: 200 only while SERVING
``GET /metrics``      counters, gauges and timers as JSON
====================  ======================================================

Error mapping: validation → 400 with field-level detail, admission
rejection → 503 with ``Retry-After`` (the typed load-shedding signal),
internal errors → 500. SIGTERM/SIGINT trigger a graceful drain: the
listener stops accepting, queued requests get typed rejections, in-flight
requests finish (or are cancelled into anytime results after the drain
timeout), then the process exits 0.
"""

from __future__ import annotations

import io
import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serialization import decode, encode
from repro.service.fleet import FleetSupervisor, ServiceConfig
from repro.service.requests import AssessRequest, SearchRequest
from repro.util.errors import AdmissionRejected, ReproError, ValidationError

logger = logging.getLogger("repro.service")

#: Maximum accepted request-body size; anything larger is a client error.
MAX_BODY_BYTES = 1 << 20

#: How often ``serve_forever`` looks for a shutdown request. ``shutdown()``
#: waits out one interval: at the stdlib's default of 0.5 s, stopping an idle
#: server takes up to half a second. An idle wake-up costs microseconds.
SHUTDOWN_POLL_SECONDS = 0.05


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service: FleetSupervisor):
        super().__init__(address, _Handler)
        self.service = service

    def serve_forever(self, poll_interval: float = SHUTDOWN_POLL_SECONDS):
        super().serve_forever(poll_interval)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------

    def _send_json(self, status: int, document: dict, headers: dict | None = None):
        body = json.dumps(document).encode("utf-8")
        # Headers and body leave in ONE send. ``end_headers()`` flushes the
        # header block to the socket on its own; on a persistent connection
        # Nagle's algorithm then holds the body back until the client's
        # delayed ACK of the headers, about 40 ms a response. So the header
        # block is collected here and written together with the body.
        socket_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = socket_file
        self.wfile.write(head + body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValidationError(
                [("body", f"request body exceeds {MAX_BODY_BYTES} bytes")]
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ValidationError([("body", f"invalid JSON: {exc}")]) from exc
        if not isinstance(payload, dict):
            raise ValidationError([("body", "request body must be a JSON object")])
        return payload

    @property
    def service(self) -> FleetSupervisor:
        return self.server.service

    def log_message(self, format, *args):  # route through logging, not stderr
        logger.debug("http " + format, *args)

    # ------------------------------------------------------------------

    def do_GET(self):
        service = self.service
        if self.path == "/healthz":
            document = service.status()
            self._send_json(200 if service.health.live else 503, document)
        elif self.path == "/readyz":
            ready = service.health.ready
            self._send_json(
                200 if ready else 503,
                {"ready": ready, "state": service.health.state},
            )
        elif self.path == "/metrics":
            self._send_json(200, service.metrics.snapshot())
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def do_POST(self):
        service = self.service
        try:
            if self.path == "/assess":
                payload = self._read_body()
                response = service.assess(decode(AssessRequest, payload))
                self._send_json(200, encode(response))
            elif self.path == "/search":
                payload = self._read_body()
                response = service.search(decode(SearchRequest, payload))
                self._send_json(200, encode(response))
            elif self.path.startswith("/cancel/"):
                request_id = self.path[len("/cancel/"):]
                found = service.cancel(request_id)
                if found:
                    self._send_json(202, {"cancelled": request_id})
                else:
                    self._send_json(
                        404, {"error": "unknown_request", "request_id": request_id}
                    )
            else:
                self._send_json(404, {"error": "not_found", "path": self.path})
        except ValidationError as exc:
            self._send_json(400, exc.as_dict())
        except AdmissionRejected as exc:
            retry_after = "1"
            self._send_json(
                503,
                {
                    "error": "admission",
                    "reason": exc.reason,
                    "message": str(exc),
                    "queue_depth": exc.queue_depth,
                    "capacity": exc.capacity,
                },
                headers={"Retry-After": retry_after},
            )
        except ReproError as exc:
            self._send_json(
                500, {"error": type(exc).__name__, "message": str(exc)}
            )


# ----------------------------------------------------------------------


def serve(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 8321,
    install_signal_handlers: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Returns the process exit code (0 for a clean drain). Signal handlers
    are optional so tests can drive shutdown directly. Behind the
    HTTP front runs a :class:`~repro.service.fleet.FleetSupervisor`:
    ``config.fleet_workers`` forked shard worker processes with
    heartbeat supervision and journal-based failover.
    """
    service = FleetSupervisor(config).start()
    httpd = ServiceHTTPServer((host, port), service)
    stop_event = threading.Event()

    def _request_shutdown(signum=None, frame=None):
        stop_event.set()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)

    server_thread = threading.Thread(
        target=httpd.serve_forever, name="repro-service-http", daemon=True
    )
    server_thread.start()
    logger.info("listening on http://%s:%d", host, httpd.server_address[1])
    print(f"repro service listening on http://{host}:{httpd.server_address[1]}",
          flush=True)
    try:
        stop_event.wait()
    except KeyboardInterrupt:
        pass
    logger.info("shutdown requested; draining")
    # Stop accepting first, then drain the service: queued requests get
    # typed rejections, in-flight ones finish or degrade to anytime.
    httpd.shutdown()
    server_thread.join(timeout=10.0)
    httpd.server_close()
    service.drain()
    logger.info("drained; exiting")
    return 0
