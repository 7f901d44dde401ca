"""SIGTERM graceful drain on a real ``repro serve`` subprocess.

The shutdown contract: SIGTERM stops admission, lets the in-flight
request finish (or cancels it into an anytime result at its deadline),
answers queued requests with a typed drain rejection, journals every
outcome so a restart replays nothing the clients already saw, and
exits 0.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from repro.service.client import HttpServiceClient
from repro.service.journal import RequestJournal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOSTS = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]


def _start_server(
    journal_dir: str, *extra: str, **popen
) -> tuple[subprocess.Popen, str]:
    """``repro serve`` on a free port; ``extra`` options override the
    defaults, ``popen`` goes to :class:`subprocess.Popen`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--scale", "tiny",
            "--port", "0",
            "--queue-capacity", "4",
            "--workers", "1",
            "--drain-timeout", "120",
            "--journal-dir", journal_dir,
            *extra,
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        **popen,
    )
    line = process.stdout.readline().strip()
    assert "listening on http://" in line, f"no address announced: {line!r}"
    return process, line.split("listening on ", 1)[1]


def _wait_ready(client: HttpServiceClient) -> None:
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            if client.readyz().get("ready"):
                return
        except Exception:
            pass
        time.sleep(0.1)
    raise AssertionError("server never became ready")


def test_sigterm_finishes_inflight_rejects_queued_and_exits_clean(tmp_path):
    journal_dir = str(tmp_path / "journal")
    process, base_url = _start_server(journal_dir)
    replies: dict[str, dict] = {}
    try:
        client = HttpServiceClient(base_url, timeout=120.0, max_attempts=1)
        _wait_ready(client)

        # One slow in-flight request (rounds sized to run for seconds on
        # the vectorised sampler) and one queued behind it.
        def run(name: str, **request) -> threading.Thread:
            thread = threading.Thread(
                target=lambda: replies.__setitem__(
                    name, client.assess(HOSTS, k=2, **request)
                ),
                daemon=True,
            )
            thread.start()
            return thread

        inflight = run(
            "inflight", rounds=40_000_000, idempotency_key="drain-inflight"
        )
        # Gate on the journal, not on sleeps: SIGTERM goes out only once
        # the slow request has durably *started* and the queued one is
        # durably *accepted* — so their fates are not racy.
        queued = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            state = RequestJournal.scan(journal_dir)
            started = {p.idempotency_key for p in state.pending if p.started}
            accepted = {p.idempotency_key for p in state.pending}
            if queued is None and "drain-inflight" in started:
                queued = run(
                    "queued", rounds=2_000, idempotency_key="drain-queued"
                )
            if "drain-inflight" in started and "drain-queued" in accepted:
                break
            time.sleep(0.05)
        else:
            raise AssertionError(f"journal never showed both requests: {state}")

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=150.0) == 0  # clean drain exit
        inflight.join(timeout=30.0)
        queued.join(timeout=30.0)

        # In-flight finished honestly: complete, or anytime-degraded at
        # its deadline — never dropped.
        assert replies["inflight"]["status"] in ("ok", "degraded")
        # Queued was answered with the typed drain rejection, unstarted.
        assert replies["queued"]["status"] == "rejected"
        assert replies["queued"]["error"]["reason"] == "draining"

        # The journal agrees with what the clients saw: nothing pending,
        # so a restart on this directory re-executes nothing.
        state = RequestJournal.scan(journal_dir)
        assert state.pending == []
        # The finished request is replayable; the rejected one is not.
        assert "drain-inflight" in state.keys
        assert "drain-queued" not in state.keys
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        if process.stdout is not None:
            process.stdout.close()


def test_process_group_sigterm_drains_a_pooled_server(tmp_path):
    """SIGTERM to the whole process group of a server with worker
    processes (the shard fleet), as a supervisor or a terminal sends it,
    still ends in a drain that stops every worker and exits 0."""
    drain_timeout = 20.0
    process, base_url = _start_server(
        str(tmp_path / "journal"),
        "--workers", "2",
        "--drain-timeout", str(drain_timeout),
        start_new_session=True,
    )
    try:
        client = HttpServiceClient(base_url, timeout=60.0, max_attempts=1)
        _wait_ready(client)
        assert client.assess(HOSTS, k=2, rounds=20_000)["status"] == "ok"
        os.killpg(process.pid, signal.SIGTERM)
        assert process.wait(timeout=drain_timeout) == 0
        deadline = time.monotonic() + 5.0
        while _group_alive(process.pid):  # no worker outlives the drain
            assert time.monotonic() < deadline, "a worker outlived the drain"
            time.sleep(0.05)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=10.0)
        if process.stdout is not None:
            process.stdout.close()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_idle_server_shutdown_returns_promptly():
    """``shutdown()`` waits out one ``serve_forever`` poll interval; with
    the stdlib's default that was up to 0.5 s for a server doing nothing."""
    from repro.service.fleet import FleetSupervisor
    from repro.service.server import ServiceHTTPServer

    with FleetSupervisor() as service:
        for _ in range(3):  # the old wait was uniform in [0, 0.5) s
            httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            try:
                client = HttpServiceClient(
                    f"http://127.0.0.1:{httpd.server_address[1]}", timeout=30.0
                )
                _wait_ready(client)
                started = time.monotonic()
                httpd.shutdown()
                elapsed = time.monotonic() - started
            finally:
                httpd.shutdown()
                thread.join(timeout=5.0)
                httpd.server_close()
            assert not thread.is_alive()
            assert elapsed < 0.3, f"idle shutdown took {elapsed:.3f} s"
