#!/usr/bin/env python
"""End-to-end smoke test for ``python -m repro serve``.

Run by CI (and usable locally) to prove the service contract holds on a
real process, not just in-process test doubles:

1. start the server as a subprocess on an OS-assigned port,
2. wait for ``/readyz`` to report serving,
3. run a quick assessment that must come back ``status="ok"``,
4. run an oversized assessment under a tight deadline and require an
   anytime ``status="degraded"`` response — partial rounds, honest
   (widened) confidence interval, ``runtime.cancelled`` set — never an
   exception-shaped timeout,
5. SIGTERM the server and require a clean drain (exit code 0).

With ``--crash`` it instead proves the durability contract on a real
``kill -9``:

1. a reference server answers a keyed assessment (the ground truth),
2. a journaled server is SIGKILLed while that same keyed request is
   journaled-``started`` but unfinished, and its orphaned shard worker
   must exit on its own,
3. a restarted server on the same journal recovers the request; the
   resubmitted key joins it and the answer must carry
   ``runtime.recovered`` and be *bit-identical* to the reference
   (per-request seeds derive from the key, not the process), and
4. resubmitting the now-completed key must replay the stored response
   (``replayed`` set) without executing any new assessment.

With ``--crash-worker`` it proves the *fleet* failover contract: a
``--workers 2`` server takes a concurrent keyed burst while one worker
is ``kill -9``'d mid-request. Every keyed request must answer exactly
once (no loss, no duplication), the interrupted one must come back
``runtime.recovered`` from a survivor, and the dead shard must respawn
(generation bump in ``/healthz``) before a clean SIGTERM drain.

Machine speeds vary wildly across CI runners, so the timing-sensitive
steps adapt: the deadline/round knobs of step 4 walk toward the
degraded window, and the crash run grows its round count until the
kill demonstrably lands mid-execution. Hard attempt caps keep the job
bounded.

Exits 0 on success, 1 on failure. No third-party dependencies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service.client import HttpServiceClient  # noqa: E402
from repro.service.journal import RequestJournal  # noqa: E402

READY_TIMEOUT_SECONDS = 30.0
DRAIN_TIMEOUT_SECONDS = 30.0
ORPHAN_EXIT_SECONDS = 10.0
MAX_DEGRADED_ATTEMPTS = 8
MAX_CRASH_ATTEMPTS = 6
CRASH_KEY = "crash-smoke-job"


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def start_server(extra_args: list[str] | None = None) -> tuple[subprocess.Popen, str]:
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
            *(extra_args or []),
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    # serve() announces the bound port on stdout before accepting work.
    line = process.stdout.readline().strip()
    check(
        "listening on http://" in line,
        f"server did not announce its address (got {line!r})",
    )
    base_url = line.split("listening on ", 1)[1]
    return process, base_url


def wait_ready(client: HttpServiceClient) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        try:
            reply = client.readyz()
        except Exception:
            time.sleep(0.1)
            continue
        if reply.get("ready"):
            check(reply.get("state") == "serving", f"unexpected readyz: {reply}")
            return
        time.sleep(0.1)
    raise SmokeFailure("server never became ready")


def smoke_ok_assessment(client: HttpServiceClient, hosts: list[str]) -> None:
    reply = client.assess(hosts, k=2, rounds=20_000)
    check(reply["status"] == "ok", f"expected ok, got {reply['status']}")
    score = reply["result"]["estimate"]["score"]
    check(0.0 < score <= 1.0, f"score {score} out of range")
    check(
        reply["result"]["runtime"]["cancelled"] is False,
        "ok response must not be marked cancelled",
    )
    print(f"ok assessment: score={score:.4f}")


def smoke_degraded_assessment(client: HttpServiceClient, hosts: list[str]) -> None:
    rounds, deadline = 2_000_000, 0.2
    for attempt in range(1, MAX_DEGRADED_ATTEMPTS + 1):
        reply = client.assess(
            hosts, k=2, rounds=rounds, deadline_seconds=deadline
        )
        status = reply["status"]
        print(
            f"attempt {attempt}: rounds={rounds} deadline={deadline}s "
            f"-> {status}"
        )
        if status == "degraded":
            estimate = reply["result"]["estimate"]
            runtime = reply["result"]["runtime"]
            check(
                0 < estimate["rounds"] < rounds,
                f"degraded result must carry partial rounds, got "
                f"{estimate['rounds']}/{rounds}",
            )
            check(
                runtime["cancelled"] is True,
                "degraded response must record the cancellation",
            )
            check(
                estimate["confidence_interval_width"] > 0.0,
                "degraded estimate must keep an honest CI width",
            )
            print(
                f"anytime degraded: {estimate['rounds']}/{rounds} rounds, "
                f"ci={estimate['confidence_interval_width']:.5f}"
            )
            return
        if status == "cancelled":
            deadline *= 2.0  # too slow: let the first chunk finish
        elif status == "ok":
            rounds *= 4  # too fast: make the work outlast the deadline
        else:
            raise SmokeFailure(f"unexpected status {status}: {reply}")
    raise SmokeFailure("never observed an anytime-degraded response")


def smoke_drain(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=DRAIN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SmokeFailure("server did not drain after SIGTERM")
    check(code == 0, f"expected clean drain exit 0, got {code}")
    print("clean SIGTERM drain: exit 0")


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10.0)
    if process.stdout is not None:
        process.stdout.close()


def _reference_answer(hosts: list[str], rounds: int) -> dict:
    """Ground truth: a fresh (journal-free) server answers the keyed job."""
    process, base_url = start_server()
    try:
        client = HttpServiceClient(base_url, timeout=300.0)
        wait_ready(client)
        reply = client.assess(
            hosts, k=2, rounds=rounds, idempotency_key=CRASH_KEY
        )
        check(reply["status"] == "ok", f"reference run not ok: {reply['status']}")
        return reply
    finally:
        _stop(process)


def _kill_mid_execution(
    hosts: list[str], journal_dir: str, rounds: int
) -> str | None:
    """SIGKILL a journaled server while the keyed request is executing.

    Returns the journaled request id, or ``None`` when the request
    finished before the kill landed (caller should retry with more
    rounds).
    """
    process, base_url = start_server(["--journal-dir", journal_dir])
    try:
        client = HttpServiceClient(base_url, timeout=300.0, max_attempts=1)
        wait_ready(client)
        workers = [shard["pid"] for shard in _fleet_view(client)["shards"]]
        # The HTTP call dies with the server; fire it from a thread and
        # let the connection error evaporate.
        submit = threading.Thread(
            target=lambda: _swallow(
                client.assess,
                hosts, k=2, rounds=rounds, idempotency_key=CRASH_KEY,
            ),
            daemon=True,
        )
        submit.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            state = RequestJournal.scan(journal_dir)
            started = [
                p for p in state.pending
                if p.idempotency_key == CRASH_KEY and p.started
            ]
            if started:
                process.kill()  # SIGKILL: no drain, no journal goodbye
                process.wait(timeout=10.0)
                _await_orphans_exit(workers)
                return started[0].request_id
            if CRASH_KEY in state.keys:
                return None  # finished before we could kill: too fast
            time.sleep(0.01)
        raise SmokeFailure("keyed request never reached journaled-started")
    finally:
        _stop(process)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie nobody reaped is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _await_orphans_exit(pids: list[int]) -> None:
    """Shard workers whose supervisor was SIGKILLed must exit by
    themselves: an orphan must never answer for a recovered shard."""
    deadline = time.monotonic() + ORPHAN_EXIT_SECONDS
    while any(_running(pid) for pid in pids):
        check(
            time.monotonic() < deadline,
            f"orphaned workers {[p for p in pids if _running(p)]} outlived "
            f"their supervisor by {ORPHAN_EXIT_SECONDS:.0f} s",
        )
        time.sleep(0.05)
    print(f"orphaned workers {pids} exited after the supervisor's SIGKILL")


def _swallow(fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except Exception:
        pass


def smoke_crash_recovery() -> None:
    hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
    rounds = 2_000_000
    workdir = tempfile.mkdtemp(prefix="repro-crash-smoke-")
    try:
        victim_id = None
        for attempt in range(1, MAX_CRASH_ATTEMPTS + 1):
            journal_dir = os.path.join(workdir, f"journal-{attempt}")
            victim_id = _kill_mid_execution(hosts, journal_dir, rounds)
            if victim_id is not None:
                print(
                    f"attempt {attempt}: killed server mid-execution of "
                    f"{victim_id} (rounds={rounds})"
                )
                break
            rounds *= 4  # outlast the kill window on faster machines
            print(f"attempt {attempt}: too fast, growing to rounds={rounds}")
        check(
            victim_id is not None,
            "request kept finishing before the SIGKILL could land",
        )
        reference = _reference_answer(hosts, rounds)

        # Restart on the surviving journal: the request must recover.
        process, base_url = start_server(["--journal-dir", journal_dir])
        try:
            client = HttpServiceClient(base_url, timeout=300.0)
            wait_ready(client)
            reply = client.assess(
                hosts, k=2, rounds=rounds, idempotency_key=CRASH_KEY
            )
            check(
                reply["request_id"] == victim_id,
                f"recovered id {reply['request_id']} != journaled {victim_id}",
            )
            check(
                reply["result"]["runtime"]["recovered"] is True,
                "recovered execution must disclose runtime.recovered",
            )
            check(
                reply["result"]["estimate"] == reference["result"]["estimate"],
                "recovered estimate differs from the reference run:\n"
                f"  recovered: {reply['result']['estimate']}\n"
                f"  reference: {reference['result']['estimate']}",
            )
            print(
                "recovered bit-identical: score="
                f"{reply['result']['estimate']['score']:.6f}"
            )

            # The key is now durably completed: a retry must replay the
            # stored response without running any new assessment.
            before = client.metrics()["counters"].get("service/status/ok", 0)
            again = client.assess(
                hosts, k=2, rounds=rounds, idempotency_key=CRASH_KEY
            )
            check(
                again.get("replayed") is True,
                f"resubmitted key was not replayed: {again.get('replayed')}",
            )
            check(
                again["result"]["estimate"] == reply["result"]["estimate"],
                "replayed estimate differs from the recovered one",
            )
            after = client.metrics()["counters"].get("service/status/ok", 0)
            check(
                after == before,
                f"replay executed new work ({before} -> {after} completions)",
            )
            print("completed key replayed from the store, zero re-execution")
            smoke_drain(process)
        finally:
            _stop(process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fleet_view(client: HttpServiceClient) -> dict:
    fleet = client.healthz().get("fleet")
    check(fleet is not None, "fleet section missing from /healthz")
    return fleet


def _wait_fleet_alive(client: HttpServiceClient, workers: int) -> dict:
    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    fleet = None
    while time.monotonic() < deadline:
        fleet = _fleet_view(client)
        if fleet["alive"] == workers:
            return fleet
        time.sleep(0.1)
    raise SmokeFailure(f"fleet never reached {workers} alive workers: {fleet}")


def _keyed_burst(
    base_url: str, hosts: list[str], keys: list[str], rounds: int
) -> tuple[list[dict], list[Exception]]:
    """Fire one keyed assessment per key from concurrent client threads."""
    replies: list[dict] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def run_one(key: str) -> None:
        # One client per thread: retries on connection resets and 503
        # sheds are exactly the failover window this smoke provokes.
        client = HttpServiceClient(base_url, timeout=300.0, max_attempts=8)
        try:
            reply = client.assess(
                hosts, k=2, rounds=rounds, idempotency_key=key
            )
            with lock:
                replies.append(reply)
        except Exception as exc:  # collected, asserted on by the caller
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=run_one, args=(key,), daemon=True)
        for key in keys
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
        check(not thread.is_alive(), "a client thread wedged")
    return replies, errors


def _kill_busy_worker(client: HttpServiceClient) -> int | None:
    """SIGKILL a worker that is executing a request; returns its shard."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        fleet = _fleet_view(client)
        busy = [
            s for s in fleet["shards"]
            if s["state"] == "alive" and s["inflight"] and s["pid"]
        ]
        if busy:
            os.kill(busy[0]["pid"], signal.SIGKILL)
            return busy[0]["shard"]
        time.sleep(0.01)
    return None


def smoke_worker_failover() -> None:
    """kill -9 a fleet worker under concurrent keyed load.

    Asserts the supervisor contract: every keyed request answers exactly
    once (no loss, no duplication), the interrupted request is recovered
    on a survivor with ``runtime.recovered`` set, and the dead shard is
    respawned (generation bump) before a clean SIGTERM drain.
    """
    hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
    rounds = 150_000
    workdir = tempfile.mkdtemp(prefix="repro-fleet-smoke-")
    try:
        for attempt in range(1, MAX_CRASH_ATTEMPTS + 1):
            journal_dir = os.path.join(workdir, f"journal-{attempt}")
            process, base_url = start_server([
                "--journal-dir", journal_dir,
                "--queue-capacity", "64",
                "--workers", "2",
                "--heartbeat-interval", "0.1",
                "--heartbeat-misses", "5",
            ])
            try:
                probe = HttpServiceClient(base_url, timeout=60.0)
                wait_ready(probe)
                _wait_fleet_alive(probe, workers=2)
                keys = [f"fleet-smoke-{attempt}-{i}" for i in range(12)]
                killer_result: list[int | None] = []
                killer = threading.Thread(
                    target=lambda: killer_result.append(
                        _kill_busy_worker(probe)
                    ),
                    daemon=True,
                )
                killer.start()
                replies, errors = _keyed_burst(base_url, hosts, keys, rounds)
                killer.join(timeout=60.0)
                check(not errors, f"client errors during failover: {errors}")
                check(
                    len(replies) == len(keys),
                    f"{len(keys) - len(replies)} keyed requests lost",
                )
                by_id: dict[str, int] = {}
                for reply in replies:
                    check(
                        reply["status"] == "ok",
                        f"non-ok reply during failover: {reply['status']}",
                    )
                    by_id[reply["request_id"]] = (
                        by_id.get(reply["request_id"], 0) + 1
                    )
                check(
                    len(by_id) == len(keys),
                    f"duplicated request ids: {sorted(by_id)}",
                )
                victim = killer_result[0] if killer_result else None
                recovered = [
                    r for r in replies
                    if r["result"]["runtime"].get("recovered")
                ]
                if victim is None or not recovered:
                    # The kill never landed mid-execution: grow the work
                    # until it demonstrably does.
                    print(
                        f"attempt {attempt}: no mid-flight kill "
                        f"(victim={victim}, recovered={len(recovered)}), "
                        f"growing rounds to {rounds * 2}"
                    )
                    rounds *= 2
                    continue
                print(
                    f"attempt {attempt}: killed shard {victim} mid-request; "
                    f"{len(recovered)} request(s) recovered on a survivor"
                )
                fleet = _wait_fleet_alive(probe, workers=2)
                shard = fleet["shards"][victim]
                check(
                    shard["generation"] >= 2 and shard["restarts"] >= 1,
                    f"dead shard was not respawned: {shard}",
                )
                print(
                    f"shard {victim} respawned: generation="
                    f"{shard['generation']} pid={shard['pid']}"
                )
                workers = {
                    row["name"]: row for row in probe.healthz()["workers"]
                }
                check(
                    set(workers) == {"shard-0", "shard-1"},
                    f"healthz workers view incomplete: {sorted(workers)}",
                )
                smoke_drain(process)
                return
            finally:
                _stop(process)
        raise SmokeFailure(
            "kill -9 never landed mid-execution despite growing rounds"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_basic_smoke() -> None:
    process, base_url = start_server()
    print(f"server up at {base_url} (pid {process.pid})")
    try:
        client = HttpServiceClient(base_url, timeout=120.0)
        wait_ready(client)
        health = client.healthz()
        check(
            health.get("health", {}).get("state") == "serving",
            f"healthz must report serving, got {health}",
        )
        hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
        smoke_ok_assessment(client, hosts)
        smoke_degraded_assessment(client, hosts)
        smoke_drain(process)
    finally:
        _stop(process)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--crash",
        action="store_true",
        help="run the kill-9 crash-recovery smoke instead of the basic one",
    )
    parser.add_argument(
        "--crash-worker",
        action="store_true",
        help="run the fleet failover smoke: kill -9 a worker under load",
    )
    args = parser.parse_args()
    try:
        if args.crash:
            smoke_crash_recovery()
        elif args.crash_worker:
            smoke_worker_failover()
        else:
            run_basic_smoke()
    except SmokeFailure as failure:
        print(f"SMOKE FAILED: {failure}", file=sys.stderr)
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
