#!/usr/bin/env python
"""Write the golden JSON documents under ``tests/golden/``.

Every file here is a document the service, the CLI or the search wrote
for real, from fixed seeds: write-ahead journal segments and result-store
entries of a 2-shard fleet, the fleet's pipe messages, a zone-constrained
search checkpoint with its trace, the ``--json`` output of six commands,
and HTTP response bodies. ``thread-service/`` (one unsharded journal
family and its store) was written by the single-process thread service,
which no longer exists; this script keeps it and its manifest entry as
they are, and the tests open it with a fleet. Likewise ``redeploy/``: a
redeploy controller's ``incumbent.json`` and its decision log in the
JSONL format of an earlier controller, which the controller now refuses.
This script keeps both as they are and writes their framed twin,
``redeploy/redeploy-journal.waj``: the same records, each framed by
``encode_record``, which the controller recovers.
``tests/test_golden.py`` decodes each one, re-encodes it and requires
the same JSON, and opens the journal directory with a fresh service.
That pins the JSON formats by test: a change that alters a document the
repository already wrote fails there.

The fixtures are committed. Run this script again only for a deliberate
format-version bump (``FORMAT_VERSION`` in ``repro/serialization.py``),
never to make a failing golden test pass::

    python tests/golden/make_goldens.py

It pins ``PYTHONHASHSEED`` (re-executing itself when the variable is not
``0``), replaces the fixture directories it owns, and takes about ten
seconds. Wall-clock fields (elapsed seconds, timestamps) and the searches
bounded by wall-clock budgets differ between runs; the tests compare a
document with its own re-encoding, never with a fresh run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

#: Directories and files this script owns (and replaces on a rerun).
OUTPUTS = (
    "fleet-service",
    "pipe",
    "cli",
    "http",
    "redeploy/redeploy-journal.waj",
    "checkpoint-zones.json",
    "manifest.json",
)

#: Configuration of the journaled fleet and of the HTTP service.
SERVICE = {"scale": "tiny", "seed": 1, "rounds": 2000, "queue_capacity": 16}

HOSTS = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]


def _write_json(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _entry(kind, request, response=None) -> dict:
    from repro.serialization import encode

    entry = {"kind": kind, "request": encode(request)}
    if response is not None:
        entry["status"] = response.status
        entry["request_id"] = response.request_id
    return entry


# ----------------------------------------------------------------------
# Journaled services
# ----------------------------------------------------------------------


def _requests():
    from repro.service.requests import AssessRequest, SearchRequest

    return {
        "assess-keyed": AssessRequest(
            hosts=tuple(HOSTS), k=2, idempotency_key="golden-assess"
        ),
        "assess-unkeyed": AssessRequest(hosts=tuple(HOSTS), k=2, rounds=1500),
        "search-keyed": SearchRequest(
            k=2, n=3, max_seconds=0.5, rounds=400, idempotency_key="golden-search"
        ),
        "search-unkeyed": SearchRequest(k=2, n=3, max_seconds=0.3, rounds=400),
        # 30 instances on distinct racks of a 28-rack data center: the
        # search raises, and the typed error response is stored.
        "search-error": SearchRequest(
            k=2, n=30, max_seconds=0.5, rounds=200, idempotency_key="golden-error"
        ),
        "assess-cancelled": AssessRequest(hosts=tuple(HOSTS), k=1),
        "assess-pending": AssessRequest(
            hosts=tuple(HOSTS), k=2, rounds=3000, idempotency_key="golden-pending"
        ),
    }


def _degraded(front) -> tuple:
    """A keyed assessment cut short by its deadline: ``degraded``.

    Walks the deadline up until at least one piece finishes in time (a
    tighter one answers ``cancelled``, which is stored nowhere).
    """
    from repro.service.requests import AssessRequest

    for attempt, deadline in enumerate((0.4, 0.8, 1.6, 3.2)):
        request = AssessRequest(
            hosts=tuple(HOSTS),
            k=2,
            rounds=40_000_000,
            deadline_seconds=deadline,
            idempotency_key=f"golden-degraded-{attempt}",
        )
        response = front.assess(request, timeout=120.0)
        if response.status == "degraded":
            return request, response
    raise RuntimeError("no deadline produced a degraded assessment")


def _journaled_service(root: str, name: str) -> dict:
    """Run one journaled fleet through every lifecycle ending.

    Three processes' worth of history on one directory: the first
    completes keyed and unkeyed assess and search requests (ok,
    degraded, error); the second cancels a queued request; the third
    admits a keyed request and dies before running it, leaving it
    pending in the journal.
    """
    from repro.service.fleet import FleetSupervisor, ServiceConfig

    directory = os.path.join(root, name)
    config = ServiceConfig(**SERVICE, journal_dir=directory)
    requests = _requests()
    stored = []
    completed = []

    with FleetSupervisor(config).start() as front:
        for label in ("assess-keyed", "assess-unkeyed", "search-keyed",
                      "search-unkeyed", "search-error"):
            request = requests[label]
            kind = label.split("-")[0]
            response = (front.assess if kind == "assess" else front.search)(
                request, timeout=120.0
            )
            entry = dict(_entry(kind, request, response), label=label)
            (stored if request.idempotency_key else completed).append(entry)
        request, response = _degraded(front)
        stored.append(dict(_entry("assess", request, response), label="assess-degraded"))
    statuses = {entry["label"]: entry["status"] for entry in stored + completed}
    expected = {"search-error": "error", "assess-degraded": "degraded"}
    for label, status in statuses.items():
        if status != expected.get(label, "ok"):
            raise RuntimeError(f"{name}: {label} answered {status}")

    front = FleetSupervisor(config)
    ticket = front.submit("assess", requests["assess-cancelled"])
    front.cancel(ticket.id, "golden cancel")
    front.start()
    cancelled = ticket.future.result(timeout=120.0)
    front.close()
    if cancelled.status != "cancelled":
        raise RuntimeError(f"{name}: the cancelled request answered {cancelled.status}")

    front = FleetSupervisor(config)
    pending = front.submit("assess", requests["assess-pending"])
    front.close()

    return {
        "config": dict(SERVICE, fleet_workers=config.fleet_workers),
        "stored": stored,
        "completed": completed,
        "cancelled": dict(_entry("assess", requests["assess-cancelled"]), request_id=ticket.id),
        "pending": dict(_entry("assess", requests["assess-pending"]), request_id=pending.id),
    }


def _reference_estimate(request) -> dict:
    """What a journal-free service answers to ``request``: the result a
    re-execution of the journaled pending request must reproduce."""
    from repro.service.fleet import FleetSupervisor, ServiceConfig

    with FleetSupervisor(ServiceConfig(**SERVICE)).start() as front:
        response = front.assess(request, timeout=120.0)
    return response.result["estimate"]


def _tap_fleet_pipe():
    """Record the supervisor's task messages and, at its one receive
    point, the workers' responses."""
    from repro.service import fleet

    messages = {"task": [], "response": []}
    send = fleet._Worker.send
    receive = fleet.FleetSupervisor._receive

    def tapped_send(self, message):
        if message.get("type") == "task":
            messages["task"].append(message)
        return send(self, message)

    def tapped_receive(self, shard, message):
        if message.get("type") == "response":
            messages["response"].append(message)
        return receive(self, shard, message)

    fleet._Worker.send = tapped_send
    fleet.FleetSupervisor._receive = tapped_receive
    return messages


def _write_pipe(messages: dict) -> None:
    directory = os.path.join(HERE, "pipe")
    os.makedirs(directory)
    for kind in ("assess", "search"):
        task = next(m for m in messages["task"] if m["kind"] == kind)
        _write_json(os.path.join(directory, f"task-{kind}.json"), task)
        response = next(
            m for m in messages["response"] if m["id"] == task["id"]
        )
        _write_json(os.path.join(directory, f"response-{kind}.json"), response)


# ----------------------------------------------------------------------
# Search checkpoint
# ----------------------------------------------------------------------


def _checkpoint(root: str) -> None:
    from repro.app.structure import ApplicationStructure
    from repro.core.anneal import MoveBudgetTemperatureSchedule
    from repro.core.api import AssessmentConfig
    from repro.core.plan import ZoneConstraints
    from repro.core.search import DeploymentSearch, SearchSpec
    from repro.faults.inventory import build_zone_inventory
    from repro.topology.zones import MultiZoneTopology

    topology = MultiZoneTopology(zones=2, k=4, seed=7)
    model = build_zone_inventory(topology, seed=7)
    path = os.path.join(root, "checkpoint-zones.json")
    search = DeploymentSearch.from_config(
        topology,
        model,
        AssessmentConfig(rounds=600, rng=5),
        rng=9,
        keep_trace=True,
        checkpoint_path=path,
        checkpoint_every=2,
        temperature_schedule=MoveBudgetTemperatureSchedule(8),
    )
    search.search(
        SearchSpec(
            ApplicationStructure.k_of_n(1, 3),
            max_seconds=60.0,
            max_iterations=8,
            zone_constraints=ZoneConstraints.from_mapping(
                primary_zone="zone0",
                min_outside_primary=1,
                pinned_zones={"app": ["zone0", "zone1"]},
            ),
        )
    )
    shutil.copy(path, os.path.join(HERE, "checkpoint-zones.json"))


# ----------------------------------------------------------------------
# CLI --json output
# ----------------------------------------------------------------------

#: name -> argv; every command runs with ``--json`` in a scratch directory.
COMMANDS = {
    "assess": ["assess", "--scale", "tiny", "--hosts", ",".join(HOSTS),
               "--k", "2", "--rounds", "2000"],
    "assess-workers": ["assess", "--scale", "tiny", "--hosts", ",".join(HOSTS),
                       "--k", "2", "--rounds", "2000", "--workers", "2"],
    "search": ["search", "--scale", "tiny", "--k", "2", "--n", "3",
               "--rounds", "1000", "--move-budget", "20", "--seconds", "60"],
    "risk": ["risk", "--scale", "tiny", "--hosts",
             "host/0/0/0,host/0/0/1,host/1/0/0", "--k", "2"],
    "baseline": ["baseline", "--scale", "tiny", "--k", "4", "--n", "5",
                 "--rounds", "2000"],
    "capacity": ["capacity", "--target-rps", "40", "--per-worker-rps", "10"],
    "drill": ["drill", "--rounds", "3", "--seed", "7", "--seed-bug",
              "no-journal-fsync", "--no-shrink", "--out", "."],
    "redeploy": ["redeploy", "--zones", "2", "--fabric-k", "4", "--k", "2",
                 "--n", "3", "--rounds", "300", "--move-budget", "10",
                 "--cycles", "2", "--primary-zone", "zone0",
                 "--min-outside-primary", "1", "--state-dir", "redeploy",
                 "--inject-outage", "zone0"],
}

#: Exit codes the commands above end with (the drill catches its bug).
EXIT_CODES = {"drill": 6}


def _cli(root: str) -> None:
    directory = os.path.join(HERE, "cli")
    os.makedirs(directory)
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, argv in COMMANDS.items():
        run = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--json"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if run.returncode != EXIT_CODES.get(name, 0):
            raise RuntimeError(f"repro {name} exited {run.returncode}: {run.stderr}")
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as handle:
            handle.write(run.stdout)
    reproducer = json.loads(open(os.path.join(directory, "drill.json")).read())["reproducer"]
    run = subprocess.run(
        [sys.executable, "-m", "repro", "drill", "--replay", reproducer, "--json"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    if run.returncode != 6:
        raise RuntimeError(f"repro drill --replay exited {run.returncode}: {run.stderr}")
    with open(os.path.join(directory, "drill-replay.json"), "w", encoding="utf-8") as handle:
        handle.write(run.stdout)


def _framed_redeploy_journal() -> None:
    """Frame the JSONL decision log's records, in order, as the
    controller's ``DecisionJournal.append`` writes them."""
    from repro.service.journal import encode_record
    from repro.service.redeploy import JOURNAL_NAME

    directory = os.path.join(HERE, "redeploy")
    with open(os.path.join(directory, "redeploy-journal.jsonl"), "rb") as handle:
        records = [json.loads(line) for line in handle]
    with open(os.path.join(directory, JOURNAL_NAME), "wb") as handle:
        handle.write(b"".join(map(encode_record, records)))


# ----------------------------------------------------------------------
# HTTP bodies
# ----------------------------------------------------------------------

#: name -> (path, raw request body); ``replayed`` resends ``assess``.
HTTP = {
    "assess": ("/assess", {"hosts": HOSTS, "k": 2, "rounds": 2000,
                           "idempotency_key": "golden-http"}),
    "search": ("/search", {"k": 2, "n": 3, "max_seconds": 0.5, "rounds": 400}),
    "invalid": ("/assess", {"hosts": 7, "k": "two", "rounds": True}),
    "replayed": ("/assess", {"hosts": HOSTS, "k": 2, "rounds": 2000,
                             "idempotency_key": "golden-http"}),
}


def _http(root: str) -> None:
    from repro.service.fleet import FleetSupervisor, ServiceConfig
    from repro.service.server import ServiceHTTPServer

    directory = os.path.join(HERE, "http")
    os.makedirs(directory)
    config = ServiceConfig(**SERVICE, journal_dir=os.path.join(root, "http"))
    with FleetSupervisor(config).start() as service:
        httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        statuses = {}
        try:
            for name, (path, body) in HTTP.items():
                request = urllib.request.Request(
                    base + path,
                    data=json.dumps(body).encode("utf-8"),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=120) as reply:
                        status, raw = reply.status, reply.read()
                except urllib.error.HTTPError as exc:
                    status, raw = exc.code, exc.read()
                statuses[name] = status
                with open(os.path.join(directory, f"{name}.json"), "wb") as handle:
                    handle.write(raw)
        finally:
            httpd.shutdown()
            httpd.server_close()
    if statuses != {"assess": 200, "search": 200, "invalid": 400, "replayed": 200}:
        raise RuntimeError(f"unexpected HTTP statuses {statuses}")
    _write_json(
        os.path.join(directory, "requests.json"),
        {name: {"path": path, "body": body} for name, (path, body) in HTTP.items()},
    )


# ----------------------------------------------------------------------


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.call([sys.executable, os.path.abspath(__file__)], env=env)
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as handle:
        manifest = {"thread-service": json.load(handle)["thread-service"]}
    for name in OUTPUTS:
        path = os.path.join(HERE, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.unlink(path)

    with tempfile.TemporaryDirectory(prefix="repro-goldens-") as root:
        messages = _tap_fleet_pipe()
        manifest["fleet-service"] = _journaled_service(root, "fleet-service")
        _write_pipe(messages)
        shutil.copytree(
            os.path.join(root, "fleet-service"), os.path.join(HERE, "fleet-service")
        )
        manifest["reference_estimate"] = _reference_estimate(
            _requests()["assess-pending"]
        )
        _checkpoint(root)
        _cli(root)
        _http(root)
    _framed_redeploy_journal()
    _write_json(os.path.join(HERE, "manifest.json"), manifest)
    print(f"wrote goldens under {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
