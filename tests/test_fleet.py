"""The supervised worker fleet: sharding, failover, chaos replay.

The expensive end of the service tests: real forked worker processes,
real SIGKILL. Rounds are kept small and heartbeats fast so the whole
file still runs in seconds. The crown jewel is
``test_kill9_mid_request_replays_bit_identical`` — the PR 5 durability
guarantee carried across process boundaries.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.serialization import encode
from repro.service.client import HttpServiceClient
from repro.service.executor import MIN_CHUNK_ROUNDS, RequestExecutor, chunk_layout
from repro.service.fleet import FleetSupervisor, ServiceConfig
from repro.service.heartbeat import HeartbeatTracker, RestartPolicy
from repro.service.journal import RequestJournal
from repro.service.lifecycle import HashRing, RequestLifecycle, fingerprint
from repro.service.requests import AssessRequest, ServiceResponse
from repro.service.server import ServiceHTTPServer
from repro.util.cancel import CancellationToken
from repro.util.errors import AdmissionRejected, ConfigurationError, ReproError
from repro.util.faultpoints import armed
from tests.sampling_gate import SamplingGate

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker fleet requires the fork start method",
)


def _config(journal_dir, **overrides) -> ServiceConfig:
    defaults = dict(
        scale="tiny",
        seed=1,
        rounds=200,
        chunks=4,
        queue_capacity=16,
        fleet_workers=2,
        journal_dir=os.fspath(journal_dir),
        heartbeat_interval_seconds=0.1,
        heartbeat_misses=5,
        respawn_backoff_seconds=0.1,
        respawn_backoff_cap_seconds=0.5,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _hosts(supervisor, count=3):
    return tuple(
        c for c in supervisor.topology.components if c.startswith("host")
    )[:count]


def _without_wall_time(response: ServiceResponse) -> dict:
    document = copy.deepcopy(encode(response))
    document.pop("elapsed_seconds", None)
    document["result"].pop("elapsed_seconds")
    return document


def _set_states(fleet, state):
    for slot in fleet._slots:
        slot.state = state


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestHashRing:
    def test_every_shard_owns_part_of_the_space(self):
        ring = HashRing(4)
        owners = {ring.owner(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_placement_is_deterministic_across_instances(self):
        first = HashRing(8)
        second = HashRing(8)
        keys = [f"key-{i}" for i in range(200)]
        assert [first.owner(k) for k in keys] == [second.owner(k) for k in keys]

    def test_removing_a_shard_only_moves_its_own_keys(self):
        ring = HashRing(4)
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        survivors = [0, 1, 3]  # shard 2 died
        for key, owner in before.items():
            after = ring.owner(key, survivors)
            if owner != 2:
                assert after == owner, "a surviving shard's key moved"
            else:
                assert after in survivors

    def test_placement_is_pinned_across_processes_and_releases(self):
        """sha256 points, 64 a shard: a key lands where it always did,
        and a dead shard's keys go to the next eligible point clockwise."""
        ring = HashRing(3)
        owners = [ring.owner(f"key-{i}") for i in range(24)]
        assert "".join(map(str, owners)) == "001000011012010112112202"
        survivors = [ring.owner(f"key-{i}", [0, 2]) for i in range(24)]
        assert "".join(map(str, survivors)) == "002000020002000002222202"

    def test_eligible_filter_and_empty_set(self):
        ring = HashRing(4)
        assert ring.owner("anything", [2]) == 2
        assert ring.owner("anything", []) is None


class TestFleetBasics:
    def test_requires_fleet_workers(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fleet_workers"):
            FleetSupervisor(_config(tmp_path, fleet_workers=0))

    def test_assess_executes_and_keys_replay(self, tmp_path):
        with FleetSupervisor(_config(tmp_path)) as fleet:
            hosts = _hosts(fleet)
            first = fleet.assess(
                AssessRequest(hosts=hosts, k=2, idempotency_key="alpha"),
                timeout=60,
            )
            assert first.status == "ok"
            assert first.result is not None
            unkeyed = fleet.assess(AssessRequest(hosts=hosts, k=2), timeout=60)
            assert unkeyed.status == "ok"
            replay = fleet.assess(
                AssessRequest(hosts=hosts, k=2, idempotency_key="alpha"),
                timeout=60,
            )
            assert replay.replayed
            assert replay.result == first.result

    def test_fleet_answers_with_the_in_process_executors_bits(self, tmp_path):
        """The failover promise, differentially: keyed requests through
        a forked shard worker — one piece, and three — answer field for
        field (wall time aside) as :meth:`RequestExecutor.run` does in
        this process on the same substrate and service seed."""
        config = _config(tmp_path)
        several = 3 * MIN_CHUNK_ROUNDS + 1
        layouts = {None: (config.rounds,), several: chunk_layout(several, 4)}
        assert len(layouts[several]) == 3
        with FleetSupervisor(config) as fleet:
            requests = [
                AssessRequest(
                    hosts=_hosts(fleet), k=2, rounds=rounds,
                    idempotency_key=f"same-bits-{rounds}",
                )
                for rounds in layouts
            ]
            answers = [fleet.assess(request, timeout=120) for request in requests]
        in_process = RequestExecutor(
            fleet.topology,
            fleet.dependency_model,
            service_seed=config.seed,
            default_rounds=config.rounds,
            chunks=config.chunks,
        )
        for request, answer, layout in zip(requests, answers, layouts.values()):
            assert answer.status == "ok"
            assert len(answer.result["runtime"]["portion_seeds"]) == len(layout)
            expected = in_process.run(
                "assess",
                request,
                request_id=answer.request_id,
                token=CancellationToken(),
                queue_seconds=answer.queue_seconds,
            )
            assert _without_wall_time(answer) == _without_wall_time(expected)

    def test_tight_deadline_yields_anytime_not_timeout(self, tmp_path):
        """A request far larger than its deadline is still cut into
        ``chunks`` pieces in the shard worker: the answer is a typed
        anytime response (partial rounds) or a typed cancel, never a
        timeout and never the whole run."""
        rounds = 3_000_000
        assert len(chunk_layout(rounds, 4)) == 4
        with FleetSupervisor(_config(tmp_path)) as fleet:
            response = fleet.assess(
                AssessRequest(
                    hosts=_hosts(fleet), k=2, rounds=rounds,
                    deadline_seconds=0.15,
                ),
                timeout=60,
            )
        assert response.status in ("ok", "degraded", "cancelled")
        if response.status == "degraded":
            runtime = response.result["runtime"]
            assert runtime["cancelled"] is True
            assert runtime["dropped_rounds"] > 0
            assert 0 < response.result["estimate"]["rounds"] < rounds
        elif response.status == "cancelled":
            assert response.error["error"] == "cancelled"

    def test_keyed_requests_route_by_ring_owner(self, tmp_path):
        with FleetSupervisor(_config(tmp_path)) as fleet:
            hosts = _hosts(fleet)
            key = "routed-key"
            expected = fleet.core.ring.owner(
                key, range(fleet.config.fleet_workers)
            )
            ticket = fleet.submit(
                "assess", AssessRequest(hosts=hosts, k=2, idempotency_key=key)
            )
            assert ticket.shard == expected
            ticket.future.result(timeout=60)

    def test_status_exposes_shard_and_heartbeat_views(self, tmp_path):
        with FleetSupervisor(_config(tmp_path)) as fleet:
            assert _wait_until(
                lambda: fleet.status()["fleet"]["alive"] == 2
            ), fleet.status()
            status = fleet.status()
            shards = status["fleet"]["shards"]
            assert [s["shard"] for s in shards] == [0, 1]
            assert all(s["pid"] for s in shards)
            workers = {row["name"]: row for row in status["workers"]}
            assert set(workers) == {"shard-0", "shard-1"}
            for row in workers.values():
                assert row["heartbeat_age_seconds"] is not None
                assert row["status"] == "alive"
            assert status["durability"]["journaling"] is True
            # Lifetime restart/quarantine counters start at zero and no
            # drill verdict exists until a campaign writes one.
            for shard in shards:
                assert shard["window_restarts"] == 0
                assert shard["lifetime_quarantines"] == 0
            assert status["fleet"]["lifetime_restarts"] == 0
            assert status["fleet"]["lifetime_quarantines"] == 0
            assert status["drill"] is None

    def test_status_surfaces_last_drill_verdict(self, tmp_path):
        from repro.drill.engine import CampaignReport, write_verdict

        with FleetSupervisor(_config(tmp_path)) as fleet:
            assert fleet.status()["drill"] is None
            write_verdict(
                fleet.config.journal_dir,
                CampaignReport(rounds=2, rounds_run=2, seed=7, bug=None),
            )
            verdict = fleet.status()["drill"]
            assert verdict["passed"] is True
            assert verdict["rounds_run"] == 2
            assert verdict["seed"] == 7

    def test_submit_sheds_failover_when_no_shard_routable(self, tmp_path):
        fleet = FleetSupervisor(_config(tmp_path))
        try:
            fleet.start()
            hosts = _hosts(fleet)
            fleet._on_loop(_set_states, fleet, "quarantined")
            with pytest.raises(AdmissionRejected) as excinfo:
                fleet.submit("assess", AssessRequest(hosts=hosts, k=2))
            assert excinfo.value.reason == "failover"
        finally:
            fleet._on_loop(_set_states, fleet, "alive")
            fleet.close()


class TestFleetRecovery:
    def test_full_restart_replays_journaled_pending_requests(self, tmp_path):
        # A previous supervisor accepted work into shard 1's segment
        # family and died before executing it.
        from repro.topology.presets import paper_topology

        topology = paper_topology("tiny", seed=1)
        hosts = tuple(
            c for c in topology.components if c.startswith("host")
        )[:3]
        request = AssessRequest(hosts=hosts, k=2, idempotency_key="ghost")
        journal = RequestJournal(os.fspath(tmp_path), shard=1)
        journal.accepted(
            "req-77",
            "assess",
            encode(request),
            "ghost",
            fingerprint(request),
        )
        journal.started("req-77")
        journal.close()
        with FleetSupervisor(_config(tmp_path)) as fleet:
            assert _wait_until(lambda: "req-77" not in fleet.core.tickets)
            # The replayed execution completed and the key is now bound
            # to a stored response.
            replay = fleet.assess(
                AssessRequest(hosts=hosts, k=2, idempotency_key="ghost"),
                timeout=60,
            )
            assert replay.replayed
            assert replay.request_id == "req-77"
            assert replay.result["runtime"]["recovered"] is True

    def test_dead_worker_respawns_and_serves_again(self, tmp_path):
        with FleetSupervisor(_config(tmp_path)) as fleet:
            assert _wait_until(lambda: fleet.status()["fleet"]["alive"] == 2)
            victim = fleet._workers[0].process.pid
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(
                lambda: fleet._slots[0].generation == 2
                and fleet.status()["fleet"]["alive"] == 2
            ), fleet.status()
            status = fleet.status()
            assert status["fleet"]["shards"][0]["restarts"] == 1
            assert status["fleet"]["shards"][0]["window_restarts"] == 1
            assert status["fleet"]["lifetime_restarts"] == 1
            assert status["fleet"]["lifetime_quarantines"] == 0
            assert fleet._workers[0].process.pid != victim
            hosts = _hosts(fleet)
            response = fleet.assess(AssessRequest(hosts=hosts, k=2), timeout=60)
            assert response.status == "ok"

    def test_flapping_worker_is_quarantined_and_survivors_serve(self, tmp_path):
        config = _config(tmp_path, quarantine_restarts=0)
        with FleetSupervisor(config) as fleet:
            assert _wait_until(lambda: fleet.status()["fleet"]["alive"] == 2)
            os.kill(fleet._workers[0].process.pid, signal.SIGKILL)
            assert _wait_until(
                lambda: fleet._slots[0].state == "quarantined"
            ), fleet.status()
            status = fleet.status()
            assert status["fleet"]["quarantined"] == 1
            assert status["fleet"]["shards"][0]["lifetime_quarantines"] == 1
            assert status["fleet"]["lifetime_quarantines"] == 1
            hosts = _hosts(fleet)
            # Every key now lands on the survivor, including ones the
            # dead shard used to own.
            for index in range(4):
                response = fleet.assess(
                    AssessRequest(
                        hosts=hosts, k=2, idempotency_key=f"q-{index}"
                    ),
                    timeout=60,
                )
                assert response.status == "ok"


class TestOneEventLoop:
    """The supervisor reads every worker pipe, sees every exit, ticks and
    runs every call into the core from one thread; a worker runs its
    executor beside one link thread."""

    def test_every_core_call_runs_on_the_loop(self, tmp_path, monkeypatch):
        """HTTP threads validate and hand off: from ``start`` through the
        drain, every method of the core and of the heartbeat tracker,
        restart policy and journals it owns runs on ``fleet-loop``."""
        calls = []

        def traced(name, method):
            @functools.wraps(method)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread().name))
                return method(*args, **kwargs)

            return wrapper

        fleet = FleetSupervisor(_config(tmp_path))  # opens the journals
        for cls in (RequestLifecycle, HeartbeatTracker, RestartPolicy, RequestJournal):
            for name, member in list(vars(cls).items()):
                if name.startswith("__"):
                    continue
                if isinstance(member, staticmethod):
                    monkeypatch.setattr(
                        cls, name, staticmethod(traced(name, member.__func__))
                    )
                elif inspect.isfunction(member):
                    monkeypatch.setattr(cls, name, traced(name, member))
        fleet.start()
        httpd = ServiceHTTPServer(("127.0.0.1", 0), fleet)
        server = threading.Thread(target=httpd.serve_forever, daemon=True)
        server.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        hosts = _hosts(fleet)
        errors = []

        def client_loop(index):
            client = HttpServiceClient(url, timeout=60.0, max_attempts=1)
            try:
                for key in (f"c{index}", f"c{index}", None):  # fresh, replay
                    response = client.assess(hosts, 2, idempotency_key=key)
                    assert response["status"] == "ok", response
                    with pytest.raises(ReproError, match="HTTP 404"):
                        client.cancel(response["request_id"])  # finished
                    assert client.healthz()["fleet"]["workers"] == 2
            except BaseException as exc:
                errors.append(exc)

        clients = [
            threading.Thread(target=client_loop, args=(index,))
            for index in range(2)
        ]
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            httpd.shutdown()
            server.join(timeout=10)
            httpd.server_close()
            fleet.drain()
        monkeypatch.undo()
        assert not errors, errors
        assert {name for name, _ in calls} >= {
            "start", "admit", "cancel", "on_message", "accepted", "completed",
            "beat", "snapshot", "is_quarantined", "drain", "close",
        }
        assert {thread for _, thread in calls} == {"fleet-loop"}

    def test_one_supervisor_thread_survives_a_kill9_respawn(self, tmp_path):
        before = set(threading.enumerate())

        def started_threads():
            return sorted(t.name for t in set(threading.enumerate()) - before)

        with FleetSupervisor(_config(tmp_path)) as fleet:
            assert _wait_until(lambda: fleet.status()["fleet"]["alive"] == 2)
            assert started_threads() == ["fleet-loop"]
            os.kill(fleet._workers[0].process.pid, signal.SIGKILL)
            assert _wait_until(
                lambda: fleet._slots[0].generation == 2
                and fleet.status()["fleet"]["alive"] == 2
            ), fleet.status()
            assert started_threads() == ["fleet-loop"]
            response = fleet.assess(AssessRequest(hosts=_hosts(fleet), k=2), timeout=60)
            assert response.status == "ok"
        assert started_threads() == []

    def test_a_closed_fleet_sheds_stopped_and_reads_its_final_state(
        self, tmp_path
    ):
        """Once the loop has exited nothing mutates the core: a submit is
        shed ``stopped`` (a known key too), a cancel finds nothing, and
        the status is the final one."""
        with FleetSupervisor(_config(tmp_path)) as fleet:
            keyed = AssessRequest(hosts=_hosts(fleet), k=2, idempotency_key="k")
            answered = fleet.assess(keyed, timeout=60)
        for request in (keyed, dataclasses.replace(keyed, idempotency_key=None)):
            with pytest.raises(AdmissionRejected) as excinfo:
                fleet.submit("assess", request)
            assert excinfo.value.reason == "stopped"
        assert not fleet.cancel(answered.request_id)
        status = fleet.status()
        assert status["health"]["state"] == "stopped"
        assert status["durability"]["known_keys"] == 1

    def test_a_worker_runs_its_executor_beside_one_link_thread(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        seen = ctx.Queue()

        def hook():  # runs in the worker, on its executor thread
            main = threading.main_thread()  # the thread that forked it
            names = sorted(t.name for t in threading.enumerate())
            seen.put((threading.current_thread() is main, names, main.name))

        with armed(SamplingGate(hook)):
            with FleetSupervisor(_config(tmp_path, fleet_workers=1)) as fleet:
                response = fleet.assess(
                    AssessRequest(hosts=_hosts(fleet), k=2), timeout=60
                )
        assert response.status == "ok"
        on_main, names, main_name = seen.get(timeout=10)
        assert on_main
        assert names == sorted(["fleet-link", main_name])


class TestFleetChaos:
    def test_kill9_mid_request_replays_bit_identical(self, tmp_path):
        """SIGKILL a worker mid-assessment; the survivor's replay must be
        bit-identical to an uninterrupted run of the same request."""
        request = None
        reference = None
        # Enough rounds for four anytime pieces, i.e. four ``assess`` calls:
        # the kill below lands with two pieces done and the third begun.
        rounds = 4 * MIN_CHUNK_ROUNDS + 3
        assert len(chunk_layout(rounds, 4)) == 4
        # Reference: the same keyed request on an undisturbed fleet.
        with FleetSupervisor(_config(tmp_path / "ref", rounds=rounds)) as fleet:
            hosts = _hosts(fleet)
            request = AssessRequest(
                hosts=hosts, k=2, idempotency_key="victim-key"
            )
            reference = fleet.assess(request, timeout=120)
            assert reference.status == "ok"

        ctx = multiprocessing.get_context("fork")
        ready = ctx.Semaphore(0)
        gate = ctx.Semaphore(0)
        calls = ctx.Value("i", 0)

        def hook():
            with calls.get_lock():
                calls.value += 1
                landed = calls.value
            if landed == 3:  # third piece begun: flag the test, then block
                ready.release()
                gate.acquire()

        # Workers fork *after* the gate is armed and inherit it.
        with armed(SamplingGate(hook)):
            with FleetSupervisor(
                _config(tmp_path / "chaos", rounds=rounds)
            ) as fleet:
                ticket = fleet.submit("assess", request)
                assert ready.acquire(timeout=60), "worker never sampled"
                busy = fleet._on_loop(
                    lambda: [s.shard for s in fleet._slots if s.inflight]
                )
                assert busy, fleet.status()
                os.kill(fleet._workers[busy[0]].process.pid, signal.SIGKILL)
                for _ in range(500):  # unblock the replay and respawns
                    gate.release()
                response = ticket.future.result(timeout=120)
                assert response.status == "ok"
                assert response.result["runtime"]["recovered"] is True
                assert response.result["estimate"] == reference.result["estimate"]
                # The journal agrees: one lifecycle, completed once.
                state = RequestJournal.scan(tmp_path / "chaos")
                events = [
                    e["event"] for e in state.events[response.request_id]
                ]
                assert events.count("completed") == 1

    def test_queued_keyed_requests_survive_worker_death(self, tmp_path):
        """Tickets queued behind a dying shard move to survivors without
        loss or duplication."""
        with FleetSupervisor(
            _config(tmp_path, queue_capacity=32, rounds=100)
        ) as fleet:
            assert _wait_until(lambda: fleet.status()["fleet"]["alive"] == 2)
            hosts = _hosts(fleet)
            tickets = [
                fleet.submit(
                    "assess",
                    AssessRequest(
                        hosts=hosts, k=2, idempotency_key=f"burst-{i}"
                    ),
                )
                for i in range(10)
            ]
            os.kill(fleet._workers[1].process.pid, signal.SIGKILL)
            responses = [t.future.result(timeout=120) for t in tickets]
            by_id = {}
            for response in responses:
                assert response.status == "ok", response
                by_id.setdefault(response.request_id, 0)
                by_id[response.request_id] += 1
            assert len(by_id) == 10  # nothing lost, nothing merged
