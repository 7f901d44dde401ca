"""The deterministic failure-drill engine.

Covers the layers bottom-up: the occurrence-addressed fault-point
registry, schedule (de)serialization, the seams threaded into the
production durability modules (journal, store, decision journal), the
whole-stack drill with its invariant checkers, campaign + shrinking +
reproducer replay, and the ``repro drill`` CLI. The heavyweight proof —
that a deliberately seeded fsync bug is caught, shrunk to a handful of
events and replays deterministically — lives in ``TestSeededBug``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from types import SimpleNamespace

import pytest

from repro.cli import EXIT_CONFIG, EXIT_DRILL, EXIT_OK, main
from repro.drill.engine import (
    load_verdict,
    replay_reproducer,
    run_campaign,
    run_drill,
    write_verdict,
)
from repro.drill.invariants import (
    REEXECUTION_FIELDS,
    Violation,
    _check_redeploy,
    _family_records,
    _ok_payload,
    check_drill,
)
from repro.drill.schedule import (
    _UNDRAWN_POINTS,
    FaultEvent,
    FaultSchedule,
    random_schedule,
    schedule_from_json,
)
from repro.drill.sim import DrillSim, _plan
from repro.serialization import dump, encode
from repro.service.journal import RequestJournal, encode_record
from repro.service.redeploy import INCUMBENT_NAME, JOURNAL_NAME, DecisionJournal
from repro.service.requests import AssessRequest
from repro.service.store import ResultStore
from repro.util.cancel import CancellationToken
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.faultpoints import (
    CATALOG,
    FaultCommand,
    FaultPoints,
    SimulatedCrash,
    armed,
    fault_hit,
)


class TestFaultPoints:
    def test_rejects_unknown_point_and_kind(self):
        registry = FaultPoints()
        with pytest.raises(ValidationError, match="unknown fault point"):
            registry.add("no.such.seam", FaultCommand("crash"))
        with pytest.raises(ValidationError, match="does not honour"):
            registry.add("journal.append", FaultCommand("kill"))

    @pytest.mark.parametrize(
        "point, kind, occurrence, field",
        [
            ("no.such.seam", "crash", 0, "point"),
            ("journal.append", "kill", 0, "command"),
            ("pool.portion", "crash", 0, "command"),
            ("sampling.start", "hang", None, "command"),
            ("store.put", "crash", -3, "occurrence"),
        ],
        ids=["point", "command", "pool-kind", "sampling-start", "occurrence"],
    )
    def test_add_names_the_field_that_could_never_fire(
        self, point, kind, occurrence, field
    ):
        with pytest.raises(ValidationError) as excinfo:
            FaultPoints().add(point, FaultCommand(kind), occurrence=occurrence)
        assert excinfo.value.fields() == (field,)

    def test_a_named_occurrence_ignores_the_hit_count(self):
        """``pool.portion`` hits are named by the portion's index: only
        that identity fires, however many hits came before."""
        registry = FaultPoints()
        registry.add("pool.portion", FaultCommand("kill"), occurrence=2)
        assert registry.hit("pool.portion", occurrence=0) is None
        assert registry.hit("pool.portion", occurrence=1) is None
        assert registry.hit("pool.portion", occurrence=2).kind == "kill"
        assert registry.hit("pool.portion", occurrence=2).kind == "kill"
        assert registry.hit("pool.portion", occurrence=0) is None
        assert registry.counters["pool.portion"] == 5
        assert registry.fired == [
            {"point": "pool.portion", "occurrence": 2, "kind": "kill"}
        ] * 2

    def test_sampling_start_counts_every_entry_and_commands_nothing(self):
        registry = FaultPoints()
        with armed(registry):
            assert fault_hit("sampling.start") is None
            assert fault_hit("sampling.start") is None
        assert registry.counters == {"sampling.start": 2}
        assert CATALOG["sampling.start"] == ()

    def test_occurrence_addressing(self):
        registry = FaultPoints()
        registry.add("store.put", FaultCommand("crash"), occurrence=2)
        assert registry.hit("store.put") is None
        assert registry.hit("store.put") is None
        assert registry.hit("store.put").kind == "crash"
        assert registry.hit("store.put") is None
        assert registry.counters["store.put"] == 4
        assert registry.fired == [
            {"point": "store.put", "occurrence": 2, "kind": "crash"}
        ]

    def test_wildcard_occurrence_fires_every_time(self):
        registry = FaultPoints()
        registry.add("worker.heartbeat", FaultCommand("drop"))
        assert registry.hit("worker.heartbeat").kind == "drop"
        assert registry.hit("worker.heartbeat").kind == "drop"

    def test_disarmed_seam_is_noop(self):
        assert fault_hit("journal.append") is None

    def test_armed_scopes_the_registry(self):
        registry = FaultPoints()
        registry.add("store.put", FaultCommand("crash"), occurrence=0)
        with armed(registry):
            assert fault_hit("store.put").kind == "crash"
        assert fault_hit("store.put") is None
        assert registry.counters["store.put"] == 1

    def test_disable_stops_injecting_but_keeps_counting(self):
        registry = FaultPoints()
        registry.add("store.put", FaultCommand("crash"))
        registry.disable()
        assert registry.hit("store.put") is None
        assert registry.counters["store.put"] == 1

    def test_power_loss_truncates_to_durable_watermark(self, tmp_path):
        path = tmp_path / "file.bin"
        path.write_bytes(b"0123456789")
        registry = FaultPoints()
        registry.add("journal.fsync", FaultCommand("skip_fsync"))
        registry.hit("journal.fsync", path=str(path), durable=4)
        lost = registry.apply_power_loss()
        assert lost == [(str(path), 4)]
        assert path.read_bytes() == b"0123"
        assert registry.unsynced == {}

    def test_fault_catalog_excludes_deliberate_bugs(self):
        assert CATALOG["journal.fsync"] == ("skip_fsync",)
        assert CATALOG["executor.reseed"] == ("skip_reseed",)
        assert {"journal.fsync", "executor.reseed"} <= set(_UNDRAWN_POINTS)
        assert {"pool.portion", "sampling.start"} <= set(_UNDRAWN_POINTS)


class TestSchedule:
    def test_json_round_trip(self):
        schedule = random_schedule(random.Random(3), max_events=5)
        text = json.dumps(encode(schedule.events))
        assert schedule_from_json(json.loads(text)) == schedule

    def test_random_schedules_draw_faults_only_at_finite_occurrences(self):
        rng = random.Random(17)
        for _ in range(200):
            for event in random_schedule(rng, max_events=5).events:
                assert event.point in CATALOG
                assert event.point not in _UNDRAWN_POINTS
                assert event.occurrence is not None
                assert event.command in CATALOG[event.point]

    def test_with_bug_prepends_the_bug_events(self):
        base = FaultSchedule((FaultEvent("store.put", "io_error", 3),))
        seeded = base.with_bug("no-journal-fsync")
        assert len(seeded) == 3
        assert seeded.events[0].point == "journal.fsync"
        assert seeded.events[0].command == "skip_fsync"
        assert seeded.events[-1] == base.events[0]

    def test_build_validates_against_the_catalog(self):
        bad = FaultSchedule(
            (FaultEvent("store.put", "crash", 1), FaultEvent("journal.append", "kill", 0))
        )
        with pytest.raises(ValidationError) as excinfo:
            bad.build()
        assert excinfo.value.fields() == ("1.command",)


class TestProductionSeams:
    def test_journal_torn_append_truncated_on_reopen(self, tmp_path):
        registry = FaultPoints()
        registry.add(
            "journal.append", FaultCommand("torn", arg=7), occurrence=1
        )
        with armed(registry):
            journal = RequestJournal(tmp_path)
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            with pytest.raises(SimulatedCrash):
                journal.accepted("req-2", "assess", {"hosts": ["h0"], "k": 1})
        # The torn tail is dropped on reopen; req-1 survives untouched and
        # the journal is appendable again.
        journal = RequestJournal(tmp_path)
        state = journal.replay()
        assert [p.request_id for p in state.pending] == ["req-1"]
        journal.completed("req-1", "ok")
        journal.close()
        assert RequestJournal.scan(tmp_path).terminal_ids == {"req-1"}

    def test_skip_fsync_bug_loses_acked_records_on_power_loss(self, tmp_path):
        registry = FaultPoints()
        registry.add("journal.fsync", FaultCommand("skip_fsync"))
        with armed(registry):
            journal = RequestJournal(tmp_path)
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            journal.accepted("req-2", "assess", {"hosts": ["h0"], "k": 1})
            registry.apply_power_loss()
            journal.close()
        # Both acknowledged admissions evaporated with the page cache —
        # exactly the defect the no-journal-fsync campaign must catch.
        state = RequestJournal.scan(tmp_path)
        assert state.pending == []
        assert state.max_request_number == 0

    def test_store_put_io_error_is_transient(self, tmp_path):
        store = ResultStore(tmp_path)
        registry = FaultPoints()
        registry.add("store.put", FaultCommand("io_error"), occurrence=0)
        with armed(registry):
            with pytest.raises(OSError):
                store.put("key", {"status": "ok"})
            store.put("key", {"status": "ok"})
        assert store.get("key") == {"status": "ok"}

    def test_decision_journal_torn_append_is_dropped_then_repaired(
        self, tmp_path
    ):
        """The ``redeploy.journal`` seam tears a frame as the request
        journal's does: all but its last byte reach the disk. The torn
        frame is dropped and counted, and after a repairing scan the next
        append reads back clean."""
        path = tmp_path / "decisions.waj"
        journal = DecisionJournal(str(path))
        journal.append({"record": "a"})
        intact = path.read_bytes()
        registry = FaultPoints().add(
            "redeploy.journal", FaultCommand("torn", arg=10**6)
        )
        with armed(registry), pytest.raises(SimulatedCrash):
            journal.append({"record": "b"})
        assert path.read_bytes() == intact + encode_record({"record": "b"})[:-1]
        records, torn = journal.scan()
        assert [r["record"] for r in records] == ["a"]
        assert torn == 1
        records, torn = journal.scan(repair=True)
        assert torn == 1
        assert path.read_bytes() == intact
        journal.append({"record": "c"})
        records, torn = journal.scan()
        assert [r["record"] for r in records] == ["a", "c"]
        assert torn == 0

    def test_decision_journal_mid_file_corruption_is_loud(self, tmp_path):
        path = tmp_path / "decisions.waj"
        journal = DecisionJournal(str(path))
        journal.append({"record": "a"})
        journal.append({"record": "b"})
        data = path.read_bytes().replace(b'"a"', b'"a', 1)
        path.write_bytes(data)
        with pytest.raises(ConfigurationError, match="corrupt mid-stream"):
            journal.scan()


class TestRawJournalReader:
    def test_a_bad_frame_mid_live_segment_is_a_lifecycle_violation(
        self, tmp_path
    ):
        """The drill applies the journal's rule to a family's last
        segment: a torn tail is tolerated, a bad frame with records after
        it is one ``journal-lifecycle`` violation naming the path, the
        defect and its byte offset."""
        for shard in (0, 1):
            with RequestJournal(tmp_path, shard=shard) as journal:
                for number in (1, 2):
                    journal.started(f"req-{shard}{number}")
        torn = tmp_path / "journal-s00-00000001.waj"
        torn.write_bytes(torn.read_bytes() + b"\x00\x00")
        records = _family_records(str(tmp_path))
        assert [r["id"] for r in records[0]] == ["req-01", "req-02"]
        corrupt = tmp_path / "journal-s01-00000001.waj"
        data = bytearray(corrupt.read_bytes())
        data[10] ^= 0x01  # a payload byte of the first record
        corrupt.write_bytes(bytes(data))
        sim = SimpleNamespace(
            fatal_error=None, quiesced=True, journal_dir=str(tmp_path)
        )
        (violation,) = check_drill(sim)
        assert violation.invariant == "journal-lifecycle"
        assert str(corrupt) in violation.detail
        assert "checksum mismatch at byte 0" in violation.detail

    def test_one_id_completed_in_one_family_and_cancelled_in_another(
        self, tmp_path
    ):
        """No family resurrects the id on its own; across the two it is
        both completed and cancelled."""
        with RequestJournal(tmp_path, shard=0) as journal:
            journal.completed("req-1", "ok")
        with RequestJournal(tmp_path, shard=1) as journal:
            journal.cancelled("req-1", "client-cancel")
        sim = SimpleNamespace(
            fatal_error=None,
            quiesced=True,
            journal_dir=str(tmp_path),
            redeploy_dir=str(tmp_path / "redeploy"),
            trace=SimpleNamespace(submissions=[]),
            make_executor=lambda: None,
            service=None,
        )
        violations = [v for v in check_drill(sim) if v.invariant != "fleet-drained"]
        assert violations == [
            Violation(
                "journal-lifecycle",
                "req-1 is journaled both completed and cancelled",
            )
        ]


class TestDrillEngine:
    def test_clean_drill_is_bit_reproducible(self):
        schedule = random_schedule(random.Random(11), max_events=3)
        first = run_drill(11, schedule, shards=2, requests=6)
        second = run_drill(11, schedule, shards=2, requests=6)
        assert first.passed, first.violations
        assert encode(first) == encode(second)

    def test_clean_campaign_passes(self):
        report = run_campaign(rounds=3, seed=7, shards=2, requests=6)
        assert report.passed
        assert report.rounds_run == 3
        assert report.total_submissions > 0

    def test_unknown_bug_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown seeded bug"):
            run_campaign(rounds=1, seed=7, bug="no-such-bug")

    @pytest.mark.parametrize(
        "field", ["rounds", "shards", "requests", "max_events"]
    )
    def test_a_size_below_one_is_rejected(self, field):
        """With no rounds, shards, requests or events a campaign drills
        nothing and would report PASS (no shards: the seeded fsync bug
        goes unseen; no events: a traceback)."""
        sizes = {"rounds": 2, "shards": 2, "requests": 4, "max_events": 2}
        sizes[field] = 0
        with pytest.raises(ValidationError) as excinfo:
            run_campaign(seed=7, bug="no-journal-fsync", **sizes)
        assert excinfo.value.fields() == (field,)

    def test_one_error_names_every_size_below_one(self):
        with pytest.raises(ValidationError) as excinfo:
            run_campaign(rounds=0, seed=7, shards=0, requests=-1, max_events=0)
        assert excinfo.value.fields() == (
            "rounds", "shards", "requests", "max_events",
        )

    def test_verdict_round_trips_and_tolerates_absence(self, tmp_path):
        assert load_verdict(str(tmp_path)) is None
        report = run_campaign(rounds=1, seed=3, shards=2, requests=4)
        write_verdict(str(tmp_path), report)
        verdict = load_verdict(str(tmp_path))
        assert verdict["passed"] is True
        assert verdict["rounds_run"] == 1


class TestDrillWorker:
    def test_each_worker_assesses_real_hosts_on_its_own_executor(self, tmp_path):
        registry = FaultPoints()
        with armed(registry):
            sim = DrillSim(5, os.fspath(tmp_path), registry, shards=2, requests=6)
            sim.run()
        sim.service.close_handles()
        workers = sim.service.workers.values()
        assert len({id(worker.executor) for worker in workers}) == 2
        for sub in sim.trace.submissions:
            assert set(sub.request.hosts) <= set(sim.topology.hosts)
            assert (len(sub.request.hosts), sub.request.k) == (3, 2)
        assert registry.counters["sampling.start"] > 0

    def test_a_client_cancel_reaches_the_in_flight_worker(self, tmp_path):
        """The drill's workers are the fleet's: a client cancel that
        races an unkeyed request already on a worker fires the worker's
        token, and the client is answered ``cancelled`` — journaled as
        started, then cancelled, never completed."""
        registry = FaultPoints()
        with armed(registry):
            sim = DrillSim(5, os.fspath(tmp_path), registry, shards=2, requests=6)
            sim.run()
        sim.service.close_handles()
        assert sim.quiesced and check_drill(sim) == []
        records = [
            record
            for family in _family_records(sim.journal_dir).values()
            for record in family
        ]
        (cancelled,) = [r for r in records if r["event"] == "cancelled"]
        assert (cancelled["reason"], cancelled["started"]) == (
            "client-cancel", True,
        )
        request_id = cancelled["id"]
        assert [r["event"] for r in records if r["id"] == request_id] == [
            "accepted", "started", "cancelled",
        ]
        (sub,) = [s for s in sim.trace.submissions if s.request_id == request_id]
        assert sub.key is None
        assert [(r["status"], r["error"]["reason"]) for r in sub.responses] == [
            ("cancelled", "client-cancel"),
        ]


def _leaves(value, prefix: str = "") -> dict:
    """Dotted path -> value of every leaf of a JSON document."""
    if not isinstance(value, dict):
        return {prefix: value}
    leaves: dict = {}
    for name, item in value.items():
        leaves.update(_leaves(item, f"{prefix}.{name}" if prefix else name))
    return leaves


class TestOkPayload:
    @pytest.mark.parametrize("key", ["key-3", None], ids=["keyed", "unkeyed"])
    def test_leaves_out_exactly_what_a_recovered_reexecution_changes(
        self, tmp_path, key
    ):
        """A first execution and a recovered re-execution on a fresh
        executor differ in exactly :data:`REEXECUTION_FIELDS`, and the
        drill's comparison leaves out those and nothing else."""
        sim = DrillSim(5, os.fspath(tmp_path), FaultPoints(), requests=4)
        request = AssessRequest(
            hosts=tuple(sim.topology.hosts[:3]), k=2, idempotency_key=key
        )
        first, again = (
            encode(
                sim.make_executor().run(
                    "assess",
                    request,
                    request_id="req-3",
                    token=CancellationToken(),
                    recovered=recovered,
                )
            )
            for recovered in (False, True)
        )
        before, after = _leaves(first["result"]), _leaves(again["result"])
        assert before.keys() == after.keys()
        assert {path for path in before if before[path] != after[path]} == set(
            REEXECUTION_FIELDS
        )
        assert _ok_payload(first) == _ok_payload(again)
        changed = dict(first, result=dict(first["result"], sampled_components=0))
        assert _ok_payload(changed) != _ok_payload(first)
        assert _ok_payload(dict(first, status="degraded")) != _ok_payload(first)


class TestInvariantChecks:
    def test_two_answers_to_one_key_break_duplicate_suppression(self, tmp_path):
        """A key answered twice, once with a forged score: two distinct
        payloads for one key, and one no fresh execution gives."""
        sim = DrillSim(5, os.fspath(tmp_path), FaultPoints(), shards=2, requests=6)
        sim.run()
        sim.service.close_handles()
        assert check_drill(sim) == []
        sub = next(sub for sub in sim.trace.submissions if sub.key is not None)
        forged = json.loads(json.dumps(sub.responses[0]))
        forged["result"]["estimate"]["score"] += 0.25
        sub.responses.append(forged)
        assert sorted(v.invariant for v in check_drill(sim)) == [
            "bit-identical-replay",
            "duplicate-suppression",
        ]

    @pytest.mark.parametrize(
        "calls, detail",
        [
            (["plan"], None),
            (["plan", "plan"], "plan {plan} actuated 2 times for 1 committed decision(s)"),
            (["other"], "plan {other} actuated without a committed decision"),
        ],
        ids=["once", "twice", "uncommitted"],
    )
    def test_a_committed_plan_is_actuated_once(self, tmp_path, calls, detail):
        """One committed, applied decision in a hand-written decision
        log: its plan actuated once passes; twice, or a plan no decision
        committed, is one ``redeploy-exactly-once`` violation."""
        keys = {"plan": _plan(1).canonical_key(), "other": _plan(2).canonical_key()}
        journal = DecisionJournal(os.fspath(tmp_path / JOURNAL_NAME))
        journal.append(
            {"record": "candidate", "decision": 1, "plan": encode(_plan(1)),
             "apply": True}
        )
        journal.append({"record": "applied", "decision": 1})
        dump(encode(_plan(1)), tmp_path / INCUMBENT_NAME, checksum=True)
        sim = SimpleNamespace(
            redeploy_dir=os.fspath(tmp_path),
            trace=SimpleNamespace(apply_calls=[keys[name] for name in calls]),
        )
        violations = _check_redeploy(sim)
        if detail is None:
            assert violations == []
        else:
            (violation,) = violations
            assert violation.invariant == "redeploy-exactly-once"
            assert violation.detail == detail.format(**keys)


class TestSeededBug:
    def test_fsync_bug_is_caught_shrunk_and_replays_deterministically(
        self, tmp_path
    ):
        report = run_campaign(
            rounds=5,
            seed=7,
            bug="no-journal-fsync",
            out_dir=str(tmp_path),
        )
        # Caught: the campaign fails, and the invariant that trips is the
        # durability contract the bug breaks.
        assert not report.passed
        violated = {v.invariant for v in report.failure.violations}
        assert "no-lost-request" in violated
        # Shrunk: the minimal reproducer is a handful of events.
        assert report.shrunk_events is not None
        assert report.shrunk_events <= 5
        assert report.shrunk_events <= report.original_events
        # Replayable: the reproducer file re-runs to the same verdict,
        # bit-for-bit, twice.
        assert report.reproducer_path is not None
        assert os.path.exists(report.reproducer_path)
        first = replay_reproducer(report.reproducer_path)
        second = replay_reproducer(report.reproducer_path)
        assert not first.passed
        assert encode(first) == encode(second)
        assert violated & {v.invariant for v in first.violations}

    def test_gate_campaign_passes_with_its_counters(self):
        """``repro drill --rounds 30 --seed 7``: a bug-only seam outside
        the drawn catalog moves no schedule and no counter."""
        report = run_campaign(rounds=30, seed=7, shrink_failures=False)
        assert report.passed, report.violations
        assert (
            report.total_crashes,
            report.total_faults,
            report.total_submissions,
        ) == (62, 90, 364)

    def test_reseed_bug_is_caught_by_the_gate_campaign(self, tmp_path):
        """An executor that answers from the stream its previous request
        left gives answers a fresh execution does not: the delivered and
        the stored ones both."""
        report = run_campaign(
            rounds=30,
            seed=7,
            bug="no-request-reseed",
            shrink_failures=False,
            out_dir=os.fspath(tmp_path),
        )
        assert not report.passed
        assert {v.invariant for v in report.failure.violations} == {
            "bit-identical-replay",
            "store-journal-agreement",
        }


class TestDrillCli:
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"schedule": [{"point": "no.such", "command": "crash"}]}, "schedule.0.point"),
            ({"schedule": [{"point": "journal.append", "command": "kill"}]}, "schedule.0.command"),
            (
                {"schedule": [{"point": "store.put", "command": "crash", "occurrence": -3}]},
                "schedule.0.occurrence",
            ),
            ({"seed": "7"}, "seed"),
            ({"shards": 0}, "shards"),
            ({"requests": 0}, "requests"),
            ({"max_ticks": 0}, "max_ticks"),
        ],
        ids=["point", "command", "occurrence", "seed", "shards", "requests", "max_ticks"],
    )
    def test_bad_reproducer_exits_2_naming_the_field(
        self, tmp_path, capsys, change, field
    ):
        """A reproducer whose event can never fire would replay to a false
        PASS; every such file is refused before anything runs."""
        document = {
            "format": "drill-reproducer",
            "seed": 7,
            "shards": 2,
            "requests": 6,
            "max_ticks": 1200,
            "schedule": [],
        }
        path = tmp_path / "reproducer.json"
        path.write_text(json.dumps({**document, **change}))
        assert main(["drill", "--replay", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "validation failed" in captured.err
        assert f"  {field}: " in captured.err

    def test_campaign_pass_exits_zero(self, capsys):
        assert (
            main(
                ["drill", "--rounds", "2", "--seed", "7", "--shards", "2",
                 "--requests", "6"]
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_seeded_bug_campaign_fails_and_replays(self, tmp_path, capsys):
        code = main(
            [
                "drill",
                "--rounds", "5",
                "--seed", "7",
                "--seed-bug", "no-journal-fsync",
                "--out", os.fspath(tmp_path),
            ]
        )
        assert code == EXIT_DRILL
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "shrunk" in out
        verdict = load_verdict(os.fspath(tmp_path))
        assert verdict["passed"] is False
        reproducers = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith("drill-repro-")
        ]
        assert len(reproducers) == 1
        replay_path = os.path.join(os.fspath(tmp_path), reproducers[0])
        assert main(["drill", "--replay", replay_path]) == EXIT_DRILL
        assert "REPRODUCED" in capsys.readouterr().out


class _HangBusyBeatOnce(FaultPoints):
    """Hangs, once across every forked worker, the first heartbeat a
    worker sends while its task computes; that computation waits for
    the hang, so the worker holds the request when it goes silent."""

    def __init__(self):
        super().__init__()
        self.hung = multiprocessing.get_context("fork").Value("b", 0)

    def hit(self, point, occurrence=None, **context):
        command = super().hit(point, occurrence, **context)
        if point == "sampling.start":
            deadline = time.monotonic() + 30
            while not self.hung.value and time.monotonic() < deadline:
                time.sleep(0.005)
        elif point == "worker.heartbeat" and self.counters.get("sampling.start"):
            with self.hung.get_lock():
                if not self.hung.value:
                    self.hung.value = 1
                    return FaultCommand("hang")
        return command


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker fleet requires the fork start method",
)
class TestRealFleetSeam:
    """The forked fleet's workers inherit an armed registry and honour
    the worker seams the drill's schedules use."""

    def test_dropped_started_message_is_harmless(self, tmp_path):
        """Dropping a worker's ``started`` protocol message must not
        affect the reply (the journal simply never learns the request
        began)."""
        from repro.service.executor import MIN_CHUNK_ROUNDS
        from repro.service.fleet import FleetSupervisor, ServiceConfig
        from repro.service.requests import AssessRequest

        registry = FaultPoints()
        # Each worker counts its own hits: its first task's "started".
        registry.add("worker.task.started", FaultCommand("drop"), occurrence=0)
        config = ServiceConfig(
            scale="tiny",
            seed=1,
            rounds=2 * MIN_CHUNK_ROUNDS,  # two anytime pieces a request
            chunks=4,
            queue_capacity=16,
            fleet_workers=2,
            journal_dir=os.fspath(tmp_path),
        )
        with armed(registry):
            with FleetSupervisor(config) as fleet:
                hosts = tuple(
                    c
                    for c in fleet.topology.components
                    if c.startswith("host")
                )[:3]
                response = fleet.assess(
                    AssessRequest(hosts=hosts, k=2), timeout=60
                )
                assert response.status == "ok"
        events = RequestJournal.scan(tmp_path).events
        assert [e["event"] for e in events[response.request_id]] == [
            "accepted", "completed",
        ]

    def test_a_hung_heartbeat_is_reaped_and_its_request_failed_over(
        self, tmp_path
    ):
        """A worker whose beats hang mid-request holds the request
        silently; the supervisor's heartbeat verdict kills it, and the
        survivor answers the request, flagged recovered."""
        from repro.service.fleet import FleetSupervisor, ServiceConfig
        from repro.service.requests import AssessRequest

        config = ServiceConfig(
            scale="tiny",
            rounds=1_000,
            fleet_workers=2,
            heartbeat_interval_seconds=0.05,
            heartbeat_misses=4,
            respawn_backoff_seconds=0.05,
            journal_dir=os.fspath(tmp_path),
        )
        with armed(_HangBusyBeatOnce()):
            with FleetSupervisor(config) as fleet:
                hosts = tuple(
                    c for c in fleet.topology.components if c.startswith("host")
                )[:3]
                response = fleet.assess(
                    AssessRequest(hosts=hosts, k=2), timeout=60
                )
        assert response.status == "ok"
        assert response.result["runtime"]["recovered"] is True
        assert fleet.metrics.counter("fleet/worker_deaths") >= 1

    def test_a_lone_hung_worker_is_respawned_and_answers_its_request(
        self, tmp_path
    ):
        """With one worker there is no survivor: the request waits for
        the respawned worker, which answers it ``ok``, flagged
        recovered, instead of a ``failover`` rejection."""
        from repro.service.fleet import FleetSupervisor, ServiceConfig
        from repro.service.requests import AssessRequest

        config = ServiceConfig(
            scale="tiny",
            rounds=1_000,
            fleet_workers=1,
            heartbeat_interval_seconds=0.05,
            heartbeat_misses=4,
            respawn_backoff_seconds=0.05,
            journal_dir=os.fspath(tmp_path),
        )
        with armed(_HangBusyBeatOnce()):
            with FleetSupervisor(config) as fleet:
                hosts = tuple(
                    c for c in fleet.topology.components if c.startswith("host")
                )[:3]
                response = fleet.assess(
                    AssessRequest(hosts=hosts, k=2), timeout=60
                )
        assert response.status == "ok"
        assert response.result["runtime"]["recovered"] is True
        assert fleet.metrics.counter("fleet/worker_deaths") >= 1
        assert fleet.metrics.counter("fleet/respawns") >= 1
