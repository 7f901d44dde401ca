"""Documents an earlier version of the code wrote still decode, re-encode
to the same JSON, and still serve a restarted service.

``tests/golden/`` holds journal segments, result-store entries, fleet pipe
messages, a search checkpoint, CLI ``--json`` output, HTTP bodies and a
redeploy journal, written from fixed seeds by
``tests/golden/make_goldens.py`` (see its docstring for when to rerun
it). Files written with ``sort_keys`` (journal, store, checkpoint,
request fingerprints, redeploy journal and incumbent) must re-encode
byte for byte; HTTP bodies and CLI output, where key order is free, must
re-encode to equal parsed JSON.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, SearchResult
from repro.core.risk import RiskEntry
from repro.core.search import SearchState
from repro.drill.engine import CampaignReport, DrillResult
from repro.drill.invariants import Violation
from repro.drill.schedule import FaultSchedule
from repro.sampling.statistics import ReliabilityEstimate
from repro.serialization import artifact, decode, dump, encode, load
from repro.service.capacity import FleetCapacityPlan
from repro.service.fleet import FleetSupervisor, ServiceConfig
from repro.service.journal import encode_record, scan_segment
from repro.service.lifecycle import fingerprint
from repro.service.redeploy import DegradationEvent, RecoveryReport, RedeployDecision
from repro.service.requests import AssessRequest, SearchRequest, ServiceResponse
from repro.util.errors import ValidationError

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SERVICES = ("thread-service", "fleet-service")

FIXTURES = (
    "manifest.json",
    "checkpoint-zones.json",
    "thread-service/journal-00000001.waj",
    "fleet-service/journal-s00-00000001.waj",
    "fleet-service/journal-s01-00000001.waj",
    "pipe/task-assess.json",
    "pipe/task-search.json",
    "pipe/response-assess.json",
    "pipe/response-search.json",
    "cli/assess.json",
    "cli/assess-workers.json",
    "cli/search.json",
    "cli/risk.json",
    "cli/baseline.json",
    "cli/capacity.json",
    "cli/drill.json",
    "cli/drill-replay.json",
    "cli/redeploy.json",
    "http/assess.json",
    "http/search.json",
    "http/invalid.json",
    "http/replayed.json",
    "http/requests.json",
    "redeploy/redeploy-journal.jsonl",
    "redeploy/incumbent.json",
)

REQUESTS = {"assess": AssessRequest, "search": SearchRequest}


def _path(name: str) -> str:
    return os.path.join(GOLDEN, name)


def _json(name: str):
    with open(_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def _manifest() -> dict:
    return _json("manifest.json")


def _store_files(service: str) -> list[str]:
    directory = _path(f"{service}/results")
    return sorted(os.path.join(directory, name) for name in os.listdir(directory))


def _rebuilt_search_result(document: dict) -> SearchResult:
    """A search report rebuilt from its decoded parts: its JSON form keeps
    the best estimate, not the whole assessment, so it has no decoder."""
    plan = decode(DeploymentPlan, document["best_plan"])
    estimate = decode(ReliabilityEstimate, document["best_estimate"])
    counters = (
        "satisfied", "elapsed_seconds", "iterations", "plans_assessed",
        "plans_skipped_symmetric", "candidates_proposed", "batches_scored",
    )
    return SearchResult(
        best_plan=plan,
        best_assessment=AssessmentResult(
            plan=plan,
            estimate=estimate,
            per_round=np.zeros(0, dtype=bool),
            sampled_components=0,
            elapsed_seconds=0.0,
        ),
        **{name: document[name] for name in counters},
    )


def _check_result(result: dict | None) -> None:
    """A response's ``result`` payload re-encodes to itself."""
    if result is None:
        return
    if result["format"] == "assessment-result":
        assert encode(decode(AssessmentResult, result)) == result
    else:
        extras = {"recovered", "cancelled", "cancel_reason"}
        report = {k: v for k, v in result.items() if k not in extras}
        assert encode(_rebuilt_search_result(report)) == report


def _check_response(document: dict) -> None:
    assert encode(decode(ServiceResponse, document)) == document
    _check_result(document.get("result"))


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def _dumped(document: dict, tmp_path, checksum: bool) -> bytes:
    path = tmp_path / "redumped.json"
    dump(document, path, checksum=checksum)
    return path.read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_exists(name):
    assert os.path.isfile(_path(name)), f"golden fixture {name} is missing"


class TestJournalAndStore:
    @pytest.mark.parametrize("service", SERVICES)
    def test_journal_segments_re_encode_byte_for_byte(self, service):
        directory = _path(service)
        segments = sorted(n for n in os.listdir(directory) if n.endswith(".waj"))
        assert segments
        accepted = 0
        for name in segments:
            path = os.path.join(directory, name)
            records, _, defect = scan_segment(path)
            assert defect is None
            reframed = b""
            for record in records:
                if record["event"] == "accepted":
                    accepted += 1
                    request = decode(REQUESTS[record["kind"]], record["request"])
                    record = dict(record, request=encode(request))
                    if record.get("fingerprint") is not None:
                        assert fingerprint(request) == record["fingerprint"]
                reframed += encode_record(record)
            with open(path, "rb") as handle:
                assert reframed == handle.read()
        assert accepted == 8

    @pytest.mark.parametrize("service", SERVICES)
    def test_store_entries_re_encode_byte_for_byte(self, service, tmp_path):
        files = _store_files(service)
        statuses = set()
        for path in files:
            document = load(path)
            response = decode(ServiceResponse, document["response"])
            statuses.add(response.status)
            _check_result(response.result)
            redumped = _dumped(
                dict(document, response=encode(response)), tmp_path, checksum=True
            )
            with open(path, "rb") as handle:
                assert redumped == handle.read()
        assert statuses == {"ok", "degraded", "error"}
        assert len(files) == 4  # assess ok, degraded, search ok, search error

    @pytest.mark.parametrize("service", SERVICES)
    def test_a_restarted_service_replays_the_directory(self, service, tmp_path):
        """The pending request re-executes bit-identically, and every
        stored key answers with its stored response. The thread service
        that wrote ``thread-service`` (one unsharded journal family) is
        gone: a default fleet serves its directory."""
        plan = _manifest()[service]
        directory = tmp_path / service
        shutil.copytree(_path(service), directory)
        written = plan["config"]
        config = ServiceConfig(
            scale=written["scale"],
            seed=written["seed"],
            rounds=written["rounds"],
            queue_capacity=written["queue_capacity"],
            fleet_workers=written["fleet_workers"] or ServiceConfig.fleet_workers,
            journal_dir=str(directory),
            result_ttl_seconds=1e12,
        )
        stored = {
            entry["request"]["idempotency_key"]: entry for entry in plan["stored"]
        }
        with FleetSupervisor(config).start() as front:
            pending = plan["pending"]
            response = front.assess(
                decode(AssessRequest, pending["request"]), timeout=120.0
            )
            assert response.request_id == pending["request_id"]
            assert not response.replayed
            assert response.result["runtime"]["recovered"] is True
            assert response.result["estimate"] == _manifest()["reference_estimate"]
            for key, entry in stored.items():
                request = decode(REQUESTS[entry["kind"]], entry["request"])
                submit = front.assess if entry["kind"] == "assess" else front.search
                replayed = submit(request, timeout=120.0)
                assert replayed.replayed
                assert replayed.request_id == entry["request_id"]
                on_disk = next(
                    load(path)["response"]
                    for path in _store_files(service)
                    if load(path)["key"] == key
                )
                assert encode(replace(replayed, replayed=False)) == on_disk


class TestPipeAndHttp:
    @pytest.mark.parametrize("kind", ("assess", "search"))
    def test_pipe_messages(self, kind):
        task = _json(f"pipe/task-{kind}.json")
        request = decode(REQUESTS[task["kind"]], task["request"])
        assert encode(request) == task["request"]
        _check_response(_json(f"pipe/response-{kind}.json")["response"])

    @pytest.mark.parametrize("name", ("assess", "search", "replayed"))
    def test_response_bodies(self, name):
        document = _json(f"http/{name}.json")
        _check_response(document)
        assert document.get("replayed", False) is (name == "replayed")

    def test_the_invalid_body_names_the_same_fields(self):
        body = _json("http/requests.json")["invalid"]["body"]
        with pytest.raises(ValidationError) as excinfo:
            decode(AssessRequest, body)
        golden = _json("http/invalid.json")
        assert golden["error"] == "validation"
        assert [e["field"] for e in golden["errors"]] == list(
            excinfo.value.fields()
        )


class TestCheckpointAndRedeploy:
    def test_checkpoint_re_encodes_byte_for_byte(self, tmp_path):
        state = decode(SearchState, load(_path("checkpoint-zones.json")))
        assert state.spec.zone_constraints.pinned_zones
        assert state.trace
        with open(_path("checkpoint-zones.json"), "rb") as handle:
            assert _dumped(encode(state), tmp_path, checksum=True) == handle.read()

    def test_redeploy_journal_re_encodes_byte_for_byte(self):
        with open(_path("redeploy/redeploy-journal.jsonl"), "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        plans = 0
        for line in lines:
            record = json.loads(line)
            if "event" in record:
                record["event"] = encode(decode(DegradationEvent, record["event"]))
            if "plan" in record:
                plans += 1
                record["plan"] = encode(decode(DeploymentPlan, record["plan"]))
            text = json.dumps(record, sort_keys=True, separators=(",", ":"))
            assert (text + "\n").encode("utf-8") == line
        assert plans

    def test_incumbent_re_encodes_byte_for_byte(self, tmp_path):
        plan = decode(DeploymentPlan, load(_path("redeploy/incumbent.json")))
        with open(_path("redeploy/incumbent.json"), "rb") as handle:
            assert _dumped(encode(plan), tmp_path, checksum=True) == handle.read()


class TestCliOutput:
    @pytest.mark.parametrize("name", ("assess", "assess-workers"))
    def test_assess(self, name):
        document = _json(f"cli/{name}.json")
        assert encode(decode(AssessmentResult, document)) == document

    def test_search(self):
        document = _json("cli/search.json")
        assert encode(_rebuilt_search_result(document)) == document

    def test_risk(self):
        document = _json("cli/risk.json")
        entries = decode(tuple[RiskEntry, ...], document["entries"])
        assert artifact("risk-report", entries=encode(entries)) == document

    def test_baseline(self):
        for entry in _json("cli/baseline.json")["plans"].values():
            assert encode(decode(DeploymentPlan, entry["plan"])) == entry["plan"]
            estimate = decode(ReliabilityEstimate, entry["estimate"])
            assert encode(estimate) == entry["estimate"]

    def test_capacity(self):
        document = _json("cli/capacity.json")
        assert encode(decode(FleetCapacityPlan, document)) == document

    def test_drill_campaign(self):
        document = _json("cli/drill.json")
        report = decode(CampaignReport, document)
        # The report names the failing drill's violations; the drill
        # itself is not part of the document.
        failure = DrillResult(
            seed=0,
            schedule=FaultSchedule(),
            violations=decode(list[Violation], document["violations"]),
        )
        assert encode(replace(report, failure=failure)) == document

    def test_drill_replay(self):
        document = _json("cli/drill-replay.json")
        assert encode(decode(DrillResult, document)) == document

    def test_redeploy(self):
        document = _json("cli/redeploy.json")
        recovery = decode(RecoveryReport, document["recovery"])
        decisions = decode(list[RedeployDecision], document["decisions"])
        incumbent = decode(DeploymentPlan, document["incumbent"])
        assert encode(recovery) == document["recovery"]
        assert encode(decisions) == document["decisions"]
        assert encode(incumbent) == document["incumbent"]
