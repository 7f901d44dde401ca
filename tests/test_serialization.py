"""Tests for JSON serialization (repro.serialization)."""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan, ZoneConstraints
from repro.core.result import (
    AssessmentResult,
    PortionFailure,
    RuntimeMetadata,
    SearchRecord,
)
from repro.core.risk import RiskAnalyzer, RiskEntry
from repro.core.search import DeploymentSearch, SearchSpec, SearchState
from repro.drill.engine import CampaignReport, DrillResult
from repro.drill.invariants import Violation
from repro.drill.schedule import FaultEvent, FaultSchedule
from repro.sampling.statistics import ReliabilityEstimate, estimate_from_results
from repro.serialization import decode, encode
from repro.service.capacity import CandidateFleet, FleetCapacityPlan
from repro.service.lifecycle import fingerprint
from repro.service.redeploy import DegradationEvent, RecoveryReport, RedeployDecision
from repro.service.requests import AssessRequest, SearchRequest, ServiceResponse
from repro.util.errors import ConfigurationError
from tests.structures import two_tier


class TestPlanRoundTrip:
    def test_round_trip(self):
        plan = DeploymentPlan.from_mapping({"fe": ["a", "b"], "db": ["c"]})
        document = encode(plan)
        restored = decode(DeploymentPlan, document)
        assert restored == plan

    def test_document_is_json_safe(self):
        plan = DeploymentPlan.single_component(["x", "y"])
        text = json.dumps(encode(plan))
        assert "x" in text

    def test_rejects_wrong_format(self):
        with pytest.raises(ConfigurationError):
            decode(DeploymentPlan, {"format": "banana", "version": 1})

    def test_rejects_wrong_version(self):
        document = encode(DeploymentPlan.single_component(["a"]))
        document["version"] = 999
        with pytest.raises(ConfigurationError):
            decode(DeploymentPlan, document)

    def test_rejects_malformed_placements(self):
        with pytest.raises(ConfigurationError):
            decode(
                DeploymentPlan,
                {"format": "deployment-plan", "version": 1, "placements": [{}]},
            )

    def test_duplicate_hosts_still_rejected_on_load(self):
        document = {
            "format": "deployment-plan",
            "version": 1,
            "placements": [{"component": "app", "hosts": ["a", "a"]}],
        }
        with pytest.raises(ConfigurationError):
            decode(DeploymentPlan, document)


class TestStructureRoundTrip:
    def test_round_trip_two_tier(self):
        structure = two_tier()
        document = encode(structure)
        restored = decode(ApplicationStructure, document)
        assert restored.name == structure.name
        assert restored.components == structure.components
        assert restored.requirements == structure.requirements

    def test_round_trip_k_of_n(self):
        structure = ApplicationStructure.k_of_n(4, 5)
        restored = decode(ApplicationStructure, encode(structure))
        assert restored.requirements == structure.requirements
        assert restored.total_instances == 5

    def test_invalid_structure_rejected_on_load(self):
        document = encode(two_tier())
        document["requirements"][0]["min_reachable"] = 99
        with pytest.raises(ConfigurationError):
            decode(ApplicationStructure, document)


class TestEstimateRoundTrip:
    def test_round_trip(self):
        estimate = estimate_from_results([1, 0, 1, 1])
        restored = decode(ReliabilityEstimate, encode(estimate))
        assert restored == estimate

    def test_rejects_missing_field(self):
        document = encode(estimate_from_results([1, 0]))
        del document["variance"]
        with pytest.raises(ConfigurationError):
            decode(ReliabilityEstimate, document)


class TestCompositeDocuments:
    def test_assessment_document(self, assessor, fattree4):
        result = assessor.assess_k_of_n(fattree4.hosts[:3], 2)
        document = encode(result)
        assert document["format"] == "assessment-result"
        assert document["estimate"]["score"] == result.score
        # Fully JSON-serialisable.
        json.dumps(document)

    def test_search_result_document(self, assessor):
        search = DeploymentSearch(assessor, rng=5, keep_trace=True)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(2, 3),
            desired_reliability=0.0,
            max_seconds=10.0,
        )
        result = search.search(spec)
        document = encode(result)
        assert document["satisfied"] is True
        restored_plan = decode(DeploymentPlan, document["best_plan"])
        assert restored_plan == result.best_plan
        # The report carries the best estimate, not the assessment or trace.
        assert decode(ReliabilityEstimate, document["best_estimate"]) == (
            result.best_assessment.estimate
        )
        assert "best_assessment" not in document and "trace" not in document
        json.dumps(document)

    def test_risk_report_document(self, fattree4, inventory):
        analyzer = RiskAnalyzer(fattree4, inventory)
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(
            ["host/0/0/0", "host/1/0/0", "host/2/0/0"], "app"
        )
        entries = analyzer.report(plan, structure)
        document = encode(entries)
        assert len(document) == len(entries)
        assert [e["expected_loss"] for e in document] == [
            e.expected_loss for e in entries
        ]
        assert decode(tuple[RiskEntry, ...], document) == tuple(entries)
        json.dumps(document)


class TestFileHelpers:
    def test_dump_and_load(self, tmp_path):
        plan = DeploymentPlan.single_component(["a", "b"])
        path = tmp_path / "plan.json"
        serialization.dump(encode(plan), path)
        document = serialization.load(path)
        assert decode(DeploymentPlan, document) == plan

    @given(
        document=st.dictionaries(
            st.text(max_size=6),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=8),
                lambda children: st.lists(children, max_size=3)
                | st.dictionaries(st.text(max_size=4), children, max_size=3),
                max_leaves=12,
            ),
            max_size=5,
        ).map(lambda d: {"ünïcødé ✓": "ß→∞", "ratio": 0.1 + 0.2, **d}),
        checksum=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dump_writes_the_bytes_json_dump_streamed(
        self, tmp_path_factory, document, checksum
    ):
        """One write of ``json.dumps`` lands the same bytes as the
        ``json.dump`` stream plus newline it replaced."""
        directory = tmp_path_factory.mktemp("dump")
        serialization.dump(document, directory / "one.json", checksum=checksum)
        streamed = dict(document)
        if checksum:
            streamed[serialization.CHECKSUM_KEY] = serialization._payload_checksum(
                document
            )
        with open(directory / "streamed.json", "w", encoding="utf-8") as handle:
            json.dump(streamed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        assert (directory / "one.json").read_bytes() == (
            directory / "streamed.json"
        ).read_bytes()

    def test_fsync_dir_succeeds_on_a_real_directory(self, tmp_path):
        assert serialization.fsync_dir(tmp_path) is True

    def test_fsync_dir_degrades_quietly_when_unsyncable(self, tmp_path):
        # Platforms (or paths) where a directory cannot be opened for
        # fsync must not break the atomic write — just report False.
        assert serialization.fsync_dir(tmp_path / "missing") is False


class TestRuntimeRecoveredFlag:
    @staticmethod
    def _result_with_runtime(assessor, fattree4, runtime):
        result = assessor.assess_k_of_n(fattree4.hosts[:3], 2)
        return replace(result, runtime=runtime)

    def test_recovered_round_trips(self, assessor, fattree4):
        result = self._result_with_runtime(
            assessor,
            fattree4,
            RuntimeMetadata(
                backend="chunked", workers=1, portion_seeds=(), recovered=True
            ),
        )
        document = encode(result)
        assert document["runtime"]["recovered"] is True
        decoded = decode(AssessmentResult, json.loads(json.dumps(document)))
        assert decoded.runtime.recovered is True

    def test_documents_without_the_flag_decode_as_not_recovered(
        self, assessor, fattree4
    ):
        result = self._result_with_runtime(
            assessor,
            fattree4,
            RuntimeMetadata(backend="chunked", workers=1, portion_seeds=()),
        )
        document = encode(result)
        del document["runtime"]["recovered"]  # pre-durability document
        decoded = decode(AssessmentResult, document)
        assert decoded.runtime.recovered is False


# ----------------------------------------------------------------------
# decode(T, encode(x)) == x for every type the codec handles
# ----------------------------------------------------------------------

IDS = st.text(alphabet="abcz/019-", min_size=1, max_size=6)
TEXT = st.text(max_size=8)
INTS = st.integers(min_value=-(2**63), max_value=2**64)
COUNTS = st.integers(min_value=0, max_value=10**9)
FLOATS = st.floats(allow_nan=False)
UNIT = st.floats(min_value=0.0, max_value=1.0)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
JSON_OBJECTS = st.dictionaries(TEXT, st.integers() | TEXT | st.booleans(), max_size=3)


def _optional(strategy):
    return st.none() | strategy


@st.composite
def plans(draw):
    """Distinct hosts over one or more components, some of them empty."""
    hosts = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    names = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    owners = draw(
        st.lists(
            st.integers(0, len(names) - 1), min_size=len(hosts), max_size=len(hosts)
        )
    )
    return DeploymentPlan.from_mapping(
        {
            name: [host for host, owner in zip(hosts, owners) if owner == index]
            for index, name in enumerate(names)
        }
    )


@st.composite
def zone_constraints(draw):
    primary = draw(_optional(IDS))
    return ZoneConstraints(
        primary_zone=primary,
        min_outside_primary=0 if primary is None else draw(st.integers(0, 4)),
        pinned_zones=tuple(
            draw(st.lists(st.tuples(IDS, st.tuples(IDS, IDS) | st.tuples(IDS))))
        ),
        spread_components=tuple(draw(st.lists(IDS, max_size=3))),
    )


STRUCTURES = st.sampled_from([two_tier(), two_tier(3, 4, 2, 3)]) | st.integers(
    1, 5
).flatmap(lambda n: st.builds(ApplicationStructure.k_of_n, st.integers(1, n), st.just(n)))

ESTIMATES = st.builds(
    ReliabilityEstimate, FLOATS, FLOATS, FLOATS, COUNTS, COUNTS, st.booleans()
)

RUNTIMES = st.builds(
    RuntimeMetadata,
    backend=TEXT,
    workers=COUNTS,
    portion_seeds=st.lists(INTS, max_size=4).map(tuple),
    retries=COUNTS,
    pool_restarts=COUNTS,
    recovered_inline=COUNTS,
    dropped_portions=COUNTS,
    dropped_rounds=COUNTS,
    cancelled=st.booleans(),
    recovered=st.booleans(),
    failures=st.lists(
        st.builds(PortionFailure, COUNTS, COUNTS, TEXT, TEXT), max_size=2
    ).map(tuple),
    profile=_optional(st.lists(st.tuples(TEXT, FLOATS), max_size=3).map(tuple)),
)

ASSESSMENTS = st.builds(
    AssessmentResult,
    plan=plans(),
    estimate=ESTIMATES,
    per_round=st.just(np.zeros(0, dtype=bool)),
    sampled_components=COUNTS,
    elapsed_seconds=FLOATS,
    runtime=_optional(RUNTIMES),
)

RECORDS = st.builds(
    SearchRecord, COUNTS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS,
    st.booleans(), st.booleans(),
)

SPECS = st.builds(
    SearchSpec,
    structure=STRUCTURES,
    desired_reliability=UNIT,
    max_seconds=POSITIVE,
    forbid_shared_rack=st.booleans(),
    desired_measure=_optional(FLOATS),
    max_iterations=_optional(COUNTS),
    zone_constraints=_optional(zone_constraints()),
)

RNG_STATES = st.integers(0, 2**32).map(
    lambda seed: np.random.default_rng(seed).bit_generator.state
)

STATES = st.builds(
    SearchState,
    spec=SPECS,
    current_plan=plans(),
    current=ASSESSMENTS,
    current_measure=FLOATS,
    best_plan=plans(),
    best=ASSESSMENTS,
    best_measure=FLOATS,
    iterations=COUNTS,
    plans_assessed=COUNTS,
    skipped_symmetric=COUNTS,
    skipped_resources=COUNTS,
    batch_size=COUNTS,
    candidates_proposed=COUNTS,
    batches_scored=COUNTS,
    elapsed_seconds=FLOATS,
    search_rng_state=_optional(RNG_STATES),
    assessor_rng_state=_optional(RNG_STATES),
    crn_master_seed=_optional(INTS),
    trace=st.lists(RECORDS, max_size=3),
)

EVENTS = st.builds(DegradationEvent, TEXT, TEXT, _optional(IDS))
VIOLATIONS = st.builds(Violation, TEXT, TEXT)
FAULTS = st.builds(FaultEvent, IDS, IDS, _optional(COUNTS), _optional(COUNTS))
CANDIDATE_FLEETS = st.builds(
    CandidateFleet, COUNTS, FLOATS, FLOATS, TEXT, st.booleans()
)

#: Every type the codec decodes, with a strategy for its values.
STRATEGIES = {
    DeploymentPlan: plans(),
    ZoneConstraints: zone_constraints(),
    ApplicationStructure: STRUCTURES,
    ReliabilityEstimate: ESTIMATES,
    RuntimeMetadata: RUNTIMES,
    AssessmentResult: ASSESSMENTS,
    SearchRecord: RECORDS,
    SearchSpec: SPECS,
    SearchState: STATES,
    RiskEntry: st.builds(
        RiskEntry, IDS, TEXT, UNIT, COUNTS,
        st.lists(IDS, max_size=3).map(tuple), st.booleans(),
    ),
    AssessRequest: st.builds(
        AssessRequest,
        hosts=st.lists(IDS, max_size=4).map(tuple),
        k=INTS,
        rounds=_optional(INTS),
        deadline_seconds=_optional(FLOATS),
        idempotency_key=_optional(TEXT),
    ),
    SearchRequest: st.builds(
        SearchRequest, INTS, INTS, FLOATS, FLOATS,
        _optional(INTS), _optional(FLOATS), _optional(TEXT),
    ),
    ServiceResponse: st.builds(
        ServiceResponse, TEXT, TEXT, _optional(JSON_OBJECTS),
        _optional(JSON_OBJECTS), FLOATS, FLOATS, _optional(TEXT), st.booleans(),
    ),
    DegradationEvent: EVENTS,
    RedeployDecision: st.builds(
        RedeployDecision, COUNTS, EVENTS, TEXT, FLOATS,
        _optional(FLOATS), _optional(FLOATS), COUNTS, _optional(plans()),
    ),
    RecoveryReport: st.builds(
        RecoveryReport, COUNTS, COUNTS, st.booleans(), COUNTS, st.just([])
    ),
    CandidateFleet: CANDIDATE_FLEETS,
    FleetCapacityPlan: st.builds(
        FleetCapacityPlan, FLOATS, FLOATS, COUNTS, UNIT, FLOATS, FLOATS, UNIT,
        _optional(COUNTS), st.lists(CANDIDATE_FLEETS, max_size=3).map(tuple),
    ),
    Violation: VIOLATIONS,
    FaultEvent: FAULTS,
    DrillResult: st.builds(
        DrillResult,
        seed=INTS,
        schedule=st.lists(FAULTS, max_size=3).map(tuple).map(FaultSchedule),
        violations=st.lists(VIOLATIONS, max_size=2),
        ticks=COUNTS,
        crashes=COUNTS,
    ),
    CampaignReport: st.builds(
        CampaignReport,
        rounds=COUNTS,
        rounds_run=COUNTS,
        seed=INTS,
        bug=_optional(TEXT),
        failed_round=_optional(COUNTS),
        reproducer_path=_optional(TEXT),
        original_events=_optional(COUNTS),
        shrunk_events=_optional(COUNTS),
        shrink_runs=COUNTS,
    ),
}


def _same(a, b) -> bool:
    """Equal values of equal types, field by field (arrays by content,
    structures by their parts: neither compares by ``==``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, ApplicationStructure):
        return (a.name, a.components, a.requirements) == (
            b.name, b.components, b.requirements,
        )
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


class TestEveryTypeRoundTrips:
    @pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_decode_inverts_encode(self, cls, data):
        value = data.draw(STRATEGIES[cls])
        document = json.loads(json.dumps(encode(value)))
        assert _same(decode(cls, document), value)

    def test_none_and_defaults_are_omitted(self):
        document = encode(AssessRequest(hosts=(), k=1))
        assert document == {"hosts": [], "k": 1}
        assert "replayed" not in encode(ServiceResponse("r", "ok"))
        assert encode(ServiceResponse("r", "ok", replayed=True))["replayed"] is True
        spec = encode(SearchSpec(ApplicationStructure.k_of_n(1, 2)))
        assert spec["desired_measure"] is None and spec["zone_constraints"] is None

    @pytest.mark.parametrize(
        "cls, keys",
        [
            (ZoneConstraints, {"primary_zone"}),
            (SearchSpec, {"desired_measure", "max_iterations", "zone_constraints"}),
            (
                SearchState,
                {"search_rng_state", "assessor_rng_state", "crn_master_seed"},
            ),
            (DegradationEvent, {"zone"}),
            (RedeployDecision, {"candidate_score", "gain", "plan"}),
            (FleetCapacityPlan, {"recommended_workers"}),
            (
                CampaignReport,
                {"bug", "failed_round", "reproducer", "original_events",
                 "shrunk_events"},
            ),
        ],
        ids=lambda value: getattr(value, "__name__", ""),
    )
    def test_null_fields_are_written(self, cls, keys):
        """Exactly the keys earlier documents wrote as ``null``."""
        marked = {
            f.metadata.get("json_name", f.name)
            for f in dataclasses.fields(cls)
            if f.metadata.get("json_null")
        }
        assert marked == keys

    def test_an_int_in_a_float_field_decodes_to_a_float(self):
        """So a journaled request's fingerprint does not depend on how a
        client spelled the number."""
        as_int = decode(SearchRequest, {"k": 2, "n": 3, "max_seconds": 2})
        as_float = decode(SearchRequest, {"k": 2, "n": 3, "max_seconds": 2.0})
        assert type(as_int.max_seconds) is float
        assert fingerprint(as_int) == fingerprint(as_float)
