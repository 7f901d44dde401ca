"""Degradation-triggered redeployment controller (repro.service.redeploy).

Most tests drive the controller through stub searches so every branch of
the decision lifecycle (detect -> search/retry -> candidate -> apply/
reject/abandon) is exercised deterministically and fast; one end-to-end
test runs the real annealing search against a real two-zone substrate
under a real ZoneOutage. Crash recovery is tested by reconstructing the
exact journal states a mid-decision kill leaves behind.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.plan import DeploymentPlan, ZoneConstraints
from repro.core.search import DeploymentSearch
from repro.faults.inventory import ZoneOutage, build_zone_inventory
from repro.service.redeploy import (
    INCUMBENT_NAME,
    JOURNAL_NAME,
    DecisionJournal,
    DegradationEvent,
    RedeploymentController,
)
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import ConfigurationError

STRUCTURE = ApplicationStructure.k_of_n(1, 3)
CROSS_ZONE = ZoneConstraints.from_mapping(
    primary_zone="zone0", min_outside_primary=1
)


@pytest.fixture(scope="module")
def zones2():
    return MultiZoneTopology(zones=2, k=4, seed=7)


@pytest.fixture
def plans(zones2):
    z0 = zones2.hosts_in_zone("zone0")
    z1 = zones2.hosts_in_zone("zone1")
    return {
        "pinned": DeploymentPlan.from_mapping({"app": z0[:3]}),
        "spread": DeploymentPlan.from_mapping({"app": [z0[0], z0[1], z1[0]]}),
        "far": DeploymentPlan.from_mapping({"app": [z1[0], z1[1], z0[5]]}),
    }


# ----------------------------------------------------------------------
# Stub search: scores come from a mutable table, candidates from a script
# ----------------------------------------------------------------------


class StubAssessor:
    def __init__(self, topology, scores, default=0.99):
        self.topology = topology
        self.scores = scores  # canonical_key -> score, mutable mid-test
        self.default = default
        self.refreshes = 0

    def refresh_probabilities(self):
        self.refreshes += 1

    def assess(self, plan, structure):
        score = self.scores.get(plan.canonical_key(), self.default)
        return SimpleNamespace(estimate=SimpleNamespace(score=score))


class StubSearch:
    """Yields scripted candidates; a script entry may be an Exception."""

    def __init__(self, topology, scores, script):
        self.assessor = StubAssessor(topology, scores)
        self.script = list(script)
        self.calls = 0

    def search(self, spec, initial_plan=None):
        self.calls += 1
        entry = self.script.pop(0) if self.script else initial_plan
        if isinstance(entry, Exception):
            raise entry
        plan = entry if entry is not None else initial_plan
        return SimpleNamespace(
            best_plan=plan,
            best_assessment=SimpleNamespace(
                estimate=SimpleNamespace(
                    score=self.assessor.scores.get(
                        plan.canonical_key(), self.assessor.default
                    )
                )
            ),
        )


def _controller(zones2, tmp_path, search, incumbent, **kwargs):
    kwargs.setdefault("zone_constraints", CROSS_ZONE)
    kwargs.setdefault("min_gain", 0.01)
    kwargs.setdefault("degradation_threshold", 0.05)
    kwargs.setdefault("backoff_seconds", 0.01)
    return RedeploymentController(
        search, STRUCTURE, str(tmp_path / "state"), incumbent=incumbent, **kwargs
    )


def _journal_records(state_dir):
    path = os.path.join(state_dir, JOURNAL_NAME)
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Decision lifecycle
# ----------------------------------------------------------------------


class TestDecisionLifecycle:
    def test_score_drop_applies_exactly_once(self, zones2, tmp_path, plans):
        scores = {plans["spread"].canonical_key(): 0.99}
        search = StubSearch(zones2, scores, [plans["far"]])
        applied = []
        ctrl = _controller(
            zones2, tmp_path, search, plans["spread"], apply_plan=applied.append
        )
        assert ctrl.step() is None  # first poll just sets the baseline
        assert ctrl.baseline_score == 0.99

        # The substrate degrades: incumbent craters, a better plan exists.
        scores[plans["spread"].canonical_key()] = 0.20
        scores[plans["far"].canonical_key()] = 0.95
        decision = ctrl.step()
        assert decision.action == "applied"
        assert decision.event.kind == "score-drop"
        assert decision.plan.canonical_key() == plans["far"].canonical_key()
        assert decision.gain == pytest.approx(0.75)
        assert applied == [plans["far"]]
        assert ctrl.incumbent == plans["far"]
        assert ctrl.baseline_score == 0.95

        # Quiescent afterwards: the new incumbent IS the new baseline.
        assert ctrl.step() is None
        assert len(applied) == 1

        kinds = [r["record"] for r in _journal_records(ctrl.state_dir)]
        assert kinds == ["detected", "search-attempt", "candidate", "applied"]

    def test_constraint_violation_triggers_without_baseline(
        self, zones2, tmp_path, plans
    ):
        """A violating incumbent is actionable on the very first poll."""
        search = StubSearch(zones2, {}, [plans["spread"]])
        scores = search.assessor.scores
        scores[plans["pinned"].canonical_key()] = 0.5
        scores[plans["spread"].canonical_key()] = 0.9
        ctrl = _controller(zones2, tmp_path, search, plans["pinned"])
        decision = ctrl.step()
        assert decision.action == "applied"
        assert decision.event.kind == "constraint-violation"
        assert CROSS_ZONE.satisfied_by(ctrl.incumbent, zones2)

    def test_rejected_decision_resets_baseline(self, zones2, tmp_path, plans):
        """No better plan exists: reject once, then stop re-triggering
        on the same (permanent) degradation."""
        scores = {plans["spread"].canonical_key(): 0.99}
        search = StubSearch(zones2, scores, [plans["far"], plans["far"]])
        ctrl = _controller(zones2, tmp_path, search, plans["spread"])
        ctrl.step()  # baseline 0.99

        scores[plans["spread"].canonical_key()] = 0.80
        scores[plans["far"].canonical_key()] = 0.805  # gain below min_gain
        decision = ctrl.step()
        assert decision.action == "rejected"
        assert ctrl.incumbent == plans["spread"]
        assert ctrl.baseline_score == pytest.approx(0.80)
        assert ctrl.step() is None  # degraded score is the new normal
        kinds = [r["record"] for r in _journal_records(ctrl.state_dir)]
        assert kinds.count("rejected") == 1

    def test_observed_events_outrank_polling(self, zones2, tmp_path, plans):
        search = StubSearch(zones2, {}, [plans["far"]])
        search.assessor.scores[plans["far"].canonical_key()] = 0.999
        ctrl = _controller(zones2, tmp_path, search, plans["spread"])
        ctrl.observe(DegradationEvent(kind="zone-outage", zone="zone0"))
        decision = ctrl.step()
        assert decision.event.kind == "zone-outage"
        assert decision.event.zone == "zone0"


class TestRetryAndBackoff:
    def test_abandons_after_max_retries_with_backoff(
        self, zones2, tmp_path, plans
    ):
        search = StubSearch(
            zones2,
            {},
            [RuntimeError("boom 1"), RuntimeError("boom 2"), RuntimeError("boom 3")],
        )
        sleeps = []
        ctrl = _controller(
            zones2, tmp_path, search, plans["spread"],
            max_retries=3, backoff_seconds=0.05,
            sleep=sleeps.append,
        )
        ctrl.observe(DegradationEvent(kind="zone-outage", zone="zone0"))
        decision = ctrl.step()
        assert decision.action == "abandoned"
        assert decision.search_attempts == 3
        assert sleeps == pytest.approx([0.05, 0.10])  # no sleep after last
        kinds = [r["record"] for r in _journal_records(ctrl.state_dir)]
        assert kinds.count("search-attempt") == 3
        assert kinds.count("search-failed") == 3
        assert kinds[-1] == "abandoned"

    def test_transient_failure_retries_to_success(self, zones2, tmp_path, plans):
        search = StubSearch(
            zones2, {}, [RuntimeError("transient"), plans["far"]]
        )
        search.assessor.scores[plans["spread"].canonical_key()] = 0.3
        search.assessor.scores[plans["far"].canonical_key()] = 0.999
        ctrl = _controller(zones2, tmp_path, search, plans["spread"])
        ctrl.observe(DegradationEvent(kind="zone-outage", zone="zone0"))
        decision = ctrl.step()
        assert decision.action == "applied"
        assert decision.search_attempts == 2

    def test_constraint_violating_result_counts_as_failure(
        self, zones2, tmp_path, plans
    ):
        """A search that returns a non-compliant plan is retried, not
        applied: the controller never installs a violating deployment."""
        search = StubSearch(
            zones2, {}, [plans["pinned"], plans["pinned"], plans["pinned"]]
        )
        ctrl = _controller(
            zones2, tmp_path, search, plans["spread"], max_retries=3
        )
        ctrl.observe(DegradationEvent(kind="zone-outage", zone="zone0"))
        decision = ctrl.step()
        assert decision.action == "abandoned"
        assert ctrl.incumbent == plans["spread"]


# ----------------------------------------------------------------------
# Journal and crash recovery
# ----------------------------------------------------------------------


class TestDecisionJournal:
    def test_round_trip(self, tmp_path):
        journal = DecisionJournal(str(tmp_path / "j.jsonl"))
        journal.append({"record": "detected", "decision": 1})
        journal.append({"record": "applied", "decision": 1})
        records, torn = journal.scan()
        assert torn == 0
        assert [r["record"] for r in records] == ["detected", "applied"]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"record": "detected", "decision": 1}) + "\n"
            + '{"record": "candid'  # the crash-torn final line
        )
        records, torn = DecisionJournal(str(path)).scan()
        assert torn == 1
        assert len(records) == 1

    def test_mid_file_corruption_is_loud(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            "garbage\n" + json.dumps({"record": "detected", "decision": 1}) + "\n"
        )
        with pytest.raises(ConfigurationError):
            DecisionJournal(str(path)).scan()


def _write_crash_state(state_dir, candidate_plan, persist_incumbent):
    """Reproduce the on-disk state of a controller killed mid-apply.

    The journal holds a committed (apply=True) candidate record with no
    terminal record. ``persist_incumbent`` selects which side of the
    commit point the kill landed on: False = before the incumbent file
    was written (recovery must finish the apply), True = after (recovery
    must only complete the journal, never re-apply).
    """
    os.makedirs(state_dir, exist_ok=True)
    records = [
        {"record": "detected", "decision": 1,
         "event": {"kind": "zone-outage", "detail": "", "zone": "zone0"},
         "incumbent_score": 0.2},
        {"record": "search-attempt", "decision": 1, "attempt": 1},
        {"record": "candidate", "decision": 1,
         "plan": serialization.encode(candidate_plan),
         "candidate_score": 0.95, "incumbent_score": 0.2,
         "gain": 0.75, "apply": True},
    ]
    with open(os.path.join(state_dir, JOURNAL_NAME), "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    if persist_incumbent:
        serialization.dump(
            serialization.encode(candidate_plan),
            os.path.join(state_dir, INCUMBENT_NAME),
            checksum=True,
        )


class TestCrashRecovery:
    def test_kill_before_persist_completes_apply_once(
        self, zones2, tmp_path, plans
    ):
        state_dir = str(tmp_path / "state")
        _write_crash_state(state_dir, plans["far"], persist_incumbent=False)

        applied = []
        search = StubSearch(zones2, {}, [])
        ctrl = RedeploymentController(
            search, STRUCTURE, state_dir,
            incumbent=plans["spread"], zone_constraints=CROSS_ZONE,
            apply_plan=applied.append,
        )
        report = ctrl.last_recovery
        assert report.completed_applies == 1
        assert applied == [plans["far"]]
        assert ctrl.incumbent == plans["far"]
        assert ctrl.baseline_score == pytest.approx(0.95)
        assert os.path.exists(os.path.join(state_dir, INCUMBENT_NAME))

        # A second recovery (another crash right after) finds the journal
        # already terminal: nothing to apply, incumbent comes from disk.
        again = []
        ctrl2 = RedeploymentController(
            search, STRUCTURE, state_dir,
            zone_constraints=CROSS_ZONE, apply_plan=again.append,
        )
        assert ctrl2.last_recovery.completed_applies == 0
        assert again == []
        assert ctrl2.incumbent == plans["far"]

    def test_kill_after_persist_never_reapplies(self, zones2, tmp_path, plans):
        """The kill landed between the incumbent persist and the journal
        record: the plan is live, so recovery completes the journal but
        must NOT invoke apply_plan again (no double deployment)."""
        state_dir = str(tmp_path / "state")
        _write_crash_state(state_dir, plans["far"], persist_incumbent=True)

        applied = []
        search = StubSearch(zones2, {}, [])
        ctrl = RedeploymentController(
            search, STRUCTURE, state_dir,
            zone_constraints=CROSS_ZONE, apply_plan=applied.append,
        )
        assert ctrl.last_recovery.completed_applies == 1
        assert applied == []  # exactly-once: the apply already happened
        assert ctrl.incumbent == plans["far"]
        records = _journal_records(state_dir)
        assert records[-1]["record"] == "applied"
        assert records[-1]["recovered"] is True

    def test_no_incumbent_anywhere_is_a_config_error(self, zones2, tmp_path):
        search = StubSearch(zones2, {}, [])
        with pytest.raises(ConfigurationError):
            RedeploymentController(
                search, STRUCTURE, str(tmp_path / "state"),
            )


# ----------------------------------------------------------------------
# End to end: real search, real zone outage
# ----------------------------------------------------------------------


class TestZoneOutageEndToEnd:
    def test_zone_outage_triggers_one_compliant_redeployment(self, tmp_path):
        topology = MultiZoneTopology(zones=2, k=4, seed=7)
        model = build_zone_inventory(topology, seed=7)
        search = DeploymentSearch.from_config(
            topology, model, AssessmentConfig(rounds=400, rng=5), rng=9
        )
        structure = ApplicationStructure.k_of_n(2, 3)
        z0 = topology.hosts_in_zone("zone0")
        z1 = topology.hosts_in_zone("zone1")
        # Compliant but zone0-heavy: the outage takes out the quorum.
        incumbent = DeploymentPlan.from_mapping(
            {"app": [z0[0], z0[7], z1[0]]}
        )
        applied = []
        ctrl = RedeploymentController(
            search, structure, str(tmp_path / "state"),
            incumbent=incumbent, zone_constraints=CROSS_ZONE,
            min_gain=0.01, degradation_threshold=0.05,
            search_seconds=30.0, search_iterations=25,
            backoff_seconds=0.01, apply_plan=applied.append,
        )
        assert ctrl.step() is None  # healthy baseline

        with ZoneOutage(model, "zone0"):
            decision = ctrl.step()
            assert decision is not None
            assert decision.action == "applied"
            assert CROSS_ZONE.satisfied_by(ctrl.incumbent, topology)
            assert decision.candidate_score > decision.incumbent_score + 0.5
            assert ctrl.step() is None  # exactly one redeployment
        assert len(applied) == 1

        # A fresh controller on the same state dir recovers the committed
        # incumbent without replaying the apply.
        ctrl2 = RedeploymentController(
            search, structure, str(tmp_path / "state"),
            zone_constraints=CROSS_ZONE, search_iterations=25,
        )
        assert ctrl2.last_recovery.incumbent_restored
        assert ctrl2.last_recovery.completed_applies == 0
        assert (
            ctrl2.incumbent.canonical_key() == ctrl.incumbent.canonical_key()
        )
