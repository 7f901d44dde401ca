"""Degradation-triggered redeployment controller.

The paper's conclusion argues that 30-second searches make *periodic
recalculation* of a live deployment feasible. This module closes that
loop: a :class:`RedeploymentController` watches a deployed plan for
degradation — a zone outage injected by the chaos harness, a
failure-probability jump from operator telemetry, component wear-out on
the bathtub curve — and, when reliability drops, re-searches **from the
incumbent plan** (the incremental assessor and the batch-first loop make
that re-search near-free) and applies the winner only on a meaningful
reliability gain.

Controller crashes must not corrupt the deployment, so every decision is
journaled to an append-only, fsync'd log with an explicit commit point.
The log is framed and checksummed like the request journal's segments
(:func:`~repro.service.journal.encode_record`), and read through the same
torn-vs-corrupt rule (:func:`~repro.service.journal.read_frames`):

``detected`` → ``search-attempt``/``search-failed``* → ``candidate``
(with ``apply: true|false`` — the commit record, carrying the full plan)
→ ``applied`` | ``rejected`` | ``abandoned``

The applied plan itself is persisted atomically to ``incumbent.json``
*after* the commit record and *before* the ``applied`` record. Recovery
(:meth:`RedeploymentController.recover`, run automatically on
construction) replays the journal: a decision committed but not yet
applied is completed exactly once — if ``incumbent.json`` already holds
the candidate the crash landed between persist and journal, so only the
missing ``applied`` record is written; otherwise the persist is redone.
Either way the plan cannot be applied twice and a half-made decision is
never lost. The optional ``apply_plan`` callback is an at-most-once
notification to external actuation; the authoritative committed plan is
always ``incumbent.json``.

A state directory that still holds a JSONL decision log written by an
earlier version (``redeploy-journal.jsonl``) is refused at construction
and left untouched: that format had no checksum, and reading it as frames
would take the whole file for a torn tail.

Failed searches (errors, or results that violate the zone constraints)
are retried with exponential backoff up to ``max_retries`` before the
decision is journaled ``abandoned`` — degradation handling must degrade
gracefully itself.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.plan import DeploymentPlan, ZoneConstraints
from repro.core.search import DeploymentSearch, SearchSpec
from repro.serialization import decode, dump, encode, load
from repro.service.journal import encode_record, read_frames
from repro.util.errors import (
    ConfigurationError,
    ValidationError,
    check_count,
    check_positive_finite,
)
from repro.util.faultpoints import (
    fault_hit,
    raise_if_crash,
    raise_if_crash_after,
    raise_if_torn,
)

#: Journal file name inside the controller's state directory.
JOURNAL_NAME = "redeploy-journal.waj"

#: The JSONL decision log of earlier versions; refused, never read.
_JSONL_JOURNAL_NAME = "redeploy-journal.jsonl"

#: Atomically-replaced artifact holding the currently applied plan.
INCUMBENT_NAME = "incumbent.json"

#: Field metadata: the JSON form writes ``None`` as ``null``.
_NULL = {"json_null": True}


@dataclass(frozen=True)
class DegradationEvent:
    """One observed degradation signal.

    ``kind`` is free-form ("zone-outage", "probability-jump", "wear-out",
    "score-drop", "constraint-violation", ...); ``zone`` names the
    affected zone when there is one; ``detail`` is a human-readable note.
    """

    kind: str
    detail: str = ""
    zone: str | None = field(default=None, metadata=_NULL)


@dataclass(frozen=True)
class RedeployDecision:
    """The outcome of one controller decision cycle."""

    decision_id: int = field(metadata={"json_name": "decision"})
    event: DegradationEvent
    action: str  # "applied" | "rejected" | "abandoned"
    incumbent_score: float
    candidate_score: float | None = field(default=None, metadata=_NULL)
    gain: float | None = field(default=None, metadata=_NULL)
    search_attempts: int = 0
    plan: DeploymentPlan | None = field(default=None, metadata=_NULL)


@dataclass
class RecoveryReport:
    """What :meth:`RedeploymentController.recover` found and did."""

    decisions_seen: int = 0
    completed_applies: int = 0
    incumbent_restored: bool = False
    torn_records_dropped: int = 0
    details: list[str] = field(default_factory=list, metadata={"json_skip": True})


class DecisionJournal:
    """Append-only fsync'd log of decision records, one frame each.

    Each record is a dict with a ``record`` field, framed with length and
    crc32 as the request journal frames its records. A crash can tear at
    most the final frame; :meth:`scan` drops it (counting it) but refuses
    a bad frame with bytes after it, which a torn append cannot leave.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)

    def append(self, record: dict) -> None:
        data = encode_record(record)
        # Drill seams: crash before the append, tear the frame at a byte
        # offset, or crash after it is durable (no-op in production).
        command = fault_hit(
            "redeploy.journal", record=record.get("record"), path=self.path
        )
        raise_if_crash(command, "redeploy.journal")
        with open(self.path, "ab") as handle:
            raise_if_torn(command, "redeploy.journal", handle, data)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        raise_if_crash_after(command, "redeploy.journal")

    def scan(self, repair: bool = False) -> tuple[list[dict], int]:
        """All intact records plus the number of torn frames dropped.

        With ``repair=True`` a torn tail is also *truncated away*, so the
        next :meth:`append` starts on a frame boundary — without that, an
        append after a torn crash would land behind the partial frame and
        turn a tolerated tail into loud mid-file corruption. Recovery
        runs with repair; read-only inspection does not.
        """
        if not os.path.exists(self.path):
            return [], 0
        return read_frames(self.path, repair=repair)


class RedeploymentController:
    """Watches a deployed plan and re-searches on degradation.

    Args:
        search: A :class:`~repro.core.search.DeploymentSearch` built
            against the deployment's topology and dependency model. Its
            outer assessor provides the independent incumbent scoring;
            every re-search starts from the incumbent plan.
        structure: The deployed application structure.
        state_dir: Directory for the decision journal and the committed
            incumbent plan. Created if missing; recovery replays it.
        incumbent: The currently deployed plan. A committed plan found in
            ``state_dir`` takes precedence (crash recovery).
        zone_constraints: Constraints every redeployment must satisfy
            (and whose violation by the incumbent is itself a
            degradation signal).
        min_gain: Minimum reliability gain (candidate − incumbent) for a
            redeployment to be applied; smaller wins are journaled
            ``rejected`` — migration is not free, so tiny improvements
            do not justify moving instances.
        degradation_threshold: Score drop (vs the post-apply baseline)
            that :meth:`check` treats as degradation.
        search_seconds / search_iterations: Budget of each re-search.
        max_retries: Search attempts per decision before abandoning.
        backoff_seconds: Delay after the first failed search attempt;
            it doubles after each further failure.
        apply_plan: Optional callback invoked with the newly applied
            plan (at-most-once; see the module docstring).
        sleep: Injectable sleep for deterministic tests.
    """

    def __init__(
        self,
        search: DeploymentSearch,
        structure,
        state_dir: str,
        incumbent: DeploymentPlan | None = None,
        zone_constraints: ZoneConstraints | None = None,
        min_gain: float = 0.002,
        degradation_threshold: float = 0.005,
        search_seconds: float = 5.0,
        search_iterations: int | None = None,
        max_retries: int = 3,
        backoff_seconds: float = 0.05,
        apply_plan: Callable[[DeploymentPlan], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        # NaN compares false both ways: a NaN gain would reject every
        # candidate, a NaN threshold would never see a degradation.
        errors: list[tuple[str, str]] = [
            (name, f"must be a finite number >= 0, got {value}")
            for name, value in (
                ("min_gain", min_gain),
                ("backoff_seconds", backoff_seconds),
            )
            if not (math.isfinite(value) and value >= 0)
        ]
        check_positive_finite("degradation_threshold", degradation_threshold, errors)
        check_positive_finite("search_seconds", search_seconds, errors)
        check_count("max_retries", max_retries, 1, errors)
        if errors:
            raise ValidationError(errors)
        self.search = search
        self.structure = structure
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        legacy = os.path.join(self.state_dir, _JSONL_JOURNAL_NAME)
        if os.path.exists(legacy):
            raise ConfigurationError(
                f"{legacy!r} is a decision log in the JSONL format of an "
                f"earlier version; this version reads only the framed "
                f"{JOURNAL_NAME!r} and leaves that file as it is"
            )
        self.journal = DecisionJournal(os.path.join(self.state_dir, JOURNAL_NAME))
        self.incumbent_path = os.path.join(self.state_dir, INCUMBENT_NAME)
        self.zone_constraints = zone_constraints
        self.min_gain = min_gain
        self.degradation_threshold = degradation_threshold
        self.search_seconds = search_seconds
        self.search_iterations = search_iterations
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.apply_plan = apply_plan
        self.sleep = sleep

        self.incumbent = incumbent
        self.baseline_score: float | None = None
        self._pending_events: list[DegradationEvent] = []
        self._next_decision = 1
        self.last_recovery = self.recover()
        if self.incumbent is None:
            raise ConfigurationError(
                "no incumbent plan: pass one or point state_dir at a recovered "
                "deployment"
            )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Replay the journal; complete committed-but-unapplied decisions.

        Idempotent: a second call (or a second controller on the same
        state dir) finds nothing left to complete.
        """
        report = RecoveryReport()
        records, report.torn_records_dropped = self.journal.scan(repair=True)

        committed_plan = self._load_committed_incumbent()
        if committed_plan is not None:
            self.incumbent = committed_plan
            report.incumbent_restored = True

        commits: dict[int, dict] = {}
        terminal: set[int] = set()
        for record in records:
            decision = int(record["decision"])
            self._next_decision = max(self._next_decision, decision + 1)
            kind = record.get("record")
            if kind == "detected":
                report.decisions_seen += 1
            elif kind == "candidate" and record.get("apply"):
                commits[decision] = record
            elif kind in ("applied", "rejected", "abandoned"):
                terminal.add(decision)

        for decision in sorted(set(commits) - terminal):
            candidate = decode(DeploymentPlan, commits[decision]["plan"])
            if self.incumbent is not None and (
                candidate.canonical_key() == self.incumbent.canonical_key()
            ):
                # Crash landed between the incumbent persist and the
                # ``applied`` record: the plan is already committed, so
                # only the journal completion is missing. Re-invoking
                # apply_plan here would be the double-apply this
                # recovery exists to prevent.
                report.details.append(
                    f"decision {decision}: commit already persisted, "
                    "journal completed"
                )
            else:
                self._persist_incumbent(candidate)
                self.incumbent = candidate
                if self.apply_plan is not None:
                    self.apply_plan(candidate)
                report.details.append(f"decision {decision}: apply completed")
            self.journal.append({"record": "applied", "decision": decision, "recovered": True})
            report.completed_applies += 1
            score = commits[decision].get("candidate_score")
            if score is not None:
                self.baseline_score = float(score)
        return report

    def _load_committed_incumbent(self) -> DeploymentPlan | None:
        if not os.path.exists(self.incumbent_path):
            return None
        try:
            return decode(DeploymentPlan, load(self.incumbent_path))
        except ConfigurationError:
            # A corrupt incumbent artifact cannot silently win over the
            # constructor-supplied plan; dump() is atomic so this only
            # happens on disk-level corruption.
            return None

    def _persist_incumbent(self, plan: DeploymentPlan) -> None:
        # Drill seam: crash on either side of the commit-point persist.
        command = fault_hit("redeploy.persist", path=self.incumbent_path)
        raise_if_crash(command, "redeploy.persist")
        dump(encode(plan), self.incumbent_path, checksum=True)
        raise_if_crash_after(command, "redeploy.persist")

    # ------------------------------------------------------------------
    # Degradation signals
    # ------------------------------------------------------------------

    def observe(self, event: DegradationEvent) -> None:
        """Push an externally detected degradation (chaos, telemetry)."""
        self._pending_events.append(event)

    def refresh(self) -> None:
        """Re-read failure probabilities after the substrate changed."""
        self.search.assessor.refresh_probabilities()

    def assess_incumbent(self) -> float:
        """Independent reliability score of the incumbent right now."""
        result = self.search.assessor.assess(self.incumbent, self.structure)
        return float(result.estimate.score)

    def check(self) -> DegradationEvent | None:
        """Poll for degradation: score drop or constraint violation.

        The first call establishes the baseline and reports nothing (a
        controller must observe a healthy deployment before it can call
        anything degraded).
        """
        self.refresh()
        score = self.assess_incumbent()
        if (
            self.zone_constraints is not None
            and not self.zone_constraints.satisfied_by(
                self.incumbent, self.search.assessor.topology
            )
        ):
            return DegradationEvent(
                kind="constraint-violation",
                detail="incumbent violates the zone constraints",
            )
        if self.baseline_score is None:
            self.baseline_score = score
            return None
        drop = self.baseline_score - score
        if drop >= self.degradation_threshold:
            return DegradationEvent(
                kind="score-drop",
                detail=(
                    f"reliability fell {drop:.4f} below the baseline "
                    f"{self.baseline_score:.4f}"
                ),
            )
        return None

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def step(self) -> RedeployDecision | None:
        """Process one degradation signal end to end, if there is one.

        Order: pushed events first (chaos/telemetry outrank polling),
        then a :meth:`check` poll. Returns the decision, or ``None``
        when nothing is degraded.
        """
        if self._pending_events:
            event = self._pending_events.pop(0)
            self.refresh()
        else:
            event = self.check()
            if event is None:
                return None
        return self._decide(event)

    def _decide(self, event: DegradationEvent) -> RedeployDecision:
        decision = self._next_decision
        self._next_decision += 1
        incumbent_score = self.assess_incumbent()
        self.journal.append(
            {
                "record": "detected",
                "decision": decision,
                "event": encode(event),
                "incumbent_score": incumbent_score,
            }
        )

        result = None
        # max_retries >= 1 (checked at construction), so ``attempt`` is
        # bound after the loop: the number of searches this decision ran.
        for attempt in range(1, self.max_retries + 1):
            self.journal.append(
                {"record": "search-attempt", "decision": decision, "attempt": attempt}
            )
            try:
                candidate_result = self.search.search(
                    self._spec(), initial_plan=self.incumbent
                )
                if (
                    self.zone_constraints is not None
                    and not self.zone_constraints.satisfied_by(
                        candidate_result.best_plan, self.search.assessor.topology
                    )
                ):
                    raise ConfigurationError(
                        "re-search result violates the zone constraints"
                    )
                result = candidate_result
                break
            except Exception as exc:  # noqa: BLE001 - journaled and retried
                self.journal.append(
                    {
                        "record": "search-failed",
                        "decision": decision,
                        "attempt": attempt,
                        "reason": f"{type(exc).__name__}: {exc}",
                    }
                )
                if attempt < self.max_retries:
                    self.sleep(self.backoff_seconds * 2 ** (attempt - 1))

        if result is None:
            self.journal.append({"record": "abandoned", "decision": decision})
            return RedeployDecision(
                decision_id=decision,
                event=event,
                action="abandoned",
                incumbent_score=incumbent_score,
                search_attempts=attempt,
            )

        candidate = result.best_plan
        candidate_score = float(result.best_assessment.estimate.score)
        gain = candidate_score - incumbent_score
        apply = gain >= self.min_gain
        self.journal.append(
            {
                "record": "candidate",
                "decision": decision,
                "plan": encode(candidate),
                "candidate_score": candidate_score,
                "incumbent_score": incumbent_score,
                "gain": gain,
                "apply": apply,
            }
        )
        if not apply:
            self.journal.append({"record": "rejected", "decision": decision})
            # The degraded score is the new normal: without this reset a
            # permanent degradation would re-trigger on every poll even
            # though no better plan exists.
            self.baseline_score = incumbent_score
            return RedeployDecision(
                decision_id=decision,
                event=event,
                action="rejected",
                incumbent_score=incumbent_score,
                candidate_score=candidate_score,
                gain=gain,
                search_attempts=attempt,
                plan=candidate,
            )

        self._persist_incumbent(candidate)
        self.incumbent = candidate
        if self.apply_plan is not None:
            self.apply_plan(candidate)
        self.journal.append({"record": "applied", "decision": decision})
        self.baseline_score = candidate_score
        return RedeployDecision(
            decision_id=decision,
            event=event,
            action="applied",
            incumbent_score=incumbent_score,
            candidate_score=candidate_score,
            gain=gain,
            search_attempts=attempt,
            plan=candidate,
        )

    def run(
        self, cycles: int, poll_seconds: float = 0.0
    ) -> list[RedeployDecision]:
        """Run up to ``cycles`` watch cycles; returns the decisions made."""
        decisions = []
        for cycle in range(cycles):
            decision = self.step()
            if decision is not None:
                decisions.append(decision)
            if poll_seconds > 0 and cycle < cycles - 1:
                self.sleep(poll_seconds)
        return decisions

    def _spec(self) -> SearchSpec:
        return SearchSpec(
            structure=self.structure,
            desired_reliability=1.0,
            max_seconds=self.search_seconds,
            max_iterations=self.search_iterations,
            zone_constraints=self.zone_constraints,
        )
