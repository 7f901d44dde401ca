"""Whole-stack invariant checkers run after every drill.

Each checker inspects the finished :class:`~repro.drill.sim.DrillSim` —
its client-side trace plus the durable directories — and returns
:class:`Violation` records. The checkers read the journal segments and
decision log *raw* (via :func:`~repro.service.journal.read_frames`, the
one reader of framed files), independently of the recovery code under
test, so a recovery bug cannot hide its own evidence.

The invariants:

``no-unhandled-error``
    The drill never escaped with a non-simulated exception (a corrupt
    sealed segment, an assertion, a recovery crash-loop).
``no-lost-request``
    Every acknowledged submission was answered or is journaled terminal
    — an ack durably written can never evaporate.
``duplicate-suppression``
    Resubmitting an idempotency key never observes two different
    answers.
``bit-identical-replay``
    Every re-execution of a request (after takeover or restart) produced
    a bit-identical result payload, and the stored result matches.
``journal-lifecycle``
    Within a segment family no record for a request follows its terminal
    record, and a request is never both completed and cancelled.
``store-journal-agreement``
    Every key the journal folds as completed-ok has a readable stored
    result matching the executed payload.
``redeploy-exactly-once``
    Every committed decision (candidate record with ``apply=true``) has
    exactly one ``applied`` record, uncommitted decisions have none, no
    plan was actuated twice, and ``incumbent.json`` holds the newest
    committed plan.
``fleet-drained``
    The drill quiesced: no queued or in-flight work remains and every
    worker ended alive, respawning, or explicitly quarantined.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro import serialization
from repro.core.plan import DeploymentPlan
from repro.service.journal import RequestJournal, read_frames, segment_families
from repro.service.redeploy import INCUMBENT_NAME, JOURNAL_NAME, DecisionJournal
from repro.util.errors import ConfigurationError

#: Journal record kinds that end a request's lifecycle.
_TERMINAL_EVENTS = ("completed", "cancelled")


@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str


def _family_records(journal_dir: str) -> dict:
    """Raw record sequences per segment family, in segment order. Read
    after the final scan came back clean: it applies the same
    :func:`read_frames` rule, so a corrupt segment never gets here."""
    return {
        family: [
            record
            for index, path in enumerate(paths)
            for record in read_frames(path, sealed=index < len(paths) - 1)[0]
        ]
        for family, paths in segment_families(journal_dir).items()
    }


def _canonical(value) -> str:
    """Order-insensitive fingerprint (stored results round-trip through
    JSON with sorted keys; in-memory ones keep insertion order)."""
    return json.dumps(value, sort_keys=True)


def _ok_payload(response: dict) -> str:
    """The comparable part of a delivered response: status + result.

    Timing, provenance (``recovered``/``replayed``) and request ids may
    legitimately differ between an original answer and its replay."""
    return _canonical([response.get("status"), response.get("result")])


def check_drill(sim) -> list[Violation]:
    violations: list[Violation] = []

    if sim.fatal_error is not None:
        violations.append(Violation("no-unhandled-error", sim.fatal_error))
    if not sim.quiesced:
        violations.append(
            Violation(
                "fleet-drained",
                f"work remained after {sim.tick} ticks (max {sim.max_ticks})",
            )
        )

    try:
        final = RequestJournal.scan(sim.journal_dir)
    except ConfigurationError as exc:
        violations.append(
            Violation("journal-lifecycle", f"final scan failed: {exc}")
        )
        return violations

    raw = _family_records(sim.journal_dir)

    # ------------------------------------------------------------- I1
    for sub in sim.trace.submissions:
        if not sub.acked:
            continue
        if sub.responses:
            continue
        if sub.request_id is not None and sub.request_id in final.terminal_ids:
            continue
        violations.append(
            Violation(
                "no-lost-request",
                f"submission {sub.seq} (key={sub.key!r}, "
                f"id={sub.request_id}) was acknowledged but never answered "
                "and has no terminal journal record",
            )
        )

    # ------------------------------------------------------------- I2
    by_key: dict = {}
    for sub in sim.trace.submissions:
        if sub.key is None:
            continue
        for response in sub.responses:
            if response.get("status") in ("ok", "degraded"):
                by_key.setdefault(sub.key, []).append(response)
    for key, responses in sorted(by_key.items()):
        payloads = {_ok_payload(r) for r in responses}
        if len(payloads) > 1:
            violations.append(
                Violation(
                    "duplicate-suppression",
                    f"key {key!r} observed {len(payloads)} distinct answers",
                )
            )

    # ------------------------------------------------------------- I3
    for handle, results in sorted(sim.trace.executions.items()):
        distinct = {_canonical(r) for r in results}
        if len(distinct) > 1:
            violations.append(
                Violation(
                    "bit-identical-replay",
                    f"{len(results)} executions of {handle!r} produced "
                    f"{len(distinct)} distinct payloads",
                )
            )

    # ------------------------------------------------------------- I4
    for shard, family in sorted(
        raw.items(), key=lambda item: (item[0] is None, item[0] or 0)
    ):
        terminal_seen: set = set()
        for record in family:
            request_id = record.get("id")
            event = record.get("event")
            if not isinstance(request_id, str):
                continue
            if request_id in terminal_seen:
                violations.append(
                    Violation(
                        "journal-lifecycle",
                        f"family {shard}: {event!r} for {request_id} after "
                        "its terminal record — a finished request was "
                        "resurrected",
                    )
                )
            if event in _TERMINAL_EVENTS:
                terminal_seen.add(request_id)
    completed_ids: set = set()
    cancelled_ids: set = set()
    for family in raw.values():
        for record in family:
            if record.get("event") == "completed":
                completed_ids.add(record.get("id"))
            elif record.get("event") == "cancelled":
                cancelled_ids.add(record.get("id"))
    for request_id in sorted(completed_ids & cancelled_ids):
        violations.append(
            Violation(
                "journal-lifecycle",
                f"{request_id} is journaled both completed and cancelled",
            )
        )

    # ------------------------------------------------------- I2/I3/I5
    if sim.service is not None:
        store = sim.service.store
        for key, (fingerprint, status) in sorted(final.keys.items()):
            if status not in ("ok", "degraded"):
                continue
            stored = store.get(key)
            if stored is None:
                violations.append(
                    Violation(
                        "store-journal-agreement",
                        f"journal folds {key!r} as completed-{status} but "
                        "the result store cannot answer it",
                    )
                )
                continue
            executions = sim.trace.executions.get(key)
            if executions and _canonical(stored.get("result")) != _canonical(
                executions[0]
            ):
                violations.append(
                    Violation(
                        "store-journal-agreement",
                        f"stored result for {key!r} differs from the "
                        "executed payload",
                    )
                )

    # ------------------------------------------------------------- I6
    violations.extend(_check_redeploy(sim))

    # ------------------------------------------------------------- I7
    if sim.service is not None:
        service = sim.service
        if service.core.tickets:
            violations.append(
                Violation(
                    "fleet-drained",
                    f"{len(service.core.tickets)} tickets still open at the end",
                )
            )
        for slot in service.core.slots:
            if slot.queue:
                violations.append(
                    Violation(
                        "fleet-drained",
                        f"shard {slot.shard} queue still holds "
                        f"{len(slot.queue)} tasks",
                    )
                )
        for worker in service.workers.values():
            if worker.state in ("hung", "exited"):
                violations.append(
                    Violation(
                        "fleet-drained",
                        f"shard-{worker.shard} ended {worker.state} — "
                        "supervision never reaped it",
                    )
                )
    elif sim.quiesced:
        violations.append(
            Violation("fleet-drained", "no service survived the drill")
        )

    return violations


def _check_redeploy(sim) -> list[Violation]:
    violations: list[Violation] = []
    journal_path = os.path.join(sim.redeploy_dir, JOURNAL_NAME)
    incumbent_path = os.path.join(sim.redeploy_dir, INCUMBENT_NAME)
    if not os.path.exists(journal_path):
        return violations
    try:
        records, _ = DecisionJournal(journal_path).scan()
    except ConfigurationError as exc:
        violations.append(
            Violation(
                "redeploy-exactly-once", f"decision journal unreadable: {exc}"
            )
        )
        return violations

    committed: dict = {}
    applied_counts: dict = {}
    for record in records:
        decision = record.get("decision")
        kind = record.get("record")
        if kind == "candidate" and record.get("apply"):
            committed[decision] = record
        elif kind == "applied":
            applied_counts[decision] = applied_counts.get(decision, 0) + 1

    for decision, count in sorted(applied_counts.items()):
        if decision not in committed:
            violations.append(
                Violation(
                    "redeploy-exactly-once",
                    f"decision {decision} has {count} applied record(s) but "
                    "no committed candidate",
                )
            )
        elif count != 1:
            violations.append(
                Violation(
                    "redeploy-exactly-once",
                    f"decision {decision} applied {count} times",
                )
            )
    for decision in sorted(set(committed) - set(applied_counts)):
        violations.append(
            Violation(
                "redeploy-exactly-once",
                f"decision {decision} committed but never applied — "
                "recovery lost the commit point",
            )
        )

    # The actuation callback fires at most once per committed decision
    # (recovery may legitimately skip it when the persisted incumbent
    # already matches), so per plan the actuation count can never exceed
    # the number of decisions that committed that plan.
    committed_counts: dict = {}
    for record in committed.values():
        try:
            canonical = serialization.decode(
                DeploymentPlan, record["plan"]
            ).canonical_key()
        except (ConfigurationError, KeyError) as exc:
            violations.append(
                Violation(
                    "redeploy-exactly-once",
                    f"committed candidate plan unreadable: {exc}",
                )
            )
            continue
        committed_counts[canonical] = committed_counts.get(canonical, 0) + 1
    actuated: dict = {}
    for canonical in sim.trace.apply_calls:
        actuated[canonical] = actuated.get(canonical, 0) + 1
    for canonical, count in sorted(actuated.items()):
        allowed = committed_counts.get(canonical, 0)
        if allowed == 0:
            violations.append(
                Violation(
                    "redeploy-exactly-once",
                    f"plan {canonical[:40]}... actuated without a committed "
                    "decision",
                )
            )
        elif count > allowed:
            violations.append(
                Violation(
                    "redeploy-exactly-once",
                    f"plan {canonical[:40]}... actuated {count} times for "
                    f"{allowed} committed decision(s)",
                )
            )

    if committed:
        newest = committed[max(committed)]
        try:
            expected = serialization.decode(
                DeploymentPlan, newest["plan"]
            ).canonical_key()
            actual = serialization.decode(
                DeploymentPlan, serialization.load(incumbent_path)
            ).canonical_key()
        except (ConfigurationError, FileNotFoundError, KeyError) as exc:
            violations.append(
                Violation(
                    "redeploy-exactly-once",
                    f"incumbent artifact unreadable after commit: {exc}",
                )
            )
        else:
            if expected != actual:
                violations.append(
                    Violation(
                        "redeploy-exactly-once",
                        "incumbent.json does not hold the newest committed "
                        "plan",
                    )
                )
    return violations
