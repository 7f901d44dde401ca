"""Drill execution: single drills, randomized campaigns, replay.

:func:`run_drill` is the atom — one deterministic simulation of the full
stack under one fault schedule, on a scratch directory, followed by the
invariant sweep. :func:`run_campaign` draws seeded random schedules from
the environment-fault catalog, stops at the first invariant violation,
shrinks the failing schedule to a minimal reproducer and writes it as
JSON; :func:`replay_reproducer` re-runs such a file bit-identically.

The campaign verdict is also written as a small JSON document so the
serving stack can surface "when did a drill last pass against this code"
in ``/healthz`` (see :func:`write_verdict` / :func:`load_verdict`).
"""

from __future__ import annotations

import json
import logging
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.drill.faultpoints import armed
from repro.drill.invariants import Violation, check_drill
from repro.drill.schedule import (
    SEEDED_BUGS,
    FaultSchedule,
    random_schedule,
    schedule_from_json,
)
from repro.drill.sim import DrillSim
from repro.serialization import encode
from repro.util.errors import ConfigurationError, ValidationError

REPRODUCER_FORMAT = "drill-reproducer"
VERDICT_NAME = "drill-verdict.json"

#: Field metadata: the JSON form writes ``None`` as ``null``.
_NULL = {"json_null": True}


@dataclass
class DrillResult:
    """Outcome of one drill: the schedule, what fired, what broke."""

    seed: int
    schedule: FaultSchedule = field(
        metadata={"json_codec": (lambda s: s.events, schedule_from_json)}
    )
    violations: list[Violation]
    ticks: int = 0
    crashes: int = 0
    power_losses: int = 0
    restarts: int = 0
    failovers: int = 0
    faults_fired: int = 0
    submissions: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def run_drill(
    seed: int,
    schedule: FaultSchedule,
    shards: int = 3,
    requests: int = 10,
    base_dir: str | None = None,
    max_ticks: int = 1200,
) -> DrillResult:
    """One deterministic drill; bit-reproducible from its arguments.

    ``base_dir`` keeps the scratch directory for post-mortems; by default
    a temp directory is used and removed. Violation details are
    root-path-sanitized so two replays of the same reproducer compare
    equal even though their scratch paths differ.
    """
    registry = schedule.build()
    root = base_dir or tempfile.mkdtemp(prefix="repro-drill-")
    own_root = base_dir is None
    sim = DrillSim(
        seed,
        root,
        registry,
        shards=shards,
        requests=requests,
        max_ticks=max_ticks,
    )
    # The drill drives the production lifecycle, which logs every worker
    # death and lost write — here all injected on purpose. The verdict
    # is the invariant sweep, not that log.
    service_log = logging.getLogger("repro.service")
    log_level = service_log.level
    service_log.setLevel(logging.CRITICAL)
    try:
        with armed(registry):
            try:
                sim.run()
            except Exception as exc:  # noqa: BLE001 - verdict, not control flow
                sim.fatal_error = f"{type(exc).__name__}: {exc}"
                sim.quiesced = False
        violations = [
            Violation(v.invariant, v.detail.replace(root, "<drill>"))
            for v in check_drill(sim)
        ]
    finally:
        service_log.setLevel(log_level)
        if sim.service is not None:
            sim.service.close_handles()
        if own_root:
            shutil.rmtree(root, ignore_errors=True)
    return DrillResult(
        seed=seed,
        schedule=schedule,
        violations=violations,
        ticks=sim.tick,
        crashes=sim.trace.crashes,
        power_losses=sim.trace.power_losses,
        restarts=sim.trace.restarts,
        failovers=sim.trace.failovers,
        faults_fired=len(registry.fired),
        submissions=len(sim.trace.submissions),
    )


@dataclass
class CampaignReport:
    """Outcome of a randomized drill campaign. Its JSON form (the CLI
    report and the ``/healthz`` verdict) names the failing drill's
    violations, not the drill itself, and leaves out the per-round
    results."""

    json_properties = ("passed", "violations")

    rounds: int
    rounds_run: int
    seed: int
    bug: str | None = field(metadata=_NULL)
    failure: DrillResult | None = field(default=None, metadata={"json_skip": True})
    failed_round: int | None = field(default=None, metadata=_NULL)
    reproducer_path: str | None = field(
        default=None, metadata={"json_name": "reproducer", **_NULL}
    )
    original_events: int | None = field(default=None, metadata=_NULL)
    shrunk_events: int | None = field(default=None, metadata=_NULL)
    shrink_runs: int = 0
    total_faults: int = 0
    total_crashes: int = 0
    total_submissions: int = 0
    round_results: list = field(default_factory=list, metadata={"json_skip": True})

    @property
    def passed(self) -> bool:
        return self.failure is None

    @property
    def violations(self) -> list[Violation]:
        return [] if self.failure is None else self.failure.violations


def run_campaign(
    rounds: int,
    seed: int,
    bug: str | None = None,
    shards: int = 3,
    requests: int = 10,
    max_events: int = 5,
    max_ticks: int = 1200,
    shrink_failures: bool = True,
    out_dir: str | None = None,
    progress=None,
) -> CampaignReport:
    """Run ``rounds`` seeded random fault schedules; stop at the first
    invariant violation and shrink it to a minimal reproducer.

    ``bug`` names a :data:`~repro.drill.schedule.SEEDED_BUGS` entry to
    graft onto every schedule — the self-test proving the invariants
    can catch a real durability bug, not just pass quiet runs.

    Raises one :class:`~repro.util.errors.ValidationError` naming each
    of ``rounds``, ``shards``, ``requests`` and ``max_events`` below 1:
    with any of them at zero a campaign drills nothing and still passes.
    """
    low = [
        (name, f"must be >= 1, got {value}")
        for name, value in (
            ("rounds", rounds),
            ("shards", shards),
            ("requests", requests),
            ("max_events", max_events),
        )
        if value < 1
    ]
    if low:
        raise ValidationError(low)
    if bug is not None and bug not in SEEDED_BUGS:
        raise ConfigurationError(
            f"unknown seeded bug {bug!r}; have {sorted(SEEDED_BUGS)}"
        )
    rng = random.Random(seed)
    report = CampaignReport(rounds=rounds, rounds_run=0, seed=seed, bug=bug)
    for round_index in range(rounds):
        drill_seed = rng.randrange(1 << 30)
        schedule = random_schedule(rng, max_events=max_events)
        if bug is not None:
            schedule = schedule.with_bug(bug)
        result = run_drill(
            drill_seed,
            schedule,
            shards=shards,
            requests=requests,
            max_ticks=max_ticks,
        )
        report.rounds_run += 1
        report.total_faults += result.faults_fired
        report.total_crashes += result.crashes
        report.total_submissions += result.submissions
        report.round_results.append(
            {
                "round": round_index,
                "seed": drill_seed,
                "events": len(schedule),
                "faults_fired": result.faults_fired,
                "crashes": result.crashes,
                "passed": result.passed,
            }
        )
        if progress is not None:
            progress(round_index, result)
        if result.passed:
            continue
        report.failure = result
        report.failed_round = round_index
        reproducer_schedule = schedule
        report.original_events = len(schedule)
        if shrink_failures:
            from repro.drill.shrink import shrink_schedule

            shrink = shrink_schedule(
                drill_seed,
                schedule,
                result.violations,
                shards=shards,
                requests=requests,
                max_ticks=max_ticks,
            )
            reproducer_schedule = shrink.schedule
            report.shrunk_events = shrink.shrunk_events
            report.shrink_runs = shrink.runs
        report.reproducer_path = write_reproducer(
            os.path.join(
                out_dir or ".", f"drill-repro-{seed}-r{round_index}.json"
            ),
            seed=drill_seed,
            schedule=reproducer_schedule,
            shards=shards,
            requests=requests,
            max_ticks=max_ticks,
            violations=result.violations,
            campaign={"seed": seed, "round": round_index, "bug": bug},
            original_events=report.original_events,
        )
        break
    return report


# ----------------------------------------------------------------------
# Reproducer files
# ----------------------------------------------------------------------


def write_reproducer(
    path: str,
    seed: int,
    schedule: FaultSchedule,
    shards: int,
    requests: int,
    max_ticks: int,
    violations,
    campaign: dict | None = None,
    original_events: int | None = None,
) -> str:
    document = {
        "format": REPRODUCER_FORMAT,
        "version": 1,
        "seed": seed,
        "shards": shards,
        "requests": requests,
        "max_ticks": max_ticks,
        "schedule": encode(schedule.events),
        "violations": encode(violations),
        "original_events": original_events,
        "campaign": campaign,
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay_reproducer(path: str) -> DrillResult:
    """Re-run a reproducer file: same seed, same schedule, same drill."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read reproducer {path}: {exc}")
    if document.get("format") != REPRODUCER_FORMAT:
        raise ConfigurationError(
            f"{path} is not a {REPRODUCER_FORMAT} file"
        )
    return run_drill(
        int(document["seed"]),
        schedule_from_json(document["schedule"]),
        shards=int(document.get("shards", 3)),
        requests=int(document.get("requests", 10)),
        max_ticks=int(document.get("max_ticks", 1200)),
    )


# ----------------------------------------------------------------------
# Verdict surfaced in /healthz
# ----------------------------------------------------------------------


def write_verdict(directory: str, report: CampaignReport) -> str:
    """Persist the campaign verdict where a serving stack can find it."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, VERDICT_NAME)
    document = dict(encode(report), completed_at=time.time())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_verdict(directory: str) -> dict | None:
    """The last drill verdict written next to this journal, if any."""
    path = os.path.join(directory, VERDICT_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None
