"""Command-line interface: ``python -m repro <command>``.

A thin operational wrapper around the library for providers who want to
drive reCloud from scripts:

``topology``   print a data center's Table-2 style summary
``assess``     assess a concrete plan's reliability with error bounds
``search``     search for a reliable plan within a time budget
``risk``       single-failure risk report for a plan
``baseline``   show the common-practice / enhanced-CP plans
``serve``      run the long-lived assessment service (HTTP); with
               ``--workers N`` a supervised multi-process shard fleet
``capacity``   plan the worker fleet size for an SLO under a crash rate
``journal``    inspect a write-ahead journal directory post-mortem
``redeploy``   watch a multi-zone deployment and redeploy on degradation

Most commands operate on the paper's preset data centers (``--scale``);
``redeploy`` instead builds a multi-zone data center (``--zones`` joined
fat-trees with per-zone shared roots) and runs the degradation-triggered
redeployment controller against it.

All commands are seeded deterministically (``--seed``) and can emit
machine-readable JSON (``--json``).

Exit codes (stable; scripts may branch on them):

===  ====================================================================
0    success — the result is complete and requirements (if any) were met
2    configuration/usage error (bad flags, unknown hosts, validation)
3    search finished but the desired reliability was not reached
4    search was preempted (SIGTERM/SIGINT); a resumable checkpoint exists
5    result is degraded — an estimate was produced but rounds were lost
     (``partial_ok`` drops or a deadline), so its error bounds are wider
     than requested
===  ====================================================================
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.baselines.common_practice import (
    common_practice_plan,
    enhanced_common_practice_plan,
    power_diversity,
)
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.objectives import CompositeObjective, WorkloadUtilityObjective
from repro.core.plan import DeploymentPlan
from repro.core.risk import RiskAnalyzer
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.search import DeploymentSearch, SearchSpec, SearchState
from repro.faults.inventory import build_paper_inventory
from repro.faults.probability import annual_downtime_hours
from repro.runtime.mapreduce import RetryPolicy
from repro.topology.presets import PAPER_SCALES, paper_topology
from repro.util.errors import ConfigurationError, ReproError, ValidationError
from repro.util.metrics import MetricsRegistry
from repro.workload.model import HostWorkloadModel

#: Stable exit codes (see module docstring).
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSATISFIED = 3
EXIT_PREEMPTED = 4
EXIT_DEGRADED = 5
EXIT_DRILL = 6


def _build_context(args):
    topology = paper_topology(args.scale, seed=args.seed)
    inventory = build_paper_inventory(topology, seed=args.seed + 1)
    return topology, inventory


def _metrics_for(args) -> MetricsRegistry | None:
    return MetricsRegistry() if getattr(args, "profile", False) else None


def _attach_profile(args, metrics, document: dict, human: str) -> str:
    """Fold a profiling snapshot into both output forms when requested."""
    if metrics is None:
        return human
    document["profile"] = {key: value for key, value in metrics.flat()}
    return human + "\n" + metrics.format_table()


def _emit(args, document: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(human)


def _parse_hosts(raw: str) -> list[str]:
    return [h.strip() for h in raw.split(",") if h.strip()]


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_topology(args) -> int:
    topology, inventory = _build_context(args)
    summary = topology.summarize()
    document = {
        "scale": args.scale,
        "ports_per_switch": summary.ports_per_switch,
        "core_switches": summary.core_switches,
        "aggregation_switches": summary.aggregation_switches,
        "edge_switches": summary.edge_switches,
        "border_switches": summary.border_switches,
        "hosts": summary.hosts,
        "links": summary.links,
        "power_supplies": inventory.dependency_count(),
    }
    human = "\n".join(f"{key:>22}: {value}" for key, value in document.items())
    _emit(args, document, human)
    return 0


def cmd_assess(args) -> int:
    topology, inventory = _build_context(args)
    hosts = _parse_hosts(args.hosts)
    structure = ApplicationStructure.k_of_n(args.k, len(hosts))
    plan = DeploymentPlan.single_component(hosts, structure.components[0].name)
    if args.assessor == "analytic":
        if args.workers > 0:
            raise ValidationError(
                [("workers", "--assessor analytic runs in-process; drop --workers")]
            )
        mode = "analytic"
    else:
        mode = "parallel" if args.workers > 0 else "sequential"
    metrics = _metrics_for(args)
    config = AssessmentConfig(
        rounds=args.rounds,
        rng=args.seed + 2,
        mode=mode,
        workers=args.workers,
        retry_policy=RetryPolicy(
            timeout_seconds=args.portion_timeout, max_retries=args.retries
        ),
        partial_ok=args.partial_ok,
        metrics=metrics,
        analytic_state_bits=args.analytic_state_bits,
    )
    assessor = build_assessor(topology, inventory, config)
    try:
        result = assessor.assess(plan, structure)
    finally:
        close = getattr(assessor, "close", None)
        if close is not None:
            close()
    document = serialization.encode(result)
    human = (
        f"plan      : {result.plan}\n"
        f"estimate  : {result.estimate}\n"
        f"downtime  : {annual_downtime_hours(result.score):.1f} h/year\n"
        f"sampled   : {result.sampled_components} components\n"
        f"elapsed   : {result.elapsed_seconds * 1e3:.1f} ms"
    )
    if result.estimate.exact:
        human += "\nmethod    : analytic (exact fault-tree evaluation)"
    elif args.assessor == "analytic":
        human += (
            "\nmethod    : sampled (closure exceeded the analytic "
            "tractability budget)"
        )
    if result.runtime is not None:
        runtime = result.runtime
        human += (
            f"\nworkers   : {runtime.workers} ({runtime.backend} backend, "
            f"{runtime.portions} portions)"
        )
        if runtime.retries or runtime.failures:
            human += (
                f"\nrecovery  : {runtime.retries} retries, "
                f"{runtime.pool_restarts} pool restarts, "
                f"{runtime.recovered_inline} recovered inline"
            )
        if result.degraded:
            human += (
                f"\nDEGRADED  : {runtime.dropped_portions} portions "
                f"({runtime.dropped_rounds} rounds) lost; error bounds widened"
            )
    human = _attach_profile(args, metrics, document, human)
    _emit(args, document, human)
    # A degraded estimate is usable but not what was asked for: exit
    # non-zero so scripts cannot mistake it for a full-fidelity result.
    return EXIT_DEGRADED if result.degraded else EXIT_OK


def cmd_search(args) -> int:
    if not args.resume and (args.k is None or args.n is None):
        print("error: --k and --n are required unless --resume is given",
              file=sys.stderr)
        return EXIT_CONFIG
    topology, inventory = _build_context(args)
    metrics = _metrics_for(args)
    mode = "analytic" if args.assessor == "analytic" else "incremental"
    config = AssessmentConfig(
        rounds=args.rounds,
        rng=args.seed + 2,
        mode=mode,
        metrics=metrics,
        analytic_state_bits=args.analytic_state_bits,
    )
    if args.multi_objective:
        workload = HostWorkloadModel.paper_default(topology, seed=args.seed + 3)
        objective = CompositeObjective.reliability_and_utility(
            WorkloadUtilityObjective(workload)
        )
    else:
        objective = None

    # Built before any signal handler is installed: a bad --batch-size or
    # --move-budget is a ConfigurationError here, which main() maps to
    # EXIT_CONFIG with the process's signal dispositions untouched.
    stop_requested = {"flag": False}
    checkpoint_path = args.checkpoint or args.resume
    search = DeploymentSearch.from_config(
        topology,
        inventory,
        config,
        objective=objective,
        rng=args.seed + 4,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every,
        should_stop=(lambda: stop_requested["flag"]) if checkpoint_path else None,
        batch_size=args.batch_size,
        temperature_schedule=(
            None
            if args.move_budget is None
            else MoveBudgetTemperatureSchedule(args.move_budget)
        ),
    )

    # Graceful preemption: when checkpointing, SIGTERM/SIGINT request a
    # final checkpoint and an orderly stop instead of killing mid-anneal.
    if checkpoint_path:
        def _request_stop(signum, frame):
            stop_requested["flag"] = True

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    if args.resume:
        state = serialization.decode(SearchState, serialization.load(args.resume))
        desired = state.spec.desired_reliability
        result = search.resume(
            state, max_seconds=args.seconds, max_iterations=args.move_budget
        )
    else:
        desired = args.desired
        structure = ApplicationStructure.k_of_n(args.k, args.n)
        spec = SearchSpec(
            structure,
            desired_reliability=desired,
            max_seconds=args.seconds if args.seconds is not None else 10.0,
            forbid_shared_rack=True,
            max_iterations=args.move_budget,
        )
        result = search.search(spec)
    document = serialization.encode(result)
    human = (
        f"satisfied : {result.satisfied}\n"
        f"plan      : {result.best_plan}\n"
        f"estimate  : {result.best_assessment.estimate}\n"
        f"considered: {result.plans_considered} plans "
        f"({result.plans_skipped_symmetric} symmetric skips)\n"
        f"elapsed   : {result.elapsed_seconds:.1f} s"
    )
    if args.batch_size > 1:
        human += (
            f"\nbatches   : {result.batches_scored} score_plans calls over "
            f"{result.candidates_proposed} proposed candidates"
        )
    if checkpoint_path:
        human += f"\ncheckpoint: {checkpoint_path}"
        if stop_requested["flag"]:
            human += " (preempted; resume with --resume)"
    human = _attach_profile(args, metrics, document, human)
    _emit(args, document, human)
    if stop_requested["flag"]:
        return EXIT_PREEMPTED
    if result.satisfied or desired >= 1.0:
        return EXIT_OK
    return EXIT_UNSATISFIED


def cmd_risk(args) -> int:
    topology, inventory = _build_context(args)
    hosts = _parse_hosts(args.hosts)
    structure = ApplicationStructure.k_of_n(args.k, len(hosts))
    plan = DeploymentPlan.single_component(hosts, structure.components[0].name)
    analyzer = RiskAnalyzer(topology, inventory)
    entries = analyzer.report(plan, structure)
    document = serialization.artifact(
        "risk-report", entries=serialization.encode(entries)
    )
    lines = [
        f"{'component':<28} {'type':<20} {'p':>8} {'lost':>5} {'down':>5}"
    ]
    for entry in entries[: args.top]:
        lines.append(
            f"{entry.component_id:<28} {entry.component_type:<20} "
            f"{entry.failure_probability:>8.4f} {entry.instances_lost:>5} "
            f"{'YES' if entry.application_down else '':>5}"
        )
    _emit(args, document, "\n".join(lines))
    return 0


def cmd_baseline(args) -> int:
    topology, inventory = _build_context(args)
    workload = HostWorkloadModel.paper_default(topology, seed=args.seed + 3)
    assessor = build_assessor(
        topology,
        inventory,
        AssessmentConfig(rounds=args.rounds, rng=args.seed + 2),
    )
    plans = {
        "common-practice": common_practice_plan(topology, workload, args.n),
        "enhanced-common-practice": enhanced_common_practice_plan(
            topology, workload, inventory, args.n
        ),
    }
    document: dict = {"format": "baseline-report", "version": 1, "plans": {}}
    lines = []
    for name, plan in plans.items():
        estimate = assessor.assess_k_of_n(plan.hosts(), args.k).estimate
        document["plans"][name] = {
            "plan": serialization.encode(plan),
            "estimate": serialization.encode(estimate),
            "power_diversity": power_diversity(inventory, plan),
        }
        lines.append(f"{name}: {plan}")
        lines.append(
            f"  {estimate} | power diversity "
            f"{power_diversity(inventory, plan)}"
        )
    _emit(args, document, "\n".join(lines))
    return 0


def cmd_serve(args) -> int:
    import logging

    from repro.service.scheduler import ServiceConfig
    from repro.service.server import serve

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServiceConfig(
        scale=args.scale,
        seed=args.seed,
        rounds=args.rounds,
        queue_capacity=args.queue_capacity,
        scheduler_workers=args.scheduler_workers,
        default_deadline_seconds=args.default_deadline,
        drain_timeout_seconds=args.drain_timeout,
        journal_dir=args.journal_dir,
        result_ttl_seconds=args.result_ttl,
        fleet_workers=args.workers,
        heartbeat_interval_seconds=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
    )
    return serve(config, host=args.host, port=args.port)


def cmd_capacity(args) -> int:
    from repro.service.capacity import plan_capacity

    plan = plan_capacity(
        target_rps=args.target_rps,
        per_worker_rps=args.per_worker_rps,
        slo=args.slo,
        crash_rate_per_hour=args.crash_rate,
        failover_seconds=args.failover_seconds,
        max_workers=args.max_workers,
    )
    document = serialization.encode(plan)
    lines = [
        f"throughput : {args.target_rps:g} rps target / "
        f"{args.per_worker_rps:g} rps per worker -> k={plan.k_required}",
        f"worker p   : {plan.worker_unavailability:.6f} unavailable "
        f"({args.crash_rate:g} crashes/h x {args.failover_seconds:g}s failover)",
        f"{'workers':>8}  {'availability':>14}  {'method':<12} meets "
        f"SLO {args.slo}",
    ]
    for candidate in plan.candidates:
        lines.append(
            f"{candidate.workers:>8}  {candidate.availability:>14.8f}  "
            f"{candidate.method:<12} {'YES' if candidate.meets_slo else 'no'}"
        )
    if plan.satisfiable:
        lines.append(f"recommend  : --workers {plan.recommended_workers}")
    else:
        lines.append(
            f"recommend  : UNSATISFIABLE within {args.max_workers} workers"
        )
    _emit(args, document, "\n".join(lines))
    return EXIT_OK if plan.satisfiable else EXIT_UNSATISFIED


def cmd_journal(args) -> int:
    from repro.service.journal import RequestJournal

    if not os.path.isdir(args.directory):
        raise ConfigurationError(f"no journal directory at {args.directory!r}")
    state = RequestJournal.scan(args.directory)
    pending = {entry.request_id: entry for entry in state.pending}
    document = {
        "directory": args.directory,
        "requests": len(state.events),
        "terminal": len(state.terminal_ids),
        "orphans": len(pending),
        "keys": len(state.keys),
        "lifecycle": {
            request_id: events
            for request_id, events in sorted(state.events.items())
        },
        "orphan_ids": sorted(pending),
    }
    lines = [
        f"journal    : {args.directory}",
        f"requests   : {len(state.events)} journaled, "
        f"{len(state.terminal_ids)} terminal, {len(pending)} orphaned",
        f"keys       : {len(state.keys)} completed idempotency key(s)",
    ]
    for request_id, events in sorted(state.events.items()):
        if args.orphans and request_id not in pending:
            continue
        entry = pending.get(request_id)
        marker = " ORPHAN" if entry is not None else ""
        shard = next(
            (e["shard"] for e in events if e.get("shard") is not None), None
        )
        shard_note = f" shard={shard}" if shard is not None else ""
        lines.append(f"{request_id}{shard_note}{marker}")
        for event in events:
            detail = ""
            if event.get("status"):
                detail = f" status={event['status']}"
            elif event.get("reason"):
                detail = f" reason={event['reason']}"
            kind = f" kind={event['kind']}" if event.get("kind") else ""
            lines.append(f"    {event['event']}{kind}{detail}")
    _emit(args, document, "\n".join(lines))
    return EXIT_OK


def cmd_redeploy(args) -> int:
    import os

    from repro.core.plan import ZoneConstraints
    from repro.faults.inventory import build_zone_inventory
    from repro.runtime.chaos import ZoneOutage
    from repro.service.redeploy import INCUMBENT_NAME, RedeploymentController
    from repro.topology.zones import MultiZoneTopology

    topology = MultiZoneTopology(
        zones=args.zones, k=args.fabric_k, seed=args.seed
    )
    inventory = build_zone_inventory(topology, seed=args.seed + 1)

    pinned: dict[str, list[str]] = {}
    for spec in args.pin or []:
        component, _, zones = spec.partition("=")
        zone_list = [z.strip() for z in zones.split(",") if z.strip()]
        if not component or not zone_list:
            print(
                f"error: --pin expects COMPONENT=zone[,zone...], got {spec!r}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        pinned[component] = zone_list
    known_zones = set(topology.zone_names)
    referenced = set()
    if args.primary_zone is not None:
        referenced.add(args.primary_zone)
    if args.inject_outage is not None:
        referenced.add(args.inject_outage)
    for zone_list in pinned.values():
        referenced.update(zone_list)
    unknown = sorted(referenced - known_zones)
    if unknown:
        print(
            f"error: unknown zone(s) {', '.join(unknown)}; this data center "
            f"has {', '.join(topology.zone_names)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    constraints = ZoneConstraints.from_mapping(
        primary_zone=args.primary_zone,
        min_outside_primary=args.min_outside_primary,
        pinned_zones=pinned,
        spread_components=args.spread or (),
    )
    if constraints.is_trivial:
        constraints = None

    config = AssessmentConfig(rounds=args.rounds, rng=args.seed + 2)
    search = DeploymentSearch.from_config(
        topology, inventory, config, rng=args.seed + 4
    )
    structure = ApplicationStructure.k_of_n(args.k, args.n)

    # A first run has no committed incumbent to recover: seed one (random
    # but constraint-satisfying, so the controller starts from a legal
    # deployment). Reruns recover the journaled incumbent instead.
    incumbent = None
    if not os.path.exists(os.path.join(args.state_dir, INCUMBENT_NAME)):
        incumbent = DeploymentPlan.random(
            topology, structure, rng=args.seed + 5, zone_constraints=constraints
        )
    controller = RedeploymentController(
        search,
        structure,
        args.state_dir,
        incumbent=incumbent,
        zone_constraints=constraints,
        min_gain=args.min_gain,
        degradation_threshold=args.threshold,
        search_seconds=args.search_seconds,
        search_iterations=args.move_budget,
    )

    outage = None
    decisions = []
    try:
        if args.inject_outage is not None:
            # Establish the healthy baseline first, then fail the zone:
            # the controller must *observe* the degradation rather than
            # start inside it (a first check only sets the baseline).
            decisions += controller.run(1)
            outage = ZoneOutage(inventory, args.inject_outage)
            outage.inject()
        decisions += controller.run(args.cycles, poll_seconds=args.poll_seconds)
    finally:
        if outage is not None:
            outage.revert()

    recovery = controller.last_recovery
    document = {
        "format": "redeploy-report",
        "version": 1,
        "zones": args.zones,
        "state_dir": args.state_dir,
        "recovery": serialization.encode(recovery),
        "decisions": serialization.encode(decisions),
        "incumbent": serialization.encode(controller.incumbent),
        "baseline_score": controller.baseline_score,
    }
    lines = [
        f"zones      : {args.zones} x fat-tree(k={args.fabric_k}), "
        f"{len(topology.hosts)} hosts",
        f"recovery   : {recovery.decisions_seen} journaled decision(s), "
        f"{recovery.completed_applies} apply(ies) completed, incumbent "
        f"{'restored' if recovery.incumbent_restored else 'seeded'}",
    ]
    if not decisions:
        lines.append(f"decisions  : none in {args.cycles} cycle(s) — steady")
    for d in decisions:
        detail = f" [{d.event.detail}]" if d.event.detail else ""
        lines.append(
            f"decision {d.decision_id}: {d.event.kind}{detail} -> {d.action} "
            f"(incumbent {d.incumbent_score:.4f}"
            + (
                f", candidate {d.candidate_score:.4f}, gain {d.gain:+.4f}"
                if d.candidate_score is not None
                else ""
            )
            + f", {d.search_attempts} search attempt(s))"
        )
    lines.append(f"incumbent  : {controller.incumbent}")
    if controller.baseline_score is not None:
        lines.append(f"baseline   : {controller.baseline_score:.4f}")
    _emit(args, document, "\n".join(lines))
    if any(d.action == "abandoned" for d in decisions):
        return EXIT_UNSATISFIED
    return EXIT_OK


def cmd_drill(args) -> int:
    from repro.drill.engine import (
        replay_reproducer,
        run_campaign,
        write_verdict,
    )

    if args.replay is not None:
        result = replay_reproducer(args.replay)
        document = serialization.encode(result)
        lines = [
            f"replay     : {args.replay}",
            f"drill      : seed {result.seed}, {len(result.schedule)} "
            f"event(s), {result.ticks} tick(s), {result.crashes} crash(es)",
        ]
        if result.passed:
            lines.append("verdict    : PASS — the failure no longer reproduces")
        else:
            lines.append(
                f"verdict    : REPRODUCED — {len(result.violations)} "
                "invariant violation(s)"
            )
            for violation in result.violations:
                lines.append(f"  {violation.invariant}: {violation.detail}")
        _emit(args, document, "\n".join(lines))
        return EXIT_OK if result.passed else EXIT_DRILL

    report = run_campaign(
        rounds=args.rounds,
        seed=args.seed,
        bug=args.seed_bug,
        shards=args.shards,
        requests=args.requests,
        max_events=args.max_events,
        shrink_failures=not args.no_shrink,
        out_dir=args.out,
    )
    if args.out is not None:
        write_verdict(args.out, report)
    document = serialization.encode(report)
    lines = [
        f"campaign   : {report.rounds_run}/{report.rounds} round(s), "
        f"seed {report.seed}"
        + (f", seeded bug {report.bug!r}" if report.bug else ""),
        f"injected   : {report.total_faults} fault(s), "
        f"{report.total_crashes} simulated crash(es), "
        f"{report.total_submissions} client submission(s)",
    ]
    if report.passed:
        lines.append("verdict    : PASS — zero invariant violations")
    else:
        lines.append(
            f"verdict    : FAIL at round {report.failed_round} "
            f"(drill seed {report.failure.seed})"
        )
        for violation in report.failure.violations:
            lines.append(f"  {violation.invariant}: {violation.detail}")
        if report.shrunk_events is not None:
            lines.append(
                f"shrunk     : {report.original_events} -> "
                f"{report.shrunk_events} event(s) in {report.shrink_runs} "
                "re-run(s)"
            )
        if report.reproducer_path is not None:
            lines.append(f"reproducer : {report.reproducer_path}")
            lines.append(
                f"             re-run: repro drill --replay "
                f"{report.reproducer_path}"
            )
    _emit(args, document, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_DRILL


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="reCloud reproduction: reliable application deployment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def analytic_flags(p):
        p.add_argument(
            "--assessor",
            choices=("sampled", "analytic"),
            default="sampled",
            help="assessment backend: 'sampled' (Monte Carlo dagger "
            "sampling) or 'analytic' (exact fault-tree evaluation where "
            "the relevant closure fits the tractability budget, sampled "
            "fallback elsewhere)",
        )
        p.add_argument(
            "--analytic-state-bits",
            type=int,
            default=20,
            metavar="B",
            help="analytic tractability budget: closures with more than B "
            "uncertain basic events (2**B exact states) fall back to "
            "sampling",
        )

    def common(p, rounds_default=10_000):
        p.add_argument(
            "--scale",
            choices=sorted(PAPER_SCALES),
            default="tiny",
            help="preset data-center scale (Table 2)",
        )
        p.add_argument("--seed", type=int, default=1, help="deterministic seed")
        p.add_argument(
            "--rounds",
            type=int,
            default=rounds_default,
            help="sampling rounds per assessment",
        )
        p.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="collect and print stage timings and cache counters",
        )

    p = sub.add_parser("topology", help="print a data center summary")
    common(p)
    p.set_defaults(handler=cmd_topology)

    p = sub.add_parser("assess", help="assess a concrete plan")
    common(p)
    p.add_argument("--hosts", required=True, help="comma-separated host ids")
    p.add_argument("--k", type=int, required=True, help="instances that must be alive")
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="parallel worker processes (0 = sequential in-process)",
    )
    p.add_argument(
        "--portion-timeout",
        type=float,
        default=None,
        help="per-portion timeout in seconds before a worker is presumed hung",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry attempts per failed portion before degrading",
    )
    p.add_argument(
        "--partial-ok",
        action="store_true",
        help="accept partial results with widened error bounds instead of "
        "recovering failed portions inline",
    )
    analytic_flags(p)
    p.set_defaults(handler=cmd_assess)

    p = sub.add_parser("search", help="search for a reliable plan")
    common(p)
    p.add_argument("--k", type=int, help="instances that must be alive")
    p.add_argument("--n", type=int, help="instances to deploy")
    p.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="T_max budget (default 10; on --resume, default keeps the "
        "checkpoint's budget)",
    )
    p.add_argument(
        "--desired", type=float, default=1.0, help="desired reliability R_desired"
    )
    p.add_argument(
        "--multi-objective",
        action="store_true",
        help="optimise reliability + workload utility (Eq. 7)",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="periodically write a resumable search checkpoint here",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="N",
        help="checkpoint every N search iterations",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume an interrupted search from this checkpoint "
        "(--k/--n/--desired come from the checkpoint)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="B",
        help="candidate neighbours proposed and scored (one shared-CRN "
        "score_plans call) per temperature step; 1 = the classic "
        "one-neighbour loop, bit-identical trajectories",
    )
    p.add_argument(
        "--move-budget",
        type=int,
        default=None,
        metavar="M",
        help="drive the temperature by moves consumed out of M instead of "
        "the wall clock, for host-speed-independent trajectories "
        "(also caps the search at M iterations; the time budget "
        "still applies)",
    )
    analytic_flags(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("risk", help="single-failure risk report for a plan")
    common(p)
    p.add_argument("--hosts", required=True, help="comma-separated host ids")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--top", type=int, default=20, help="entries to print")
    p.set_defaults(handler=cmd_risk)

    p = sub.add_parser("baseline", help="common-practice baselines")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser(
        "serve", help="run the long-lived assessment service over HTTP"
    )
    common(p)
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8321, help="bind port (0 = ephemeral)")
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=8,
        help="bounded admission queue size; further requests are shed",
    )
    p.add_argument(
        "--scheduler-workers",
        type=int,
        default=2,
        help="worker threads executing requests",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline applied to requests that do not set one",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight requests before "
        "cancelling them into anytime results",
    )
    p.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="enable durability: write-ahead request journal + result "
        "store in DIR; accepted requests survive a crash and are "
        "re-executed on restart, completed idempotency keys replay "
        "their stored response",
    )
    p.add_argument(
        "--result-ttl",
        type=float,
        default=7 * 24 * 3600.0,
        metavar="SECONDS",
        help="retention for stored results and sealed journal segments "
        "(default one week)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="debug-level service logs"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard worker processes for the supervised fleet (0 = "
        "single-process thread scheduler); each worker owns a shard of "
        "the idempotency-key space, dead workers are failed over from "
        "the journal and respawned with backoff",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="fleet worker heartbeat period",
    )
    p.add_argument(
        "--heartbeat-misses",
        type=int,
        default=8,
        help="consecutive missed heartbeats before a worker is declared dead",
    )
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser(
        "capacity",
        help="plan the worker fleet size for an SLO under a crash rate",
    )
    p.add_argument(
        "--target-rps", type=float, required=True,
        help="request throughput the fleet must sustain",
    )
    p.add_argument(
        "--per-worker-rps", type=float, required=True,
        help="measured throughput of one shard worker (bench_fleet.py "
        "reports this)",
    )
    p.add_argument(
        "--slo", type=float, default=0.999,
        help="required fleet availability (probability >= k workers alive)",
    )
    p.add_argument(
        "--crash-rate", type=float, default=1.0, metavar="PER_HOUR",
        help="expected worker crashes per hour",
    )
    p.add_argument(
        "--failover-seconds", type=float, default=5.0,
        help="detection + takeover + respawn window per crash",
    )
    p.add_argument(
        "--max-workers", type=int, default=64,
        help="largest fleet size to consider",
    )
    p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p.set_defaults(handler=cmd_capacity)

    p = sub.add_parser(
        "journal", help="inspect a write-ahead journal directory"
    )
    journal_sub = p.add_subparsers(dest="journal_command", required=True)
    p = journal_sub.add_parser(
        "inspect",
        help="print per-request lifecycle and orphan counts (read-only; "
        "safe against a live journal)",
    )
    p.add_argument("directory", help="journal directory to scan")
    p.add_argument(
        "--orphans", action="store_true",
        help="only show non-terminal (orphaned) requests",
    )
    p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p.set_defaults(handler=cmd_journal)

    p = sub.add_parser(
        "redeploy",
        help="watch a multi-zone deployment, redeploy on degradation",
    )
    p.add_argument(
        "--zones", type=int, default=2, help="availability zones to build"
    )
    p.add_argument(
        "--fabric-k",
        type=int,
        default=4,
        help="fat-tree arity k of each zone's fabric",
    )
    p.add_argument("--seed", type=int, default=1, help="deterministic seed")
    p.add_argument(
        "--rounds",
        type=int,
        default=2000,
        help="sampling rounds per assessment",
    )
    p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p.add_argument("--k", type=int, required=True, help="instances that must be alive")
    p.add_argument("--n", type=int, required=True, help="instances to deploy")
    p.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="controller state: decision journal + committed incumbent; "
        "rerunning against the same DIR recovers cleanly after a crash",
    )
    p.add_argument(
        "--primary-zone",
        default=None,
        help="zone treated as primary for --min-outside-primary",
    )
    p.add_argument(
        "--min-outside-primary",
        type=int,
        default=0,
        metavar="K",
        help="require >= K instances placed outside the primary zone",
    )
    p.add_argument(
        "--pin",
        action="append",
        metavar="COMPONENT=ZONE[,ZONE...]",
        help="pin a component's instances to the listed zones (repeatable)",
    )
    p.add_argument(
        "--spread",
        action="append",
        metavar="COMPONENT",
        help="forbid this component's instances from sharing a zone "
        "(repeatable)",
    )
    p.add_argument(
        "--cycles", type=int, default=3, help="watch cycles to run"
    )
    p.add_argument(
        "--poll-seconds",
        type=float,
        default=0.0,
        help="sleep between watch cycles",
    )
    p.add_argument(
        "--search-seconds",
        type=float,
        default=5.0,
        help="T_max budget of each incumbent re-search",
    )
    p.add_argument(
        "--move-budget",
        type=int,
        default=None,
        metavar="M",
        help="cap each re-search at M annealing moves",
    )
    p.add_argument(
        "--min-gain",
        type=float,
        default=0.002,
        help="minimum reliability gain before a candidate is applied",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.005,
        help="reliability drop (vs baseline) that counts as degradation",
    )
    p.add_argument(
        "--inject-outage",
        default=None,
        metavar="ZONE",
        help="chaos: fail ZONE's shared roots for the duration of the run "
        "(demonstrates the outage -> redeploy loop)",
    )
    p.set_defaults(handler=cmd_redeploy)

    p = sub.add_parser(
        "drill",
        help="deterministic whole-stack failure drills "
        "(randomized fault schedules + invariant checks)",
    )
    p.add_argument(
        "--rounds",
        type=int,
        default=30,
        help="random fault schedules to run (stops at the first failure)",
    )
    p.add_argument("--seed", type=int, default=7, help="campaign seed")
    p.add_argument(
        "--shards", type=int, default=3, help="simulated fleet shards"
    )
    p.add_argument(
        "--requests",
        type=int,
        default=10,
        help="client submissions per drill",
    )
    p.add_argument(
        "--max-events",
        type=int,
        default=5,
        help="fault events per random schedule (1..N)",
    )
    p.add_argument(
        "--seed-bug",
        default=None,
        metavar="NAME",
        help="graft a known bug onto every schedule (self-test that the "
        "invariants catch it); see repro.drill.schedule.SEEDED_BUGS",
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run a reproducer JSON instead of a campaign",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for reproducer JSON and the campaign verdict "
        "(default: current directory, verdict not written)",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging the failing schedule",
    )
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(handler=cmd_drill)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print("error: validation failed", file=sys.stderr)
        for field, message in exc.errors:
            print(f"  {field}: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
