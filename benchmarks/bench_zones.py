"""Multi-zone correlated outages and warm-start incumbent re-search.

Two gates for the zone-aware robustness stack:

* ``zone_outage_exact`` — an *exact* (no sampling) small-case check of
  the correlated-failure semantics: on a two-zone data center, every
  fault tree is evaluated deterministically with zone0's shared roots
  (power feed, cooling plant, control plane) failed. A zone0-pinned plan
  must be dead — the zone takes all of its instances with it — while a
  plan honouring the ``min_outside_primary`` constraint must survive via
  its out-of-zone replica. This pins the reason the zone constraints
  exist to ground truth rather than a Monte Carlo estimate.
* ``incumbent_research`` — the redeployment controller's warm start:
  after a zone outage degrades the incumbent, re-searching *from the
  incumbent* with a small move budget must match the quality of a
  from-scratch search given five times the budget, while assessing at
  most half as many plans. Seeds are fixed, so scores, moves and
  assessed-plan counts repeat exactly and are what the gate reads; the
  seconds are recorded as information only (both sides finish in a few
  hundredths of a second, where a wall-clock ratio is host noise).
* ``route_counts`` — what a fixed-seed zone search costs the generic
  route-and-check engine, for a K-of-N walk and a layered web/app/db
  walk. The engine keeps each propagation on the states object it came
  from, so border propagations must equal the states objects that
  answered an external query (the walk's one, plus one per sequential
  assessment), and pair propagations the distinct (states, source)
  pairs. The counts repeat exactly under ``PYTHONHASHSEED`` 0 and 123.

Results land in ``BENCH_zones.json`` at the repo root.

Usage::

    python benchmarks/bench_zones.py            # full run
    python benchmarks/bench_zones.py --smoke    # CI gate

Also runnable under pytest (``pytest benchmarks/bench_zones.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

if __name__ == "__main__":  # standalone: make src/ importable without install
    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from repro.app.structure import EXTERNAL, ApplicationStructure
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan, ZoneConstraints
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.inventory import (
    ZoneOutage,
    build_zone_inventory,
    zone_shared_root_ids,
)
from repro.kernel import AssessmentKernel
from repro.routing import engine_for
from repro.routing.base import RoundStates
from repro.routing.generic import GenericReachabilityEngine
from repro.topology.zones import MultiZoneTopology
from repro.util.metrics import MetricsRegistry

MASTER_SEED = 20170412
#: Work floor of the warm start: the from-scratch search must assess at
#: least this many times the plans the incumbent re-search does.
PLANS_ASSESSED_RATIO_FLOOR = 2.0
#: Warm-start quality slack: the incumbent re-search may trail the
#: from-scratch search by at most this much reliability (seeds are fixed,
#: so in practice the scores are constants; the slack absorbs future
#: re-seeding, not run-to-run noise).
QUALITY_EPSILON = 0.01

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = _REPO_ROOT / "BENCH_zones.json"


def _substrate(zones: int = 2, k: int = 4):
    topology = MultiZoneTopology(zones=zones, k=k, seed=1)
    inventory = build_zone_inventory(topology, seed=2)
    return topology, inventory


# ----------------------------------------------------------------------
# Workload 1: exact correlated-outage check
# ----------------------------------------------------------------------


def _exact_outage_states(topology, inventory, zone: str) -> RoundStates:
    """One deterministic round with ``zone``'s shared roots failed.

    Every graph element's fault tree is evaluated exactly (no sampling),
    compiled, over the one round: the zone's roots are the only failed
    basic events, so an element is effectively down iff its tree reaches
    a root through the attached OR branch — the correlated blast radius,
    derived from the trees themselves rather than asserted.
    """
    failed_row = np.packbits([True])
    outage = dict.fromkeys(zone_shared_root_ids(inventory, zone), failed_row)
    kernel = AssessmentKernel.of(inventory)
    failed = kernel.effective_states(topology.elements, (), outage)
    return RoundStates(rounds=1, failed=failed)


def bench_zone_outage_exact() -> dict:
    topology, inventory = _substrate()
    structure = ApplicationStructure.k_of_n(1, 3)
    zone0 = topology.hosts_in_zone("zone0")
    zone1 = topology.hosts_in_zone("zone1")
    pinned = DeploymentPlan.from_mapping({"app": zone0[:3]})
    spread = DeploymentPlan.from_mapping({"app": [zone0[0], zone0[7], zone1[0]]})
    constraints = ZoneConstraints.from_mapping(
        primary_zone="zone0", min_outside_primary=1
    )

    states = _exact_outage_states(topology, inventory, "zone0")
    evaluator = StructureEvaluator(engine_for(topology))
    pinned_alive = bool(evaluator.evaluate(states, pinned, structure)[0])
    spread_alive = bool(evaluator.evaluate(states, spread, structure)[0])
    blast_radius = int(sum(row.any() for row in states.failed.values()))

    return {
        "workload": "zone_outage_exact",
        "zones": 2,
        "fabric_k": 4,
        "failed_elements": blast_radius,
        "zone_elements": len(topology.zone_elements("zone0")),
        "pinned_satisfies_constraints": constraints.satisfied_by(
            pinned, topology
        ),
        "spread_satisfies_constraints": constraints.satisfied_by(
            spread, topology
        ),
        "pinned_survives": pinned_alive,
        "spread_survives": spread_alive,
    }


# ----------------------------------------------------------------------
# Workload 2: warm-start incumbent re-search vs from-scratch
# ----------------------------------------------------------------------


def _zone_search(topology, inventory, rounds, search_seed, move_budget):
    return DeploymentSearch.from_config(
        topology,
        inventory,
        AssessmentConfig(rounds=rounds, rng=MASTER_SEED),
        rng=search_seed,
        temperature_schedule=MoveBudgetTemperatureSchedule(move_budget),
    )


def bench_incumbent_research(
    rounds: int = 2_000,
    scratch_budget: int = 60,
    incumbent_budget: int = 12,
) -> dict:
    """Race a warm-start re-search against a from-scratch search.

    Both run under the same degraded substrate (zone0 down). The
    from-scratch search gets ``scratch_budget`` annealing moves from a
    random initial plan; the incumbent re-search gets
    ``incumbent_budget`` moves from the pre-outage incumbent — the
    controller's exact situation after a degradation event.
    """
    topology, inventory = _substrate()
    structure = ApplicationStructure.k_of_n(2, 3)
    constraints = ZoneConstraints.from_mapping(
        primary_zone="zone0", min_outside_primary=1
    )

    def spec(budget: int) -> SearchSpec:
        return SearchSpec(
            structure,
            desired_reliability=1.0,
            max_seconds=3_600.0,
            max_iterations=budget,
            zone_constraints=constraints,
        )

    # The incumbent comes from a healthy-substrate search (untimed): the
    # deployment that was optimal before the disaster.
    incumbent = (
        _zone_search(topology, inventory, rounds, MASTER_SEED + 1, 40)
        .search(spec(40))
        .best_plan
    )

    with ZoneOutage(inventory, "zone0"):
        scratch_search = _zone_search(
            topology, inventory, rounds, MASTER_SEED + 2, scratch_budget
        )
        start = time.perf_counter()
        scratch = scratch_search.search(spec(scratch_budget))
        scratch_seconds = time.perf_counter() - start

        warm_search = _zone_search(
            topology, inventory, rounds, MASTER_SEED + 3, incumbent_budget
        )
        start = time.perf_counter()
        warm = warm_search.search(spec(incumbent_budget), initial_plan=incumbent)
        warm_seconds = time.perf_counter() - start

    return {
        "workload": "incumbent_research",
        "rounds": rounds,
        "scratch_budget": scratch_budget,
        "incumbent_budget": incumbent_budget,
        "incumbent_hosts": sorted(incumbent.hosts()),
        "scratch_score": scratch.best_assessment.score,
        "warm_score": warm.best_assessment.score,
        "quality_epsilon": QUALITY_EPSILON,
        "scratch_moves": scratch.iterations,
        "warm_moves": warm.iterations,
        "scratch_plans_assessed": scratch.plans_assessed,
        "warm_plans_assessed": warm.plans_assessed,
        "plans_assessed_ratio": scratch.plans_assessed / warm.plans_assessed,
        "scratch_seconds": scratch_seconds,
        "warm_seconds": warm_seconds,
        "warm_satisfies_constraints": constraints.satisfied_by(
            warm.best_plan, topology
        ),
    }


# ----------------------------------------------------------------------
# Workload 3: the generic engine's propagations over a search
# ----------------------------------------------------------------------


class _CountingEngine(GenericReachabilityEngine):
    """The generic engine, counting its propagations and who asked."""

    def __init__(self, topology):
        super().__init__(topology)
        self.counts = dict.fromkeys(
            ("external_calls", "border_propagations", "pair_calls",
             "pair_propagations"), 0
        )
        self.asked: dict[int, RoundStates] = {}  # held: ids stay distinct
        self.external_states: set[int] = set()
        self.pair_sources: set[tuple[int, str]] = set()

    def _reach_from(self, seeds, table, edge_alive):
        kind = "border" if seeds is self._borders else "pair"
        self.counts[f"{kind}_propagations"] += 1
        return super()._reach_from(seeds, table, edge_alive)

    def external_reachable(self, states, hosts):
        self.asked[id(states)] = states
        self.counts["external_calls"] += 1
        self.external_states.add(id(states))
        return super().external_reachable(states, hosts)

    def pairwise_reachable(self, states, pairs):
        self.asked[id(states)] = states
        self.counts["pair_calls"] += 1
        self.pair_sources.update((id(states), a) for a, _b in pairs)
        return super().pairwise_reachable(states, pairs)


#: Web/app/db tiers behind an external entry: the walk asks for both
#: external and pair reachability.
LAYERED = ApplicationStructure.from_requirement_map(
    {"web": 2, "app": 3, "db": 2},
    {("web", EXTERNAL): 1, ("app", "web"): 1, ("db", "app"): 2},
)


def run_route_counts(rounds: int = 500, moves: int = 20) -> list[dict]:
    """One fixed-seed constrained search per structure, in engine counts.

    Every count is a function of the seeds alone, so all repeat exactly
    across ``PYTHONHASHSEED`` and hosts.
    """
    topology, inventory = _substrate()
    constraints = ZoneConstraints.from_mapping(
        primary_zone="zone0", min_outside_primary=1
    )
    rows = []
    for name, structure in (
        ("k_of_n", ApplicationStructure.k_of_n(3, 4)),
        ("layered", LAYERED),
    ):
        engine = _CountingEngine(topology)
        registry = MetricsRegistry()
        result = DeploymentSearch.from_config(
            topology,
            inventory,
            AssessmentConfig(
                rounds=rounds, rng=MASTER_SEED, engine=engine, metrics=registry
            ),
            rng=MASTER_SEED + 4,
            temperature_schedule=MoveBudgetTemperatureSchedule(moves),
        ).search(
            SearchSpec(
                structure,
                max_seconds=3_600.0,
                max_iterations=moves,
                zone_constraints=constraints,
            )
        )
        rows.append({
            "workload": "route_counts",
            "structure": name,
            "rounds": rounds,
            "moves": moves,
            "plans_assessed": result.plans_assessed,
            "sequential_assessments": int(registry.counter("assess/from_scratch")),
            **engine.counts,
            "external_states": len(engine.external_states),
            "pair_sources": len(engine.pair_sources),
        })
    return rows


def _route_counts_under(hash_seed: str) -> list[dict]:
    """:func:`run_route_counts` in a fresh interpreter under one hash seed."""
    here = pathlib.Path(__file__).resolve().parent
    script = (
        f"import json, sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]; "
        "import bench_zones; print(json.dumps(bench_zones.run_route_counts()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Reporting and gates
# ----------------------------------------------------------------------


def _report(row: dict) -> str:
    if row["workload"] == "route_counts":
        return f"{row['workload']:<18} " + " ".join(
            f"{key}={value}" for key, value in row.items() if key != "workload"
        )
    if row["workload"] == "zone_outage_exact":
        return (
            f"{row['workload']:<18} blast={row['failed_elements']} elements "
            f"pinned={'alive' if row['pinned_survives'] else 'DOWN'} "
            f"spread={'alive' if row['spread_survives'] else 'DOWN'}"
        )
    return (
        f"{row['workload']:<18} scratch={row['scratch_score']:.4f} with "
        f"{row['scratch_moves']} moves / {row['scratch_plans_assessed']} plans "
        f"({row['scratch_seconds']:.2f}s) warm={row['warm_score']:.4f} with "
        f"{row['warm_moves']} moves / {row['warm_plans_assessed']} plans "
        f"({row['warm_seconds']:.2f}s) "
        f"plans ratio={row['plans_assessed_ratio']:.2f}x"
    )


def _check(rows: list[dict]) -> list[str]:
    """Gate failures (empty = all gates met)."""
    exact = next(r for r in rows if r["workload"] == "zone_outage_exact")
    research = next(r for r in rows if r["workload"] == "incumbent_research")
    failures = []
    if exact["pinned_satisfies_constraints"]:
        failures.append("zone0-pinned plan unexpectedly satisfies constraints")
    if not exact["spread_satisfies_constraints"]:
        failures.append("cross-zone spread plan violates constraints")
    if exact["pinned_survives"]:
        failures.append("zone0-pinned plan survived a full zone0 outage")
    if not exact["spread_survives"]:
        failures.append("K-outside-primary plan died with zone0")
    if research["warm_score"] < research["scratch_score"] - QUALITY_EPSILON:
        failures.append(
            f"warm-start quality {research['warm_score']:.4f} trails "
            f"from-scratch {research['scratch_score']:.4f} by more than "
            f"{QUALITY_EPSILON}"
        )
    if research["warm_moves"] > research["incumbent_budget"]:
        failures.append(
            f"incumbent re-search took {research['warm_moves']} moves, over "
            f"its budget of {research['incumbent_budget']}"
        )
    if research["plans_assessed_ratio"] < PLANS_ASSESSED_RATIO_FLOOR:
        failures.append(
            f"from-scratch search assessed only "
            f"{research['plans_assessed_ratio']:.2f}x the plans of the "
            f"incumbent re-search, below the "
            f"{PLANS_ASSESSED_RATIO_FLOOR:.0f}x floor"
        )
    if not research["warm_satisfies_constraints"]:
        failures.append("warm-start result violates the zone constraints")
    for row in (r for r in rows if r["workload"] == "route_counts"):
        walk = f"{row['structure']} walk"
        if not (
            row["border_propagations"]
            == row["external_states"]
            == 1 + row["sequential_assessments"]
        ):
            failures.append(
                f"{walk}: {row['border_propagations']} border propagations for "
                f"{row['external_states']} states objects asked "
                f"(the walk's one + {row['sequential_assessments']} sequential)"
            )
        if row["pair_propagations"] != row["pair_sources"]:
            failures.append(
                f"{walk}: {row['pair_propagations']} pair propagations for "
                f"{row['pair_sources']} distinct (states, source) pairs"
            )
    return failures


def _write_results(rows: list[dict]) -> None:
    payload = {
        "benchmark": "multi-zone correlated outages and incumbent re-search",
        "master_seed": MASTER_SEED,
        "plans_assessed_ratio_floor": PLANS_ASSESSED_RATIO_FLOOR,
        "quality_epsilon": QUALITY_EPSILON,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")


def run_smoke() -> int:
    """CI gate: exact outage semantics, the warm-start work floor and the
    generic engine's propagation counts."""
    counts = _route_counts_under("0")
    assert counts == _route_counts_under("123"), (
        "route counts differ across PYTHONHASHSEED"
    )
    rows = [
        bench_zone_outage_exact(),
        bench_incumbent_research(rounds=1_000, scratch_budget=60,
                                 incumbent_budget=12),
        *counts,
    ]
    for row in rows:
        print(_report(row))
    failures = _check(rows)
    assert not failures, "; ".join(failures)
    _write_results(rows)
    print(
        "smoke OK: zone-pinned plan dies with its zone, constrained plan "
        "survives, warm re-search meets the work floor at equal quality, "
        "one propagation per (states, source)"
    )
    return 0


def run_full(rounds: int, scratch_budget: int, incumbent_budget: int) -> int:
    rows = [
        bench_zone_outage_exact(),
        bench_incumbent_research(
            rounds=rounds,
            scratch_budget=scratch_budget,
            incumbent_budget=incumbent_budget,
        ),
        *run_route_counts(),
    ]
    for row in rows:
        print(_report(row))
    failures = _check(rows)
    for failure in failures:
        print(f"  !! {failure}")
    _write_results(rows)
    return 1 if failures else 0


def test_zones_smoke():
    """Pytest entry point mirroring the CI smoke gate."""
    assert run_smoke() == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: exact outage check, warm-start re-search work floor, "
        "route propagation counts",
    )
    parser.add_argument("--rounds", type=int, default=2_000)
    parser.add_argument("--scratch-budget", type=int, default=60)
    parser.add_argument("--incumbent-budget", type=int, default=12)
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    return run_full(
        rounds=args.rounds,
        scratch_budget=args.scratch_budget,
        incumbent_budget=args.incumbent_budget,
    )


if __name__ == "__main__":
    sys.exit(main())
