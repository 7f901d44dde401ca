"""Analytic assessor: exactness versus enumeration, hybrid-search payoff.

Two gates for the exact fault-tree evaluation backend:

* ``analytic_exactness`` — the analytic assessor's plan scores must match
  an independent ``2**n`` brute-force enumeration (pure-Python tree
  evaluation through the legacy dense pipeline) to within ``1e-9`` on
  real fat-tree closures, while running orders of magnitude faster than
  the enumeration oracle. This pins the compiled evaluator — shared-root
  conditioning, Poisson-binomial k-of-n propagation, packed reachability
  — to ground truth.
* ``hybrid_search`` — the exact-screen search (``mode="analytic"``)
  against the incremental CRN sampled search. Exact screening is an
  infinite-round sampler, so the sampled baseline is run over a ladder of
  rounds budgets and the analytic search's mean winner quality (ground
  truth of the returned plan) must be no worse than every rung's (zero
  quality regression). What the exact screen costs is gated by counts
  that repeat exactly: the share of its assessments decided with no
  sampler entered (no ``sampling.start`` seam hit for them), and its
  function calls (``sys.setprofile``) against the sampled search's at the
  base budget — an exact decision is Python dispatch over the closure's
  joint states and must stay within a fixed multiple of a sampled one's.
  Seconds — both searches', each the median of ``TIMING_REPEATS``
  repeats alternating analytic and sampled, and the equal-quality speedup
  over the cheapest rung that matches the analytic quality, or over the
  top rung as a lower bound when none does, with its interquartile range
  over the repeats — are recorded, never asserted: the two searches'
  wall-clock ratio moves with every speed-up of either.

Results land in ``BENCH_analytic.json`` at the repo root.

Usage::

    python benchmarks/bench_analytic.py            # full run
    python benchmarks/bench_analytic.py --smoke    # CI gate

Also runnable under pytest (``pytest benchmarks/bench_analytic.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import dataclass

_ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # standalone: make src/ importable without install
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT / "benchmarks"))
# The interpreted tree evaluator lives with the test oracles.
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

import numpy as np

from common import count_calls
from repro.app.structure import ApplicationStructure
from repro.core.analytic import AnalyticAssessor
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.inventory import build_paper_inventory
from repro.faults.probability import PaperProbabilityPolicy
from repro.routing.base import RoundStates, engine_for
from repro.topology.base import ComponentType
from repro.topology.fattree import FatTreeTopology
from repro.util.faultpoints import FaultPoints, armed
from repro.util.metrics import MetricsRegistry
from tests.interpreted_oracle import closure_ids, evaluate_round

MASTER_SEED = 20170412
#: Plan scores are dot products of ~2**15-entry float64 vectors; 1e-9
#: leaves three orders of magnitude of slack over accumulated rounding.
EXACTNESS_TOLERANCE = 1e-9
#: Share of the analytic search's assessments that must be decided
#: exactly (measured: 1.0 — the hardened core keeps every closure inside
#: the state budget).
EXACT_SHARE_FLOOR = 0.9
#: Function calls the exact-screen search may make per call of the sampled
#: search at the base budget (measured: 1.42).
CALLS_RATIO_CEILING = 2.0
#: Winner-quality comparisons are between exact ground-truth reliabilities
#: of deterministic plans — the epsilon only absorbs float dot-product
#: rounding, not sampling noise.
QUALITY_EPSILON = 1e-12
#: Timed runs of each search per seed; a search's seconds are the median.
TIMING_REPEATS = 3

RESULTS_PATH = _ROOT / "BENCH_analytic.json"


@dataclass(frozen=True)
class HardenedCorePolicy(PaperProbabilityPolicy):
    """Paper probabilities with an infallible core/border layer.

    Hardening the core keeps every 3-replica closure inside the analytic
    state budget (~15 uncertain events instead of ~25), so the search
    workload measures the hybrid exact screen rather than its sampled
    fallback. The aggregation/edge layers and hosts keep the paper's
    stochastic failure model.
    """

    def probabilities(self, types, rng):
        hardened = (ComponentType.CORE_SWITCH, ComponentType.BORDER_SWITCH)
        stochastic = [i for i, ctype in enumerate(types) if ctype not in hardened]
        result = np.zeros(len(types))
        result[stochastic] = super().probabilities([types[i] for i in stochastic], rng)
        return result


# ----------------------------------------------------------------------
# Workload 1: plan-level exactness against brute-force enumeration
# ----------------------------------------------------------------------


def _brute_force_score(assessor, plan, structure) -> float:
    """Independent ``2**n`` oracle through the legacy dense pipeline."""
    topology = assessor.topology
    model = assessor.dependency_model
    subjects, sampled = closure_ids(assessor.inner, plan)
    probabilities = model.failure_probabilities()
    uncertain = [c for c in sorted(sampled) if 0.0 < probabilities[c] < 1.0]
    certain = {c for c in sampled if probabilities[c] >= 1.0}
    n = 1 << len(uncertain)
    failed_sets = [
        {uncertain[i] for i in range(len(uncertain)) if (s >> i) & 1} | certain
        for s in range(n)
    ]
    failed: dict[str, np.ndarray] = {}
    for sid in sorted(subjects):
        tree = model.tree_for(sid)
        vector = np.fromiter(
            (evaluate_round(tree, fs) for fs in failed_sets), dtype=bool, count=n
        )
        if vector.any():
            failed[sid] = vector
    for cid in sorted(sampled - set(subjects)):
        if cid in model.trees or cid not in topology.components:
            continue
        vector = np.fromiter((cid in fs for fs in failed_sets), dtype=bool, count=n)
        if vector.any():
            failed[cid] = vector
    packed = {cid: np.packbits(vector) for cid, vector in failed.items()}
    states = RoundStates(rounds=n, failed=packed)
    phi = StructureEvaluator(engine_for(topology)).evaluate(states, plan, structure)
    weights = np.ones(n, dtype=np.float64)
    arange = np.arange(n, dtype=np.int64)
    for i, cid in enumerate(uncertain):
        p = probabilities[cid]
        fired = ((arange >> i) & 1).astype(bool)
        weights *= np.where(fired, p, 1.0 - p)
    return float(np.dot(weights, phi))


def bench_analytic_exactness() -> dict:
    """Analytic scores vs brute force on same-rack/cross-rack/cross-pod."""
    topology = FatTreeTopology(4, seed=5)
    model = build_paper_inventory(topology, power_supplies=3, seed=9)
    structure = ApplicationStructure.k_of_n(1, 2)
    app = structure.components[0].name
    config = AssessmentConfig(
        rounds=1_000, master_seed=MASTER_SEED, mode="analytic"
    )
    assessor = AnalyticAssessor.from_config(topology, model, config)

    cases = {
        "same_rack": ["host/0/0/0", "host/0/0/1"],
        "cross_rack": ["host/0/0/0", "host/0/1/0"],
        "cross_pod": ["host/0/0/0", "host/1/1/0"],
    }
    rows = []
    for label, hosts in cases.items():
        plan = DeploymentPlan.single_component(hosts, app)
        start = time.perf_counter()
        result = assessor.assess(plan, structure)
        analytic_seconds = time.perf_counter() - start
        start = time.perf_counter()
        oracle = _brute_force_score(assessor, plan, structure)
        oracle_seconds = time.perf_counter() - start
        rows.append(
            {
                "case": label,
                "hosts": hosts,
                "exact": result.estimate.exact,
                "analytic_score": result.estimate.score,
                "oracle_score": oracle,
                "abs_diff": abs(result.estimate.score - oracle),
                "uncertain_events": int(result.sampled_components),
                "analytic_seconds": analytic_seconds,
                "oracle_seconds": oracle_seconds,
            }
        )
    return {
        "workload": "analytic_exactness",
        "tolerance": EXACTNESS_TOLERANCE,
        "max_abs_diff": max(r["abs_diff"] for r in rows),
        "cases": rows,
    }


# ----------------------------------------------------------------------
# Workload 2: hybrid exact-screen search vs sampled baseline ladder
# ----------------------------------------------------------------------


def _search_substrate():
    topology = FatTreeTopology(4, seed=1, probability_policy=HardenedCorePolicy())
    model = build_paper_inventory(topology, power_supplies=3, seed=2)
    return topology, model


def _run_search(
    mode: str, structure, rounds: int, moves: int, seed: int, metrics=None
):
    topology, model = _search_substrate()
    config = AssessmentConfig(
        rounds=rounds,
        # The confirmations' own stream, seeded so that a search (and the
        # calls it makes) repeats exactly.
        rng=seed + 1_000,
        master_seed=MASTER_SEED,
        mode=mode,
        metrics=metrics,
    )
    search = DeploymentSearch.from_config(
        topology,
        model,
        config=config,
        rng=seed,
        batch_size=2,
        temperature_schedule=MoveBudgetTemperatureSchedule(moves),
    )
    spec = SearchSpec(
        structure=structure,
        max_seconds=3_600.0,
        max_iterations=moves,
        forbid_shared_rack=True,
    )
    start = time.perf_counter()
    result = search.search(spec)
    return time.perf_counter() - start, result.best_plan


def _ground_truth(plan, structure) -> float:
    """Exact reliability of a winner, from a generously-budgeted assessor."""
    topology, model = _search_substrate()
    config = AssessmentConfig(
        rounds=1_000,
        master_seed=1,
        mode="analytic",
        analytic_state_bits=22,
    )
    assessor = AnalyticAssessor.from_config(topology, model, config)
    result = assessor.assess(plan, structure)
    if not result.estimate.exact:
        raise RuntimeError(
            f"ground-truth closure for {sorted(plan.hosts())} not tractable: "
            f"{assessor.explain(plan)}"
        )
    return result.estimate.score


def _search_counts(structure, rounds: int, moves: int, seeds) -> dict:
    """What the exact screen decides and costs, in counts that repeat.

    Per seed, one analytic and one sampled search under ``sys.setprofile``
    (so not the runs that are timed): how many assessments the analytic
    search decided exactly and how many it declined to the sampler, the
    ``sampling.start`` seam hits it made — a declined assessment enters a
    sampler at most once, an exact one never — and both searches'
    function calls.
    """
    exact = declined = sampler_entries = analytic_calls = sampled_calls = 0
    for seed in seeds:
        registry = MetricsRegistry()
        with armed(FaultPoints()) as seams:
            analytic_calls += count_calls(
                lambda: _run_search("analytic", structure, rounds, moves, seed, registry)
            )
        sampler_entries += seams.counters.get("sampling.start", 0)
        exact += int(
            registry.counter("analytic/exact") + registry.counter("analytic/exact_hit")
        )
        declined += int(registry.counter("analytic/declined"))
        sampled_calls += count_calls(
            lambda: _run_search("incremental", structure, rounds, moves, seed)
        )
    return {
        "exact_assessments": exact,
        "declined_assessments": declined,
        "exact_share": exact / max(exact + declined, 1),
        "sampler_entries": sampler_entries,
        "analytic_calls": analytic_calls,
        "sampled_calls": sampled_calls,
        "calls_ratio": analytic_calls / max(sampled_calls, 1),
    }


def _timed_searches(structure, searches, moves: int, seeds) -> tuple[dict, dict]:
    """Per-repeat seconds and the winners of every ``(mode, rounds)`` search.

    Each of :data:`TIMING_REPEATS` repeats runs every search once per
    seed, the analytic one first and the sampled rungs after it, seed by
    seed, so host drift lands on both sides alike. A repeat's seconds for
    a search are its mean over the seeds. A search repeats exactly, so
    the first repeat's winner stands for all of them.
    """
    seconds = {search: [] for search in searches}
    winners: dict = {}
    for _ in range(TIMING_REPEATS):
        totals = dict.fromkeys(searches, 0.0)
        for seed in seeds:
            for mode, rounds in searches:
                elapsed, winner = _run_search(mode, structure, rounds, moves, seed)
                totals[mode, rounds] += elapsed
                winners.setdefault((mode, rounds, seed), winner)
        for search, total in totals.items():
            seconds[search].append(total / len(seeds))
    return seconds, winners


def _iqr(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 75])]


def bench_hybrid_search(
    moves: int = 300,
    seeds: tuple[int, ...] = (7, 8, 9),
    ladder: tuple[int, ...] = (10_000, 40_000, 160_000),
    fallback_rounds: int = 10_000,
) -> dict:
    """The exact screen against the sampled search: quality, counts, time.

    Both searches run the same annealing loop (same move budget, batch
    size, proposal seeds); only the assessment differs. Winner quality is
    the ground-truth reliability of the returned plan, so a quality
    comparison between the two searches is exact, not estimated. A
    search's seconds are the median of its repeats (see
    :func:`_timed_searches`); ``speedup_iqr`` is the interquartile range
    of the per-repeat speedups.
    """
    structure = ApplicationStructure.k_of_n(2, 3)
    analytic = ("analytic", fallback_rounds)
    sampled = [("incremental", rounds) for rounds in ladder]
    seconds, winners = _timed_searches(structure, [analytic, *sampled], moves, seeds)

    def mean_quality(mode, rounds) -> float:
        truths = [_ground_truth(winners[mode, rounds, s], structure) for s in seeds]
        return float(np.mean(truths))

    analytic_mean_quality = mean_quality(*analytic)
    rungs = []
    for search in sampled:
        quality = mean_quality(*search)
        rungs.append(
            {
                "rounds": search[1],
                "seconds": float(np.median(seconds[search])),
                "seconds_iqr": _iqr(seconds[search]),
                "mean_quality": quality,
                "matches_analytic": quality >= analytic_mean_quality - QUALITY_EPSILON,
            }
        )

    matched = [r for r in rungs if r["matches_analytic"]]
    if matched:
        equal_quality = min(matched, key=lambda r: r["seconds"])
        equal_quality_bound = "matched"
    else:
        # No budget on the ladder matched the exact screen's quality; the
        # top rung's cost under-states the true equal-quality cost.
        equal_quality = rungs[-1]
        equal_quality_bound = "lower-bound"
    equal_quality_times = seconds["incremental", equal_quality["rounds"]]
    analytic_seconds = float(np.median(seconds[analytic]))

    return {
        "workload": "hybrid_search",
        "structure": "2-of-3",
        "moves": moves,
        "seeds": list(seeds),
        "timing_repeats": TIMING_REPEATS,
        "fallback_rounds": fallback_rounds,
        "sampled_baseline": "incremental CRN search",
        "analytic_seconds": analytic_seconds,
        "analytic_seconds_iqr": _iqr(seconds[analytic]),
        "analytic_mean_quality": analytic_mean_quality,
        "rungs": rungs,
        "equal_quality_seconds": equal_quality["seconds"],
        "equal_quality_bound": equal_quality_bound,
        "speedup": equal_quality["seconds"] / max(analytic_seconds, 1e-12),
        "speedup_iqr": _iqr(
            [
                rung / max(exact, 1e-12)
                for rung, exact in zip(equal_quality_times, seconds[analytic])
            ]
        ),
        **_search_counts(structure, fallback_rounds, moves, seeds),
    }


# ----------------------------------------------------------------------
# Reporting and gates
# ----------------------------------------------------------------------


def _report(row: dict) -> str:
    if row["workload"] == "analytic_exactness":
        worst = max(row["cases"], key=lambda c: c["abs_diff"])
        ratio = worst["oracle_seconds"] / max(worst["analytic_seconds"], 1e-9)
        return (
            f"{row['workload']:<18} max|diff|={row['max_abs_diff']:.2e} over "
            f"{len(row['cases'])} plans; worst case {worst['case']} "
            f"({worst['uncertain_events']} events) analytic "
            f"{worst['analytic_seconds'] * 1e3:.1f}ms vs enumeration "
            f"{worst['oracle_seconds']:.2f}s ({ratio:.0f}x)"
        )
    rung_text = " ".join(
        f"{r['rounds'] // 1000}k={r['mean_quality']:.6f}@{r['seconds']:.2f}s"
        for r in row["rungs"]
    )
    return (
        f"{row['workload']:<18} analytic {row['analytic_mean_quality']:.6f}@"
        f"{row['analytic_seconds']:.2f}s vs sampled [{rung_text}] "
        f"equal-quality speedup {row['speedup']:.2f}x "
        f"(IQR {row['speedup_iqr'][0]:.2f}-{row['speedup_iqr'][1]:.2f}x) "
        f"({row['equal_quality_bound']}, recorded); "
        f"{row['exact_assessments']}/"
        f"{row['exact_assessments'] + row['declined_assessments']} assessments "
        f"exact, {row['sampler_entries']} sampler entries, "
        f"{row['calls_ratio']:.2f}x the sampled search's calls"
    )


def _check(rows: list[dict]) -> list[str]:
    """Gate failures (empty = all gates met)."""
    exact = next(r for r in rows if r["workload"] == "analytic_exactness")
    search = next(r for r in rows if r["workload"] == "hybrid_search")
    failures = []
    for case in exact["cases"]:
        if not case["exact"]:
            failures.append(
                f"exactness case {case['case']} fell back to sampling"
            )
    if exact["max_abs_diff"] > EXACTNESS_TOLERANCE:
        failures.append(
            f"analytic deviates from enumeration by {exact['max_abs_diff']:.2e} "
            f"(tolerance {EXACTNESS_TOLERANCE:.0e})"
        )
    for rung in search["rungs"]:
        if (
            search["analytic_mean_quality"]
            < rung["mean_quality"] - QUALITY_EPSILON
        ):
            failures.append(
                f"analytic winner quality {search['analytic_mean_quality']:.9f} "
                f"trails the {rung['rounds']}-round sampled search "
                f"({rung['mean_quality']:.9f})"
            )
    if search["exact_share"] < EXACT_SHARE_FLOOR:
        failures.append(
            f"only {search['exact_share']:.2%} of the analytic search's "
            f"assessments were exact (floor {EXACT_SHARE_FLOOR:.0%})"
        )
    if search["sampler_entries"] > search["declined_assessments"]:
        failures.append(
            f"{search['sampler_entries']} sampler entries for "
            f"{search['declined_assessments']} declined assessments: an exact "
            "decision sampled"
        )
    if search["calls_ratio"] > CALLS_RATIO_CEILING:
        failures.append(
            f"the exact-screen search makes {search['calls_ratio']:.2f}x the "
            f"sampled search's function calls (ceiling {CALLS_RATIO_CEILING}x)"
        )
    return failures


def _write_results(rows: list[dict]) -> None:
    payload = {
        "benchmark": "analytic exactness and hybrid exact-screen search",
        "master_seed": MASTER_SEED,
        "exactness_tolerance": EXACTNESS_TOLERANCE,
        "exact_share_floor": EXACT_SHARE_FLOOR,
        "calls_ratio_ceiling": CALLS_RATIO_CEILING,
        "quality_epsilon": QUALITY_EPSILON,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")


def run_smoke() -> int:
    """CI gate: exactness vs enumeration plus the hybrid search's counts."""
    rows = [
        bench_analytic_exactness(),
        bench_hybrid_search(
            moves=200, seeds=(7, 8), ladder=(10_000, 160_000)
        ),
    ]
    for row in rows:
        print(_report(row))
    failures = _check(rows)
    assert not failures, "; ".join(failures)
    _write_results(rows)
    print(
        "smoke OK: analytic matches the 2**n enumeration and the exact "
        "screen decides without sampling, inside its call budget"
    )
    return 0


def run_full(moves: int) -> int:
    rows = [
        bench_analytic_exactness(),
        bench_hybrid_search(
            moves=moves,
            seeds=(7, 8, 9),
            ladder=(10_000, 40_000, 160_000, 320_000),
        ),
    ]
    for row in rows:
        print(_report(row))
    failures = _check(rows)
    for failure in failures:
        print(f"  !! {failure}")
    _write_results(rows)
    return 1 if failures else 0


def test_analytic_smoke():
    """Pytest entry point mirroring the CI smoke gate."""
    assert run_smoke() == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: exactness check + the hybrid search's quality and counts",
    )
    parser.add_argument("--moves", type=int, default=300)
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    return run_full(moves=args.moves)


if __name__ == "__main__":
    sys.exit(main())
