"""Fleet capacity planning: how many workers to meet an SLO.

The paper's thesis applied to ourselves: the worker fleet is a
deployment whose reliability we can *assess* instead of guess. A fleet
of ``n`` workers serves its target load while at least ``k`` of them are
alive, where ``k`` is fixed by throughput; each worker is independently
unavailable for the failover window around every crash. That is exactly
a K-of-N fault tree over worker basic events, so the planner reuses the
repository's own assessment machinery: the analytic evaluator
(:func:`~repro.kernel.exact.exact_tree_probability`), whose
Poisson-binomial propagation handles a K-of-N gate over *any* fleet size
in ``O(n * k)``. A fleet tree shares no events between branches, which is
the evaluator's only reason to decline, so every fleet size is exact.
The planner recommends the smallest ``n`` whose availability meets the
SLO.

PCRAFT (PAPERS.md) frames the same question for stateless VM fleets;
``benchmarks/bench_fleet.py`` closes the loop by confirming the
recommended count under real kill -9 chaos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.faults.faulttree import FaultTree, basic, k_of_n_gate
from repro.kernel.exact import exact_tree_probability
from repro.util.errors import ConfigurationError, ValidationError


def worker_unavailability(
    crash_rate_per_hour: float, failover_seconds: float
) -> float:
    """Steady-state probability that one worker is down.

    Every crash costs one failover window (detection + journal takeover
    + respawn backoff) during which the worker serves nothing; crashes
    at ``crash_rate_per_hour`` therefore leave the worker unavailable
    for ``rate * window`` seconds of every hour.
    """
    if crash_rate_per_hour < 0:
        raise ConfigurationError("crash rate must be >= 0")
    if failover_seconds < 0:
        raise ConfigurationError("failover window must be >= 0")
    return min(1.0, crash_rate_per_hour * failover_seconds / 3600.0)


def fleet_fault_tree(workers: int, k_required: int) -> FaultTree:
    """The fleet's own fault tree: down when fewer than ``k`` survive.

    ``n - k + 1`` worker failures take the fleet below its required
    capacity — the same K-of-N gate shape the paper uses for application
    deployments, with shard workers as the basic events.
    """
    if workers < 1:
        raise ConfigurationError("fleet needs at least one worker")
    if not 1 <= k_required <= workers:
        raise ConfigurationError(
            f"k_required={k_required} must be within [1, {workers}]"
        )
    events = [basic(f"worker-{i}") for i in range(workers)]
    return FaultTree(
        subject_id=f"fleet-{workers}",
        root=k_of_n_gate(workers - k_required + 1, *events),
    )


@dataclass(frozen=True)
class CandidateFleet:
    """One evaluated fleet size."""

    workers: int
    availability: float
    availability_lower: float  # == availability: the evaluation is exact
    method: str  # "analytic"
    meets_slo: bool


@dataclass(frozen=True)
class FleetCapacityPlan:
    """The planner's answer, JSON-ready for the CLI."""

    target_rps: float
    per_worker_rps: float
    k_required: int
    slo: float
    crash_rate_per_hour: float
    failover_seconds: float
    worker_unavailability: float
    recommended_workers: int | None = field(metadata={"json_null": True})
    candidates: tuple[CandidateFleet, ...] = field(default_factory=tuple)

    @property
    def satisfiable(self) -> bool:
        return self.recommended_workers is not None


def assess_fleet(
    workers: int, k_required: int, unavailability: float
) -> CandidateFleet:
    """Availability of one fleet size, analytically exact for any size.

    Independent workers under one K-of-N gate need no conditioning, so
    the analytic evaluator's Poisson-binomial propagation is exact in
    ``O(n * k)`` regardless of fleet size.
    """
    tree = fleet_fault_tree(workers, k_required)
    probabilities = {f"worker-{i}": unavailability for i in range(workers)}
    availability = 1.0 - exact_tree_probability(tree, probabilities)
    return CandidateFleet(
        workers=workers,
        availability=availability,
        availability_lower=availability,
        method="analytic",
        meets_slo=False,  # decided by the caller against the SLO
    )


def plan_capacity(
    target_rps: float,
    per_worker_rps: float,
    slo: float,
    crash_rate_per_hour: float,
    failover_seconds: float,
    max_workers: int = 64,
) -> FleetCapacityPlan:
    """Smallest worker count meeting both throughput and availability.

    ``k = ceil(target_rps / per_worker_rps)`` workers are needed just to
    carry the load; spares are added until the K-of-N availability —
    evaluated with the repo's own fault-tree assessor — reaches ``slo``
    or ``max_workers`` is exhausted (``recommended_workers=None``).
    """
    errors = [
        (name, f"must be finite and > 0, got {rate}")
        for name, rate in (("target_rps", target_rps), ("per_worker_rps", per_worker_rps))
        if not (math.isfinite(rate) and rate > 0)
    ]
    if not errors and not math.isfinite(target_rps / per_worker_rps):
        errors.append(
            ("k_required", "not representable: target_rps / per_worker_rps overflows")
        )
    if not 0.0 < slo < 1.0:
        errors.append(("slo", f"must be in (0, 1), got {slo}"))
    for name, value in (
        ("crash_rate_per_hour", crash_rate_per_hour),
        ("failover_seconds", failover_seconds),
    ):
        if not (math.isfinite(value) and value >= 0):
            errors.append((name, f"must be finite and >= 0, got {value}"))
    if max_workers < 1:
        errors.append(("max_workers", f"must be >= 1, got {max_workers}"))
    if errors:
        raise ValidationError(errors)
    k_required = max(1, math.ceil(target_rps / per_worker_rps))
    unavailability = worker_unavailability(crash_rate_per_hour, failover_seconds)
    candidates: list[CandidateFleet] = []
    recommended: int | None = None
    for workers in range(k_required, max_workers + 1):
        candidate = assess_fleet(workers, k_required, unavailability)
        meets = candidate.availability_lower >= slo
        candidate = CandidateFleet(
            workers=candidate.workers,
            availability=candidate.availability,
            availability_lower=candidate.availability_lower,
            method=candidate.method,
            meets_slo=meets,
        )
        candidates.append(candidate)
        if meets:
            recommended = workers
            break
    return FleetCapacityPlan(
        target_rps=target_rps,
        per_worker_rps=per_worker_rps,
        k_required=k_required,
        slo=slo,
        crash_rate_per_hour=crash_rate_per_hour,
        failover_seconds=failover_seconds,
        worker_unavailability=unavailability,
        recommended_workers=recommended,
        candidates=tuple(candidates),
    )
