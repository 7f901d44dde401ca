"""The operators' common practice and its enhanced variant (§4.2.2).

*Common practice* (learned from the paper's cloud-operator contacts):
deploy the N application instances onto the least-loaded hosts, each host
in a different rack. It has no notion of shared dependencies, so its
redundancy can be silently undermined by, e.g., a power supply feeding
several of the chosen racks.

*Enhanced common practice* (the baseline of Fig. 9): run the vanilla
practice 5 times to generate the top-5 non-repeating plans, and pick the
plan with the most diversified power supplies.
"""

from __future__ import annotations

from repro.core.plan import DeploymentPlan
from repro.faults.dependencies import DependencyModel
from repro.faults.inventory import power_supplies_of_plan
from repro.topology.base import Topology
from repro.util.errors import UnsatisfiableRequirements
from repro.workload.model import HostWorkloadModel


def common_practice_plan(
    topology: Topology,
    workload: HostWorkloadModel,
    instances: int,
    component: str = "app",
    exclude_hosts: frozenset[str] = frozenset(),
) -> DeploymentPlan:
    """Least-loaded hosts, one per rack (the vanilla common practice).

    ``exclude_hosts`` supports generating the "top-5 non-repeating" plans:
    hosts already used by earlier plans are skipped.
    """
    chosen: list[str] = []
    used_racks: set[str] = set()
    for host in workload.rank_least_loaded(topology.hosts):
        if host in exclude_hosts:
            continue
        rack = topology.rack_of(host)
        if rack in used_racks:
            continue
        chosen.append(host)
        used_racks.add(rack)
        if len(chosen) == instances:
            return DeploymentPlan.single_component(chosen, component)
    raise UnsatisfiableRequirements(
        f"cannot place {instances} instances in distinct racks "
        f"({len(chosen)} feasible)"
    )


def top_plans(
    topology: Topology,
    workload: HostWorkloadModel,
    instances: int,
    count: int = 5,
    component: str = "app",
) -> list[DeploymentPlan]:
    """The top-``count`` non-repeating common-practice plans.

    Each run excludes the hosts of all earlier plans, yielding the next
    tier of least-loaded rack-diverse placements.
    """
    plans: list[DeploymentPlan] = []
    excluded: set[str] = set()
    for _ in range(count):
        plan = common_practice_plan(
            topology,
            workload,
            instances,
            component=component,
            exclude_hosts=frozenset(excluded),
        )
        plans.append(plan)
        excluded.update(plan.hosts())
    return plans


def power_diversity(model: DependencyModel, plan: DeploymentPlan) -> int:
    """Number of distinct power supplies feeding the plan's hosts.

    Counted over each host's fault-tree power dependencies; more distinct
    supplies = fewer instances lost to any single power failure.
    """
    supplies = power_supplies_of_plan(model, plan.hosts())
    return len(frozenset().union(*supplies)) if supplies else 0


def enhanced_common_practice_plan(
    topology: Topology,
    workload: HostWorkloadModel,
    dependency_model: DependencyModel,
    instances: int,
    candidate_plans: int = 5,
    component: str = "app",
) -> DeploymentPlan:
    """The enhanced common practice baseline of §4.2.2.

    Generates the top-``candidate_plans`` vanilla plans and returns the one
    with the most diversified power supplies (ties keep the least-loaded,
    i.e. earliest, plan).
    """
    plans = top_plans(topology, workload, instances, candidate_plans, component)
    return max(plans, key=lambda plan: power_diversity(dependency_model, plan))
