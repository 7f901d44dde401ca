"""What-if analysis: which single failures hurt a deployment plan most.

The incidents motivating the paper (§1) were all single shared-dependency
events — a power disruption, a storage-tier error — taking down many
"redundant" instances at once. This module quantifies exactly that for a
concrete plan: for every component in the plan's relevant closure it
answers *"if only this fails, how many instances go down, and does the
application survive?"*, producing a ranked risk report similar in spirit
to INDaaS's risk groups but instance-accurate and structure-aware.

The provider can use the report to justify a plan to a developer ("no
single power supply takes out more than one instance") or to pick which
dependency to pay down first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan
from repro.faults.dependencies import DependencyModel
from repro.routing.base import ReachabilityEngine, RoundStates, engine_for
from repro.topology.base import Topology


@dataclass(frozen=True, slots=True)
class RiskEntry:
    """Impact of one component failing alone.

    Attributes:
        component_id: The failing component (network element or shared
            dependency such as a power supply or OS image).
        component_type: Its type name.
        failure_probability: Its per-window failure probability.
        instances_lost: How many application instances become inactive.
        components_degraded: Application components that lose at least
            one instance.
        application_down: Whether the loss violates some requirement
            ``K_{Ci,Cj}`` — i.e. this component alone is a single point
            of failure for the whole application.
        expected_loss: ``failure_probability * instances_lost`` — the
            expected number of instance-failures per window attributable
            to this component; the default ranking key.
    """

    json_properties = ("expected_loss",)

    component_id: str
    component_type: str
    failure_probability: float
    instances_lost: int
    components_degraded: tuple[str, ...]
    application_down: bool

    @property
    def expected_loss(self) -> float:
        return self.failure_probability * self.instances_lost


class RiskAnalyzer:
    """Single-failure impact analysis for deployment plans."""

    def __init__(
        self,
        topology: Topology,
        dependency_model: DependencyModel | None = None,
        engine: ReachabilityEngine | None = None,
    ):
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)
        self.engine = engine or engine_for(topology)
        self._evaluator = StructureEvaluator(self.engine)

    # ------------------------------------------------------------------

    def _closure(self, plan: DeploymentPlan) -> tuple[set[str], set[str]]:
        elements = self.engine.relevant_elements(plan.hosts())
        subjects = {cid for cid in elements if cid in self.topology.graph}
        candidates = set(elements)
        candidates.update(self.dependency_model.basic_events_for(subjects))
        return subjects, candidates

    def _active_counts(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        subjects: set[str],
        failed_components: frozenset[str],
    ) -> dict[str, int]:
        """Active instances per application component in the one round
        where exactly these base components have failed."""
        failed_row = np.packbits([True])
        failed_states: dict[str, np.ndarray] = {}
        for subject in subjects:
            tree = self.dependency_model.tree_for(subject)
            if tree.basic_events() & failed_components:
                if tree.evaluate_round(failed_components):
                    failed_states[subject] = failed_row
        for cid in failed_components:
            # Links (and any element without a fault tree entry) fail as
            # themselves.
            if cid in self.topology.components and cid not in failed_states:
                failed_states[cid] = failed_row
        states = RoundStates(1, failed_states)
        active = self._evaluator.active_instances(states, plan, structure)
        return {name: int(states.unpack(m).sum()) for name, m in active.items()}

    def what_if(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        failed_components,
    ) -> tuple[bool, dict[str, int]]:
        """Outcome of a concrete failure scenario.

        Returns ``(application_survives, active_instances_per_component)``
        for the single round in which exactly ``failed_components`` have
        failed.
        """
        plan.validate_against(self.topology, structure)
        subjects, _ = self._closure(plan)
        counts = self._active_counts(
            plan, structure, subjects, frozenset(failed_components)
        )
        survives = all(
            counts[req.component] >= req.min_reachable
            for req in structure.requirements
        )
        return survives, counts

    def report(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        include_network_elements: bool = True,
    ) -> list[RiskEntry]:
        """Single-failure risk entries, worst first.

        Entries are ranked by (application down, expected loss, instances
        lost). Components whose lone failure loses no instance are
        omitted — their risk is already captured by the instances' own
        entries.
        """
        plan.validate_against(self.topology, structure)
        subjects, candidates = self._closure(plan)
        if not include_network_elements:
            candidates = {
                cid for cid in candidates if cid not in self.topology.components
            }

        baseline = self._active_counts(plan, structure, subjects, frozenset())

        entries = []
        for cid in sorted(candidates):
            active = self._active_counts(plan, structure, subjects, frozenset((cid,)))
            lost = 0
            degraded = []
            for name, count in active.items():
                delta = baseline[name] - count
                if delta > 0:
                    degraded.append(name)
                    lost += delta
            if lost == 0:
                continue
            down = any(
                active[req.component] < req.min_reachable
                for req in structure.requirements
            )
            component = self.dependency_model.component(cid)
            entries.append(
                RiskEntry(
                    component_id=cid,
                    component_type=component.component_type.value,
                    failure_probability=component.failure_probability,
                    instances_lost=lost,
                    components_degraded=tuple(sorted(degraded)),
                    application_down=down,
                )
            )
        entries.sort(
            key=lambda e: (e.application_down, e.expected_loss, e.instances_lost),
            reverse=True,
        )
        return entries

    def single_points_of_failure(
        self, plan: DeploymentPlan, structure: ApplicationStructure
    ) -> list[RiskEntry]:
        """Only the entries whose lone failure takes the application down."""
        return [e for e in self.report(plan, structure) if e.application_down]

    def max_instances_lost_to_one_failure(
        self, plan: DeploymentPlan, structure: ApplicationStructure
    ) -> int:
        """The plan's worst-case blast radius for any single failure."""
        entries = self.report(plan, structure)
        return max((e.instances_lost for e in entries), default=0)
