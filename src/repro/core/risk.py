"""What-if analysis: which single failures hurt a deployment plan most.

The incidents motivating the paper (§1) were all single shared-dependency
events — a power disruption, a storage-tier error — taking down many
"redundant" instances at once. This module quantifies exactly that for a
concrete plan: for every component in the plan's relevant closure it
answers *"if only this fails, how many instances go down, and does the
application survive?"*, producing a ranked risk report similar in spirit
to INDaaS's risk groups but instance-accurate and structure-aware.

Each answer is one pass of the assessment pipeline over explicit
scenarios instead of sampled rounds, through the same
:func:`~repro.core.evaluation.scenario_states`,
:meth:`~repro.core.evaluation.StructureEvaluator.counts` and
:func:`~repro.core.evaluation.reliable` a sampled batch goes through:
round 0 fails nothing and round ``i`` fails the closure's candidate ``i``
alone, so one compiled fault-tree evaluation and one route-and-check over
``1 + C`` packed rounds price every single failure. A what-if is the same
pass over one round.

The provider can use the report to justify a plan to a developer ("no
single power supply takes out more than one instance") or to pick which
dependency to pay down first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.evaluation import StructureEvaluator, reliable, scenario_states
from repro.core.plan import DeploymentPlan
from repro.faults.dependencies import DependencyModel
from repro.kernel import PACK_DTYPE, AssessmentKernel, packed_width
from repro.routing.base import engine_for
from repro.topology.base import Topology
from repro.util.errors import ValidationError


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
        self, topology: Topology, dependency_model: DependencyModel | None = None
    ):
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)
        self.engine = engine_for(topology)
        self._evaluator = StructureEvaluator(self.engine)

    # ------------------------------------------------------------------

    def _known(self, failed) -> frozenset[str]:
        """The failure set, rejecting a bare string and every id that is
        neither a topology component nor a dependency."""
        if isinstance(failed, str):
            message = f"expected a collection of ids, got the string {failed!r}"
            raise ValidationError([("failed_components", message)])
        failed = frozenset(failed)
        dependencies = self.dependency_model.dependency_components
        unknown = sorted(
            cid for cid in failed
            if cid not in self.topology.components and cid not in dependencies
        )
        if unknown:
            raise ValidationError(
                [("failed_components", f"unknown component {cid!r}") for cid in unknown]
            )
        return failed

    def what_if(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        failed_components,
    ) -> tuple[bool, dict[str, int]]:
        """Outcome of a concrete failure scenario.

        Returns ``(application_survives, active_instances_per_component)``
        for the single round in which exactly ``failed_components`` (a
        collection of topology or dependency component ids) have failed.
        """
        plan.validate_against(self.topology, structure)
        rows = dict.fromkeys(self._known(failed_components), np.packbits([True]))
        kernel = AssessmentKernel.of(self.dependency_model)
        subjects, _ = kernel.closure_masks(self.engine, plan.hosts())
        states = scenario_states(kernel, subjects, rows, 1)
        counts = self._evaluator.counts(states, plan, structure)
        survives = reliable(structure, counts).item()
        return survives, {name: count.item() for name, count in counts.items()}

    def report(
        self, plan: DeploymentPlan, structure: ApplicationStructure
    ) -> list[RiskEntry]:
        """Single-failure risk entries, worst first.

        Entries are ranked by (application down, expected loss, instances
        lost). Components whose lone failure loses no instance are
        omitted — their risk is already captured by the instances' own
        entries.
        """
        plan.validate_against(self.topology, structure)
        kernel = AssessmentKernel.of(self.dependency_model)
        subjects, sampled = kernel.closure_masks(self.engine, plan.hosts())
        candidates = sorted(kernel.arena.ids_in(sampled))
        rounds = 1 + len(candidates)
        # Round 0 fails nothing; round i fails candidate i - 1 alone: one
        # set bit per packed row.
        bit = np.arange(1, rounds)
        matrix = np.zeros((len(candidates), packed_width(rounds)), dtype=PACK_DTYPE)
        matrix[bit - 1, bit >> 3] = 0x80 >> (bit & 7)
        rows = dict(zip(candidates, matrix))
        states = scenario_states(kernel, subjects, rows, rounds)
        counts = self._evaluator.counts(states, plan, structure)

        names = list(counts)
        active = np.stack([counts[name] for name in names])
        lost = np.maximum(active[:, :1] - active[:, 1:], 0)
        down = ~reliable(structure, counts)[1:]
        entries = []
        for i in np.flatnonzero(lost.any(axis=0)).tolist():
            cid = candidates[i]
            degraded = [name for name, delta in zip(names, lost[:, i]) if delta > 0]
            component = self.dependency_model.component(cid)
            entries.append(
                RiskEntry(
                    component_id=cid,
                    component_type=component.component_type.value,
                    failure_probability=component.failure_probability,
                    instances_lost=int(lost[:, i].sum()),
                    components_degraded=tuple(sorted(degraded)),
                    application_down=bool(down[i]),
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
        """The plan's worst-case blast radius for any single failure.

        The report is never empty: every plan host is a candidate, and
        its own event fails it and so the instances on it."""
        entries = self.report(plan, structure)
        return max(e.instances_lost for e in entries)
