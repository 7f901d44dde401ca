"""Quantitative reliability assessment of a deployment plan (§3.2).

Pipeline, per assessment:

1. Determine the *relevant closure*: the network elements the routing
   engine may read for the plan's hosts, plus every fault-tree dependency
   (power, cooling, software, ...) those elements reference.
2. Generate failure states for the closure across ``rounds`` rounds with
   the configured sampler (extended dagger sampling by default; §3.2.2).
   Components fail independently, so sampling only the closure draws from
   the same joint distribution over everything steps 3-4 read as sampling
   the whole data center (Table 1's literal semantics, which
   ``tests/interpreted_oracle.py`` keeps as the reference).
3. Reason over each element's fault tree to get its *effective* per-round
   failure state, and filter failed elements (§3.2.3).
4. Route and check: evaluate the application structure's connectivity
   requirements per round (§3.2.1, §3.2.4).
5. Reduce the per-round result list to a reliability score with variance
   and a rigorous 95 % confidence interval (Eqs. 1-3).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.api import DEFAULT_ROUNDS, AssessmentConfig, AssessorBase
from repro.core.evaluation import StructureEvaluator, scenario_states
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult
from repro.faults.dependencies import DependencyModel
from repro.kernel import AssessmentKernel
from repro.routing.base import engine_for
from repro.sampling.base import Sampler
from repro.sampling.dagger import ExtendedDaggerSampler
from repro.sampling.statistics import (
    estimate_from_pieces,
    estimate_from_results,
    rounds_for_target_ci,
)
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch

__all__ = ["DEFAULT_ROUNDS", "ReliabilityAssessor"]


def _stage(metrics: MetricsRegistry | None, name: str):
    """Timer context for one pipeline stage; free when not profiling."""
    if metrics is None:
        return contextlib.nullcontext()
    return metrics.timer(name)


class ReliabilityAssessor(AssessorBase):
    """Assesses deployment plans on one topology + dependency model.

    Construct once per (topology, dependency model) and reuse across many
    plans — the annealing search does exactly that.
    """

    def __init__(
        self,
        topology: Topology,
        dependency_model: DependencyModel | None = None,
        config: AssessmentConfig | None = None,
    ):
        config = config or AssessmentConfig()
        self.config = config
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)
        if self.dependency_model.topology is not topology:
            raise ConfigurationError(
                "dependency model was built for a different topology"
            )
        self.sampler = config.sampler or ExtendedDaggerSampler()
        self.rounds = config.rounds
        self.engine = config.engine or engine_for(topology)
        self.rng = make_rng(config.rng)
        self.metrics = config.metrics
        self._evaluator = StructureEvaluator(self.engine)
        self._validated = set()
        self.kernel = AssessmentKernel.of(self.dependency_model, self.metrics)

    # ------------------------------------------------------------------

    def refresh_probabilities(self) -> None:
        """Re-read failure probabilities from the topology and model.

        Call after ``override_probabilities`` (bathtub-curve updates or
        near-real-time condition changes, §2.1/§3.2.2): the substrate's
        generation moved, so this fetches the kernel compiled against the
        new probabilities.
        """
        self.kernel = AssessmentKernel.of(self.dependency_model, self.metrics)

    def _closure_masks(self, plan: DeploymentPlan) -> tuple[int, int]:
        return self.kernel.closure_masks(self.engine, plan.hosts(), self.metrics)

    def _probabilities(self, sampled: int) -> dict[str, float]:
        """The sampler's input for a closure: the components that can fail
        (every sampler skips the rest without a draw), in sorted-id order,
        the stream :meth:`assess` has always drawn."""
        arena = self.kernel.arena
        drawn = arena.indices_in(sampled & self.kernel.positive)
        drawn = drawn[np.argsort(arena.rank[drawn])]
        ids = arena.ids
        keys = [ids[i] for i in drawn.tolist()]
        return dict(zip(keys, arena.probabilities[drawn].tolist()))

    def assess(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> AssessmentResult:
        """Assess one plan against one application structure.

        ``cancel`` is an optional
        :class:`~repro.util.cancel.CancellationToken`: the pipeline polls
        it between stages (and forwards it into the sampler's chunk loop)
        and raises :class:`~repro.util.errors.OperationCancelled` when it
        fires — a single assessment holds no partial data worth keeping,
        so anytime behaviour lives in the layers above (the parallel
        runtime's portions, the service's chunked execution).
        """
        watch = Stopwatch()
        metrics = self.metrics
        rounds = rounds or self.rounds
        self._validate(plan, structure)

        if cancel is not None:
            cancel.check()
        with _stage(metrics, "closure"):
            subjects, sampled = self._closure_masks(plan)
            probabilities = self._probabilities(sampled)

        per_round = self._run_stages(
            plan, structure, rounds, subjects, probabilities, cancel
        )
        with _stage(metrics, "estimate"):
            estimate = estimate_from_results(per_round)
        sampled_components = sampled.bit_count()
        if metrics is not None:
            metrics.incr("assess/from_scratch")
            metrics.incr("sample/components", sampled_components)
        return AssessmentResult(
            plan=plan,
            estimate=estimate,
            per_round=per_round,
            sampled_components=sampled_components,
            elapsed_seconds=watch.elapsed(),
        )

    def _run_stages(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int,
        subjects: int,
        probabilities: dict[str, float],
        cancel=None,
    ) -> np.ndarray:
        """Sample -> fault-tree reasoning -> route-and-check."""
        metrics = self.metrics
        with _stage(metrics, "sample"):
            batch = self.sampler.sample(probabilities, rounds, self.rng, cancel=cancel)

        if cancel is not None:
            cancel.check()
        with _stage(metrics, "faulttree"):
            # Every failed row is a raw-element candidate: a handful,
            # where the closure's links run to thousands.
            round_states = scenario_states(
                self.kernel, subjects, batch.failed_rows(), rounds, metrics
            )
        # Dead from here on, and the larger share of an assessment's
        # transient memory: route-and-check reads only ``failed``.
        del batch

        if cancel is not None:
            cancel.check()
        with _stage(metrics, "route_and_check"):
            return self._evaluator.evaluate(round_states, plan, structure)

    def assess_to_ci(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        target_ci_width: float,
        pilot_rounds: int = 2_000,
        max_rounds: int = 2_000_000,
    ) -> AssessmentResult:
        """Assess until the 95 % CI width reaches ``target_ci_width``.

        Some developers want tighter error bounds than the default round
        count provides (§4.2.4). This runs a pilot assessment, inverts
        Eq. 3 to size the remaining work, and keeps extending in doubling
        batches (independent sampling rounds concatenate freely) until the
        target is met or ``max_rounds`` have been spent.
        """
        if target_ci_width <= 0:
            raise ConfigurationError(
                f"target CI width must be positive, got {target_ci_width}"
            )
        watch = Stopwatch()
        result = self.assess(plan, structure, rounds=min(pilot_rounds, max_rounds))
        chunks = [result.per_round]
        total = result.estimate.rounds
        sampled = result.sampled_components
        while (
            result.estimate.confidence_interval_width > target_ci_width
            and total < max_rounds
        ):
            variance_per_round = result.estimate.variance * total
            needed = rounds_for_target_ci(target_ci_width, variance_per_round)
            # Never shrink, never exceed the cap, and grow by at least 50%
            # per step so a slightly-off pilot variance cannot stall us.
            batch = min(max(needed - total, total // 2, 1), max_rounds - total)
            chunks.append(self.assess(plan, structure, rounds=batch).per_round)
            total += batch
            merged, estimate, _ = estimate_from_pieces(chunks)
            result = AssessmentResult(
                plan=plan,
                estimate=estimate,
                per_round=merged,
                sampled_components=sampled,
                elapsed_seconds=watch.elapsed(),
            )
        return result
