"""The unified assessment API: one config, one protocol, one factory.

* :class:`AssessmentConfig` — one declarative dataclass holding the
  settings of an assessment, whatever the execution mode. Each field has
  a caller outside the tests that sets it; a value nothing else would
  set is a constant in the code that reads it, not a field;
* :class:`Assessor` — the protocol every execution mode implements:
  ``assess(plan, structure, rounds=None)`` for one plan, the batch-first
  ``score_plans(plans, structure, rounds=None)`` the search hot loop
  consumes, plus the substrate attributes the search reads;
* :func:`build_assessor` — the factory that turns a topology + dependency
  model + config into the right assessor (sequential, parallel,
  incremental or analytic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.util.errors import ConfigurationError, ValidationError, check_count
from repro.util.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from typing import Sequence

    from repro.core.result import AssessmentResult
    from repro.faults.dependencies import DependencyModel
    from repro.routing.base import ReachabilityEngine
    from repro.sampling.base import Sampler
    from repro.topology.base import Topology

#: The paper's default assessment effort (§4.1).
DEFAULT_ROUNDS = 10_000

#: Execution modes :func:`build_assessor` can dispatch to.
MODES = ("sequential", "parallel", "incremental", "analytic")

#: Enumerating more than 2**26 exact states (~8 MiB packed per element
#: row, ~0.5 GiB weights) stops being "fast exact evaluation" and starts
#: being a memory hazard; budgets beyond this are a config error.
MAX_ANALYTIC_BITS = 26


@dataclass(frozen=True)
class AssessmentConfig:
    """The settings of an assessment, independent of the execution mode.

    Attributes:
        rounds: Sampling rounds per assessment (Table 1 columns).
        sampler: Failure-state sampler; ``None`` picks the mode's default
            (extended dagger sequentially/parallel, common-random dagger
            incrementally).
        rng: Seed or generator for the assessment randomness.
        engine: Reachability engine override; ``None`` picks the best
            engine for the topology. It receives and returns bit-packed
            rows (the contract in :mod:`repro.routing.base`).
        mode: ``"sequential"`` (in-process), ``"parallel"`` (a pool of
            forked workers), ``"incremental"`` (cached single-move deltas
            under common random numbers) or ``"analytic"`` (exact
            fault-tree evaluation where the closure fits the
            tractability budget, sampled fallback elsewhere; see
            :mod:`repro.core.analytic`).
        workers: Worker processes for the parallel mode (on a platform
            without fork the portions run on the master instead).
        master_seed: Common-random-numbers master seed for the incremental
            mode; ``None`` derives one from ``rng``.
        metrics: Registry to record stage timings and cache counters
            into; surfaced on results via ``RuntimeMetadata.profile``.
            ``None`` collects nothing (the incremental assessor keeps a
            private registry of its own).
        analytic_state_bits: Tractability budget for exact *plan-level*
            evaluation: the maximum number of uncertain basic events in
            a plan's relevant closure (``2**bits`` enumerated joint
            states). Closures beyond the budget fall back to the
            sampling assessor. Analytic mode only.
    """

    rounds: int = DEFAULT_ROUNDS
    sampler: "Sampler | None" = None
    rng: "int | np.random.Generator | None" = None
    engine: "ReachabilityEngine | None" = None
    mode: str = "sequential"
    workers: int = 2
    master_seed: int | None = None
    metrics: MetricsRegistry | None = field(default=None, compare=False)
    analytic_state_bits: int = 20

    def __post_init__(self) -> None:
        errors: list[tuple[str, str]] = []
        check_count("rounds", self.rounds, 1, errors)
        if errors:
            raise ValidationError(errors)
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown assessment mode {self.mode!r}; expected one of {MODES}"
            )

    # ------------------------------------------------------------------

    def validate(self, topology: "Topology | None" = None) -> None:
        """Full field-level validation at the API boundary.

        ``__post_init__`` guards the invariants that would crash
        immediately (an int ``rounds >= 1``, a known mode); this collects every
        other problem — field ranges and, when a topology is supplied,
        the physical sanity of its failure probabilities — and raises one
        :class:`~repro.util.errors.ValidationError` listing all of them.
        """
        errors: list[tuple[str, str]] = []
        least_workers = 1 if self.mode == "parallel" else 0
        check_count("workers", self.workers, least_workers, errors)
        if self.master_seed is not None:
            check_count("master_seed", self.master_seed, 0, errors)
        bits = self.analytic_state_bits
        check_count("analytic_state_bits", bits, 0, errors)
        if isinstance(bits, int) and bits > MAX_ANALYTIC_BITS:
            errors.append(
                ("analytic_state_bits", f"must be at most {MAX_ANALYTIC_BITS}, got {bits}")
            )
        if topology is not None:
            bad = [
                (cid, p)
                for cid, p in topology.failure_probabilities().items()
                if not 0.0 <= p < 1.0
            ]
            for cid, p in bad[:5]:
                errors.append(
                    (
                        "topology.failure_probabilities",
                        f"component {cid!r} has probability {p} outside [0, 1)",
                    )
                )
            if len(bad) > 5:
                errors.append(
                    (
                        "topology.failure_probabilities",
                        f"... and {len(bad) - 5} more components outside [0, 1)",
                    )
                )
        if errors:
            raise ValidationError(errors)

    def with_updates(self, **changes: Any) -> "AssessmentConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)


@runtime_checkable
class Assessor(Protocol):
    """What every execution mode exposes to the search, CLI and baselines."""

    topology: "Topology"
    dependency_model: "DependencyModel"
    rounds: int

    def assess(
        self,
        plan: "DeploymentPlan",
        structure: "ApplicationStructure",
        rounds: int | None = None,
    ) -> "AssessmentResult":
        """Assess one plan against one application structure."""
        ...

    def score_plans(
        self,
        plans: "Sequence[DeploymentPlan]",
        structure: "ApplicationStructure",
        rounds: int | None = None,
    ) -> "list[AssessmentResult]":
        """Assess a batch of plans against one application structure.

        Every backend must return exactly what per-plan :meth:`assess`
        calls would: the batch form is a performance contract (shared
        packed layouts, shared closure extension, one kernel dispatch),
        never a semantic one. Backends without a fast path inherit
        :meth:`AssessorBase.score_plans`.
        """
        ...


class AssessorBase:
    """What the in-process assessors share beyond the protocol."""

    topology: "Topology"
    #: (plan, structure content key) pairs already validated: an empty set
    #: per instance, created by the subclasses that call :meth:`_validate`.
    _validated: set[tuple]

    @classmethod
    def from_config(
        cls,
        topology: "Topology",
        dependency_model: "DependencyModel | None" = None,
        config: AssessmentConfig | None = None,
    ):
        """The unified-API constructor :func:`build_assessor` dispatches to."""
        return cls(topology, dependency_model, config=config)

    def _validate(self, plan: DeploymentPlan, structure: ApplicationStructure) -> None:
        """``plan.validate_against`` with a memo of already-valid pairs.

        Validation is a pure check over immutable plans, so repeated
        assessments of the same plan (estimator refinement, benchmarking,
        the search re-visiting a plateau) skip the graph lookups. Keyed on
        the structure's content, not its ``id``: ids are reused once a
        structure is collected, and a stale hit would skip the check for a
        different structure.
        """
        key = (plan, structure.content_key())
        if key in self._validated:
            return
        plan.validate_against(self.topology, structure)
        if len(self._validated) >= 4096:
            self._validated.clear()
        self._validated.add(key)

    def score_plans(
        self,
        plans: "Sequence[DeploymentPlan]",
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> "list[AssessmentResult]":
        """The default ``score_plans``: one :meth:`assess` per plan, which
        is what the :class:`Assessor` contract defines a batch to return.
        The incremental walk and the analytic screen override it with
        their fast paths."""
        return [
            self.assess(plan, structure, rounds=rounds, cancel=cancel)
            for plan in plans
        ]

    def assess_k_of_n(
        self, hosts, k: int, rounds: int | None = None
    ) -> "AssessmentResult":
        """Convenience wrapper for the simple K-of-N scenario (§2.2)."""
        hosts = list(hosts)
        structure = ApplicationStructure.k_of_n(k, len(hosts))
        plan = DeploymentPlan.single_component(hosts, structure.components[0].name)
        return self.assess(plan, structure, rounds=rounds)


def build_assessor(
    topology: "Topology",
    dependency_model: "DependencyModel | None" = None,
    config: AssessmentConfig | None = None,
) -> Assessor:
    """Build the assessor a config describes.

    The one entry point the search, the CLI and the baselines share.
    """
    config = config or AssessmentConfig()
    config.validate(topology)

    if config.mode == "parallel":
        from repro.runtime.mapreduce import ParallelAssessor

        return ParallelAssessor.from_config(topology, dependency_model, config)
    if config.mode == "incremental":
        from repro.core.incremental import IncrementalAssessor

        return IncrementalAssessor.from_config(topology, dependency_model, config)
    if config.mode == "analytic":
        from repro.core.analytic import AnalyticAssessor

        return AnalyticAssessor.from_config(topology, dependency_model, config)
    from repro.core.assessment import ReliabilityAssessor

    return ReliabilityAssessor.from_config(topology, dependency_model, config)
