"""Incremental assessment engine for the search hot path (§3.3).

The annealing search spends essentially all of its time re-assessing
neighbour plans that differ from the current plan by a *single VM move*,
yet the from-scratch pipeline recomputes the relevant closure, resamples
every component and re-walks every fault tree each iteration. Under
common random numbers all of that work is a pure function of
``(component, master_seed, rounds)`` — independent of which plan is being
assessed — so it can be cached once and reused across every move:

* **Component-state cache** — each component's packed failure row comes
  from its private CRN stream (see
  :meth:`~repro.sampling.dagger.CommonRandomDaggerSampler.component_rows`),
  so a one-host move only samples the closure *delta*; every shared
  component's states are reused verbatim.
* **Closure memoization** — a closure is a ``(subjects, sampled)`` pair
  of bitmasks (Python ints) over the
  :class:`~repro.kernel.arena.ComponentArena` indices, built by
  :meth:`~repro.kernel.AssessmentKernel.closure_masks` from the layers
  :meth:`~repro.routing.base.ReachabilityEngine.relevant_layers` names —
  a fat-tree's core, a pod, an edge switch, the host itself; the generic
  engine's one piece is the whole data center. Shared layers are kept on
  the substrate's kernel (and so shared with every assessor and search
  on it); a host is
  the OR of its layers, kept here, and a plan the OR of its hosts.
* **Effective-state cache** — fault-tree reasoning per subject does not
  depend on the plan either; each subject's effective per-round failure
  vector is computed once and shared by every plan that touches it.
* **Route segment + per-host reachability caches** — all assessments
  share one :class:`~repro.routing.base.RoundStates`, so the engines'
  per-states path-segment caches persist across moves, and a caching
  proxy memoizes finished per-host external / per-pair vectors.
* **Plan-level result cache** — keyed by the plan's canonical key, so
  revisited plans cost a dictionary lookup.

**Delta rule.** A move brings in one host, so nothing on the path of an
assessment may walk the whole closure in Python: what a plan adds to the
universe is ``closure & ~known``, the hit/miss counters are bumped by
``int.bit_count()``, and only the delta's bits are turned back into
indices. Of those, the components that cannot fail (most links) are
dropped by the positive-probability mask without a call or a dict entry
— an absent row reads "never failed" everywhere — and the rest are drawn
64 to a ``component_rows`` call, a component's known bit set only once
its row is stored. Entries are pure functions of their key, so the order
the delta is walked in (arena order) cannot show in any result.

**Correctness invariant (CRN equality).** Before the route-and-check for
a plan runs, every element of that plan's relevant closure has been
sampled and fault-tree-evaluated; cached entries are never mutated
afterwards (per-component streams are deterministic). A fault-free
incremental assessment is therefore *bit-identical* to a from-scratch
:class:`~repro.core.assessment.ReliabilityAssessor` using a
:class:`~repro.sampling.dagger.CommonRandomDaggerSampler` with the same
master seed and round count — the property the test suite asserts across
randomized move sequences.

Caches grow with the set of hosts the search has touched (a few KiB per
component at 10^4 rounds); :meth:`IncrementalAssessor.clear_caches`
resets everything, e.g. after ``override_probabilities`` style updates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, AssessorBase
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, RuntimeMetadata
from repro.faults.dependencies import DependencyModel
from repro.kernel import AssessmentKernel
from repro.routing.base import ReachabilityEngine, RoundStates, engine_for
from repro.sampling.base import sampling_started
from repro.sampling.dagger import CommonRandomDaggerSampler
from repro.sampling.statistics import estimate_from_results
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch


class _CachingEngine(ReachabilityEngine):
    """Memoizes finished per-host / per-pair reachability vectors.

    Valid because both answers are a pure function of the shared failure
    states and the queried host(s) alone — per-host results do not depend
    on which other hosts share the call (all shipped engines compute them
    host-by-host) — and the shared states for any element a query reads
    are in place before the first query that reads them, and never change.
    Missing entries are delegated to the inner engine in one batch: the
    generic engine stacks its alive tables and propagates from the border
    switches once per call, however many hosts the call names.
    """

    def __init__(self, inner: ReachabilityEngine, metrics: MetricsRegistry):
        super().__init__(inner.topology)
        self.inner = inner
        self.metrics = metrics
        self._external: dict[str, np.ndarray] = {}
        self._pairs: dict[tuple[str, str], np.ndarray] = {}

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        unique = list(dict.fromkeys(hosts))
        missing = [h for h in unique if h not in self._external]
        self.metrics.incr("route/host/hit", len(unique) - len(missing))
        self.metrics.incr("route/host/miss", len(missing))
        if missing:
            self._external.update(self.inner.external_reachable(states, missing))
        return {h: self._external[h] for h in unique}

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        unique = list(dict.fromkeys(pairs))
        missing = [p for p in unique if p not in self._pairs]
        self.metrics.incr("route/pair/hit", len(unique) - len(missing))
        self.metrics.incr("route/pair/miss", len(missing))
        if missing:
            self._pairs.update(self.inner.pairwise_reachable(states, missing))
        return {p: self._pairs[p] for p in unique}


class IncrementalAssessor(AssessorBase):
    """Cached, move-incremental reliability assessment under CRN.

    Implements the same :class:`~repro.core.api.Assessor` protocol as the
    sequential and parallel assessors; construct via
    :meth:`from_config` / :func:`~repro.core.api.build_assessor` with
    ``mode="incremental"``. The round count and master seed are fixed for
    the assessor's lifetime — they define the sampling universe all the
    caches live in (use a fresh assessor, or :meth:`clear_caches` plus
    :meth:`reseed`, to change either).
    """

    def __init__(
        self,
        topology: Topology,
        dependency_model: DependencyModel | None = None,
        config: AssessmentConfig | None = None,
    ):
        config = config or AssessmentConfig(mode="incremental")
        self.config = config
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)
        if self.dependency_model.topology is not topology:
            raise ConfigurationError(
                "dependency model was built for a different topology"
            )
        self.rounds = config.rounds
        self.rng = make_rng(config.rng)
        if config.sampler is None:
            master_seed = (
                config.master_seed
                if config.master_seed is not None
                else int(self.rng.integers(0, 2**63))
            )
            self.sampler = CommonRandomDaggerSampler(master_seed)
        elif isinstance(config.sampler, CommonRandomDaggerSampler):
            self.sampler = config.sampler
        else:
            raise ConfigurationError(
                "incremental assessment requires component-addressed common "
                "random numbers (CommonRandomDaggerSampler); got "
                f"{type(config.sampler).__name__}"
            )
        self.metrics = config.metrics or MetricsRegistry()
        self.engine = config.engine or engine_for(topology)
        self._new_universe()

    def _new_universe(self) -> None:
        """An empty sampling universe on the substrate's current kernel.

        Everything below only ever gains entries, and existing entries are
        never rewritten (the CRN streams, and hence every row and forest
        node value, are pure functions of (master_seed, component, rounds);
        node ids only ever grow), so the one long-lived RoundStates — and
        the engine path-segment caches that hang off it — stay valid
        across every assessment.
        """
        self.kernel = kernel = AssessmentKernel.of(self.dependency_model, self.metrics)
        # What every mask below indexes, and the mask of what can fail.
        self._arena = kernel.arena
        self._positive = kernel.positive
        # host -> (subjects, sampled) masks of its closure; the shared
        # layers they are ORed from live on the kernel.
        self._host_masks: dict[str, tuple[int, int]] = {}
        self._rows: dict[str, np.ndarray] = {}  # failing components' packed draws
        self._sampled = 0  # mask: drawn, or never failing
        self._forest_values: dict[int, np.ndarray | None] = {}
        self._effective: dict[str, np.ndarray] = {}  # post-fault-tree states
        self._reasoned = 0  # mask: subjects whose tree is evaluated
        self._registered = 0  # mask: non-subjects seen by the filter step
        self._caching_engine = _CachingEngine(self.engine, self.metrics)
        self._evaluator = StructureEvaluator(self._caching_engine)
        self._plan_cache: dict[tuple, AssessmentResult] = {}
        self._states = RoundStates(rounds=self.rounds, failed=self._effective)

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------

    @property
    def master_seed(self) -> int:
        """The CRN master seed the whole cache universe is keyed by."""
        return self.sampler.master_seed

    def clear_caches(self) -> None:
        """Drop every cache (states, closures, plans, route vectors).

        Call after externally mutating failure probabilities or the
        dependency model; the next assessment rebuilds from scratch, on
        the kernel of the substrate's current generation.
        """
        self._new_universe()

    def reseed(self, master_seed: int) -> None:
        """Move to a new CRN master seed, invalidating every cache."""
        self.sampler.reseed(master_seed)
        self.clear_caches()

    def _closure_masks(self, plan: DeploymentPlan) -> tuple[int, int]:
        """The plan's closure masks, each host's kept for the walk."""
        return self.kernel.closure_masks(
            self.engine, plan.hosts(), self.metrics, self._host_masks
        )

    # ------------------------------------------------------------------
    # Component sampling and fault-tree reasoning (both cached)
    # ------------------------------------------------------------------

    def _extend_universe(self, subjects: int, sampled: int, cancel=None) -> None:
        """Fold a plan's closure masks into the shared sampling universe.

        Samples every not-yet-seen component, evaluates the fault tree of
        every not-yet-seen subject, and registers failing links — after
        which ``self._states`` covers everything this plan's
        route-and-check can read. Priced by the module docstring's delta
        rule. Cancellation between batches of components and before the
        subjects is safe: the caches only ever *gain* complete entries, so
        an aborted extension leaves a smaller but fully valid universe.
        """
        metrics = self.metrics
        arena = self._arena
        rows = self._rows
        with metrics.timer("sample"):
            new = sampled & ~self._sampled
            misses = new.bit_count()
            metrics.incr("sample/component/hit", sampled.bit_count() - misses)
            metrics.incr("sample/component/miss", misses)
            if new:
                sampling_started()
                self._sampled |= new & ~self._positive
                ids, probabilities = arena.ids, arena.probabilities
                drawn = arena.indices_in(new & self._positive)
                for lo in range(0, len(drawn), 64):
                    if cancel is not None:
                        cancel.check()
                    batch = drawn[lo : lo + 64]
                    rows.update(
                        self.sampler.component_rows(
                            [ids[i] for i in batch.tolist()],
                            probabilities[batch],
                            self.rounds,
                        )
                    )
                    self._sampled |= arena.mask_of_indices(batch)

        with metrics.timer("faulttree"):
            if cancel is not None:
                cancel.check()
            new_subjects = subjects & ~self._reasoned
            misses = new_subjects.bit_count()
            metrics.incr("faulttree/subject/hit", subjects.bit_count() - misses)
            metrics.incr("faulttree/subject/miss", misses)
            new_raw = sampled & ~subjects & ~self._registered
            if not (new_subjects or new_raw):
                return
            self._reasoned |= new_subjects
            self._registered |= new_raw
            subject_ids = arena.ids_in(new_subjects)
            # Only a component that failed can register a failing element.
            raw_ids = [cid for cid in arena.ids_in(new_raw) if cid in rows]
            self._effective.update(
                self.kernel.effective_states(
                    subject_ids, raw_ids, rows, self._forest_values, metrics
                )
            )

    # ------------------------------------------------------------------
    # Assessment
    # ------------------------------------------------------------------

    def assess(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> AssessmentResult:
        """Assess one plan, reusing every cacheable intermediate.

        Bit-identical to the from-scratch CRN pipeline with the same
        master seed; see the module docstring for the invariant.
        ``cancel`` is polled between stages (and inside the universe
        extension); a fired token raises
        :class:`~repro.util.errors.OperationCancelled` without corrupting
        any cache.
        """
        self._require_own_rounds(rounds)
        return self._assess(plan, structure, cancel)

    def _require_own_rounds(self, rounds: int | None) -> None:
        if rounds is not None and rounds != self.rounds:
            raise ConfigurationError(
                f"incremental assessment is fixed at {self.rounds} rounds "
                f"(its cache universe); got rounds={rounds}. Use a "
                "sequential assessor for ad-hoc round counts."
            )

    def _assess(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        cancel,
        closure: tuple[int, int] | None = None,
    ) -> AssessmentResult:
        """:meth:`assess` proper; ``closure`` is the plan's
        :meth:`_closure_masks` when :meth:`score_plans` already computed it."""
        watch = Stopwatch()
        metrics = self.metrics
        plan.validate_against(self.topology, structure)

        cache_key = (plan.canonical_key(), structure.content_key())
        cached = self._plan_cache.get(cache_key)
        if cached is not None:
            metrics.incr("plan_cache/hit")
            return cached
        metrics.incr("plan_cache/miss")

        if cancel is not None:
            cancel.check()
        if closure is None:
            with metrics.timer("closure"):
                closure = self._closure_masks(plan)
        subjects, sampled = closure
        self._extend_universe(subjects, sampled, cancel=cancel)

        if cancel is not None:
            cancel.check()
        with metrics.timer("route_and_check"):
            per_round = self._evaluator.evaluate(self._states, plan, structure)
        with metrics.timer("estimate"):
            estimate = estimate_from_results(per_round)

        metrics.incr("assess/incremental")
        result = AssessmentResult(
            plan=plan,
            estimate=estimate,
            per_round=per_round,
            sampled_components=sampled.bit_count(),
            elapsed_seconds=watch.elapsed(),
            runtime=self._runtime_metadata(),
        )
        self._plan_cache[cache_key] = result
        return result

    def score_plans(
        self,
        plans: Sequence[DeploymentPlan],
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> list[AssessmentResult]:
        """Assess a batch of plans sharing one universe extension.

        The union of the plans' relevant closures is folded into the
        sampling universe in a single :meth:`_extend_universe` call —
        sampling and fault-tree reasoning for components shared by several
        candidates happen once instead of once per candidate — and each
        plan is then assessed against the (now warm) caches. Under CRN
        every cache entry is a pure function of ``(component,
        master_seed, rounds)``, independent of batch composition, so the
        results are bit-identical to per-plan :meth:`assess` calls in any
        order.
        """
        plans = list(plans)
        if not plans:
            return []
        self._require_own_rounds(rounds)
        structure_key = structure.content_key()
        uncached = [
            plan
            for plan in plans
            if (plan.canonical_key(), structure_key) not in self._plan_cache
        ]
        closures: dict[int, tuple[int, int]] = {}
        if len(uncached) > 1:
            subjects = sampled = 0
            with self.metrics.timer("closure"):
                for plan in uncached:
                    closures[id(plan)] = closure = self._closure_masks(plan)
                    subjects |= closure[0]
                    sampled |= closure[1]
            self._extend_universe(subjects, sampled, cancel=cancel)
            self.metrics.incr("score_plans/batched", len(uncached))
        return [
            self._assess(plan, structure, cancel, closures.get(id(plan)))
            for plan in plans
        ]

    def _runtime_metadata(self) -> RuntimeMetadata | None:
        """Attach the metrics snapshot when a registry was supplied."""
        if self.config.metrics is None:
            return None
        return RuntimeMetadata(
            backend="incremental",
            workers=0,
            portion_seeds=(),
            profile=self.metrics.flat(),
        )

    def __repr__(self) -> str:
        return (
            f"<IncrementalAssessor on {self.topology.name!r}: "
            f"{self.rounds} rounds, master_seed={self.master_seed}, "
            f"{self._sampled.bit_count()} components cached, "
            f"{len(self._plan_cache)} plans cached>"
        )
