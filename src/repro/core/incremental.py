"""Incremental assessment engine for the search hot path (§3.3).

The annealing search spends essentially all of its time re-assessing
neighbour plans that differ from the current plan by a *single VM move*,
yet the from-scratch pipeline recomputes the relevant closure, resamples
every component and re-walks every fault tree each iteration. Under
common random numbers all of that work is a pure function of
``(component, master_seed, rounds)`` — independent of which plan is being
assessed — so it can be cached once and reused across every move:

* **Component-state cache** — each component's failed-round indices come
  from its private CRN stream (see
  :meth:`~repro.sampling.dagger.CommonRandomDaggerSampler.component_failed_rounds`),
  so a one-host move only samples the closure *delta*; every shared
  component's states are reused verbatim.
* **Closure memoization** — the relevant closure decomposes per host for
  every shipped engine (the union of single-host closures equals the
  joint closure; the generic engine's closure is the whole data center,
  which makes the union trivially exact), so each host's ``(subjects,
  sampled)`` pair is computed once and a plan's closure is a union of
  finished sets.
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
universe is found by set difference against what is already there, loops
run over that delta only, and the hit/miss counters are bumped by the set
sizes. Entries are pure functions of their key, so the order the delta is
walked in cannot show in any result.

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
from repro.core.assessment import ZeroFill, effective_states
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, RuntimeMetadata
from repro.faults.dependencies import DependencyModel
from repro.kernel import AssessmentKernel, kernel_supported
from repro.routing.base import (
    PackedRoundStates,
    ReachabilityEngine,
    RoundStates,
    engine_for,
)
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

    def relevant_elements(self, hosts: Sequence[str]) -> set[str]:
        return self.inner.relevant_elements(hosts)

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

    def clear(self) -> None:
        self._external.clear()
        self._pairs.clear()


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
        self.sample_full_infrastructure = config.sample_full_infrastructure
        self.metrics = config.registry() or MetricsRegistry()
        self.engine = config.engine or engine_for(topology)
        self._caching_engine = _CachingEngine(self.engine, self.metrics)
        self._evaluator = StructureEvaluator(self._caching_engine)
        self._all_probabilities = self.dependency_model.failure_probabilities()

        # The shared sampling universe. `_effective` only ever gains
        # entries (and existing entries are never rewritten), so the one
        # long-lived RoundStates — and the engine path-segment caches that
        # hang off it — stay valid across every assessment.
        # host -> (subjects, sampled) of that host's relevant closure
        self._host_closure: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        self._failed_rounds: dict[str, np.ndarray] = {}  # component samples
        self._dense = ZeroFill(self.rounds)  # dense view, failing comps
        self._effective: dict[str, np.ndarray] = {}  # post-fault-tree states
        self._known_subjects: set[str] = set()
        self._known_links: set[str] = set()
        self._plan_cache: dict[tuple, AssessmentResult] = {}

        # Compiled-kernel universe: packed per-component rows and a
        # persistent node-value cache over the compiled forest. Valid for
        # the assessor's lifetime because the CRN streams (and hence
        # every node value) are pure functions of (master_seed,
        # component, rounds), and node ids only ever grow.
        self.kernel: AssessmentKernel | None = (
            AssessmentKernel(topology, self.dependency_model, self._all_probabilities)
            if config.kernel and kernel_supported(self.engine)
            else None
        )
        self._packed_rows: dict[str, np.ndarray | None] = {}
        self._forest_values: dict[int, np.ndarray | None] = {}
        self._states = self._fresh_states()

    def _fresh_states(self) -> RoundStates:
        if self.kernel is not None:
            return PackedRoundStates(rounds=self.rounds, failed=self._effective)
        return RoundStates(rounds=self.rounds, failed=self._effective)

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
        dependency model; the next assessment rebuilds from scratch.
        """
        self._host_closure.clear()
        self._failed_rounds.clear()
        self._dense.clear()
        self._effective.clear()
        self._known_subjects.clear()
        self._known_links.clear()
        self._plan_cache.clear()
        self._caching_engine.clear()
        self._packed_rows.clear()
        self._forest_values.clear()
        self._all_probabilities = self.dependency_model.failure_probabilities()
        if self.kernel is not None:
            # Rebuild the arena/forest too: the probabilities (or even
            # the dependency trees) may have changed under us.
            self.kernel = AssessmentKernel(
                self.topology, self.dependency_model, self._all_probabilities
            )
        # Fresh RoundStates: the engines' per-states segment caches are
        # attached to the old object and die with it.
        self._states = self._fresh_states()

    def reseed(self, master_seed: int) -> None:
        """Move to a new CRN master seed, invalidating every cache."""
        self.sampler.reseed(master_seed)
        self.clear_caches()

    # ------------------------------------------------------------------
    # Closure (memoized per host)
    # ------------------------------------------------------------------

    def closure_for(self, plan: DeploymentPlan) -> tuple[set[str], set[str]]:
        """(subjects, sampled component ids) — same contract as the
        from-scratch assessor, assembled from per-host memo entries.

        Both halves distribute over hosts (``basic_events_for`` is a union
        over subjects; link elements are never subjects), so the graph
        filter and the fault-tree event lookup run once per host and a
        plan's closure is a union of finished frozensets.
        """
        memo = self._host_closure
        subjects: set[str] = set()
        sampled: set[str] = set()
        hosts = plan.hosts()
        misses = 0
        for host in hosts:
            cached = memo.get(host)
            if cached is None:
                misses += 1
                elements = self.engine.relevant_elements([host])
                host_subjects = self.topology.elements.intersection(elements)
                cached = memo[host] = (
                    host_subjects,
                    self.dependency_model.basic_events_for(host_subjects)
                    | (elements - host_subjects),
                )
            subjects |= cached[0]
            sampled |= cached[1]
        self.metrics.incr("closure/host/hit", len(hosts) - misses)
        self.metrics.incr("closure/host/miss", misses)
        return subjects, sampled

    # ------------------------------------------------------------------
    # Component sampling and fault-tree reasoning (both cached)
    # ------------------------------------------------------------------

    def _dense_for(self, cid: str) -> np.ndarray:
        """Dense per-round failure vector of a sampled component, built on
        first need (the shared read-only zeros when it never fails)."""
        dense = self._dense
        failed = self._failed_rounds[cid]
        if failed.size and cid not in dense:
            states = np.zeros(self.rounds, dtype=bool)
            states[failed] = True
            dense[cid] = states
        return dense[cid]

    def _extend_universe(
        self, subjects: set[str], sampled: set[str], cancel=None
    ) -> None:
        """Fold a plan's closure into the shared sampling universe.

        Samples every not-yet-seen component, evaluates the fault tree of
        every not-yet-seen subject, and registers failing links — after
        which ``self._states`` covers everything this plan's
        route-and-check can read. Priced by the module docstring's delta
        rule: loops run over what set difference says is new. The dense and
        the packed (compiled-kernel) universe share this one path and
        differ only in how a component is drawn and in which of the two
        fault-tree stage functions reads the draws. Cancellation between
        components/subjects is safe: the caches only ever *gain* complete
        entries, so an aborted extension leaves a smaller but fully valid
        universe.
        """
        metrics = self.metrics
        kernel = self.kernel
        if kernel is not None:
            samples, draw = self._packed_rows, self.sampler.component_packed_row
        else:
            samples, draw = self._failed_rounds, self.sampler.component_failed_rounds
        with metrics.timer("sample"):
            new_components = sampled.difference(samples)
            metrics.incr("sample/component/hit", len(sampled) - len(new_components))
            metrics.incr("sample/component/miss", len(new_components))
            probabilities = self._all_probabilities
            if new_components:
                sampling_started()
            for index, cid in enumerate(new_components):
                if cancel is not None and index % 64 == 0:
                    cancel.check()
                samples[cid] = draw(cid, probabilities[cid], self.rounds)

        with metrics.timer("faulttree"):
            if cancel is not None:
                cancel.check()
            new_subjects = subjects - self._known_subjects
            metrics.incr("faulttree/subject/hit", len(subjects) - len(new_subjects))
            metrics.incr("faulttree/subject/miss", len(new_subjects))
            new_links = (sampled - subjects) - self._known_links
            if not (new_subjects or new_links):
                return
            self._known_subjects |= new_subjects
            self._known_links |= new_links
            if kernel is not None:
                found = kernel.effective_states(
                    new_subjects, new_links, samples, self._forest_values
                )
            else:
                # Densified by need, not at draw time: a cancelled sampling
                # loop leaves drawn components behind, and the next call's
                # delta no longer names them.
                model = self.dependency_model
                for cid in model.basic_events_for(new_subjects) | new_links:
                    self._dense_for(cid)
                found = effective_states(
                    model, new_subjects, new_links, self._dense
                )
            self._effective.update(found)

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
        closure: tuple[set[str], set[str]] | None = None,
    ) -> AssessmentResult:
        """:meth:`assess` proper; ``closure`` is the plan's
        :meth:`closure_for` when :meth:`score_plans` already computed it."""
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
                closure = self.closure_for(plan)
        subjects, sampled = closure
        self._extend_universe(subjects, sampled, cancel=cancel)

        if cancel is not None:
            cancel.check()
        with metrics.timer("route_and_check"):
            per_round = self._evaluator.evaluate(self._states, plan, structure)
        with metrics.timer("estimate"):
            estimate = estimate_from_results(per_round)

        metrics.incr("assess/incremental")
        if self.sample_full_infrastructure:
            sampled_components = len(self._all_probabilities)
        else:
            sampled_components = len(sampled)
        result = AssessmentResult(
            plan=plan,
            estimate=estimate,
            per_round=per_round,
            sampled_components=sampled_components,
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
        closures: dict[int, tuple[set[str], set[str]]] = {}
        if len(uncached) > 1:
            subjects: set[str] = set()
            sampled: set[str] = set()
            with self.metrics.timer("closure"):
                for plan in uncached:
                    closures[id(plan)] = closure = self.closure_for(plan)
                    subjects |= closure[0]
                    sampled |= closure[1]
            self._extend_universe(subjects, sampled, cancel=cancel)
            self.metrics.incr("score_plans/batched", len(uncached))
        return [
            self._assess(plan, structure, cancel, closures.get(id(plan)))
            for plan in plans
        ]

    def _runtime_metadata(self) -> RuntimeMetadata | None:
        """Attach the metrics snapshot when profiling was requested."""
        if not (self.config.profile or self.config.metrics is not None):
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
            f"{len(self._failed_rounds)} components cached, "
            f"{len(self._plan_cache)} plans cached>"
        )
