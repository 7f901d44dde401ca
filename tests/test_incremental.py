"""Tests for the incremental assessment engine (repro.core.incremental).

The load-bearing property: under a shared master seed, incremental
assessment must be *bit-identical* to the from-scratch CRN path — not
statistically close, byte-for-byte equal — across arbitrary move
sequences. Everything else (caching, invalidation) is an optimisation
that must never be observable in the results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.faults.inventory import build_paper_inventory, build_zone_inventory
from repro.routing.generic import GenericReachabilityEngine
from repro.sampling.dagger import CommonRandomDaggerSampler
from repro.sampling.montecarlo import MonteCarloSampler
from repro.topology.presets import paper_topology
from repro.topology.zones import MultiZoneTopology
from repro.util.cancel import CancellationToken
from repro.util.errors import ConfigurationError, OperationCancelled
from repro.util.metrics import MetricsRegistry
from tests.interpreted_oracle import (
    assert_held_to_oracle,
    closure_ids,
    reference_sample,
)
from tests.unionfind_oracle import UnionFindReachabilityEngine
from tests.structures import two_tier

MASTER_SEED = 424242
ROUNDS = 2_000


def _pair(topology, model, rounds=ROUNDS, master_seed=MASTER_SEED):
    """A from-scratch CRN assessor and an incremental one, same seed."""
    scratch = ReliabilityAssessor.from_config(
        topology,
        model,
        AssessmentConfig(
            rounds=rounds, sampler=CommonRandomDaggerSampler(master_seed)
        ),
    )
    incremental = IncrementalAssessor.from_config(
        topology,
        model,
        AssessmentConfig(
            mode="incremental", rounds=rounds, master_seed=master_seed
        ),
    )
    return scratch, incremental


def _walk(topology, structure, moves, seed):
    rng = np.random.default_rng(seed)
    plan = DeploymentPlan.random(topology, structure, rng=rng)
    plans = [plan]
    for _ in range(moves):
        plan = plan.random_neighbor(topology, rng=rng)
        plans.append(plan)
    return plans


def _assert_identical(a, b):
    assert np.array_equal(a.per_round, b.per_round)
    assert a.estimate.score == b.estimate.score
    assert a.sampled_components == b.sampled_components


class TestBitEquality:
    @pytest.mark.parametrize("walk_seed", [0, 1, 2])
    def test_fattree_random_walk(self, fattree4, inventory, walk_seed):
        scratch, incremental = _pair(fattree4, inventory)
        structure = ApplicationStructure.k_of_n(2, 3)
        for plan in _walk(fattree4, structure, moves=10, seed=walk_seed):
            _assert_identical(
                scratch.assess(plan, structure),
                incremental.assess(plan, structure),
            )

    def test_leafspine_random_walk(self, leafspine):
        model = build_paper_inventory(leafspine, seed=3)
        scratch, incremental = _pair(leafspine, model)
        structure = ApplicationStructure.k_of_n(2, 3)
        for plan in _walk(leafspine, structure, moves=10, seed=5):
            _assert_identical(
                scratch.assess(plan, structure),
                incremental.assess(plan, structure),
            )

    def test_structure_with_pairwise_requirements(self, fattree4, inventory):
        """two_tier adds FE->DB reachability, exercising the pair cache."""
        scratch, incremental = _pair(fattree4, inventory)
        structure = two_tier(frontends=2, databases=2)
        for plan in _walk(fattree4, structure, moves=8, seed=9):
            _assert_identical(
                scratch.assess(plan, structure),
                incremental.assess(plan, structure),
            )
        assert incremental.metrics.counter("route/pair/hit") > 0

    def test_k_of_n_convenience(self, fattree4, inventory):
        scratch, incremental = _pair(fattree4, inventory)
        hosts = sorted(fattree4.hosts)[:3]
        _assert_identical(
            scratch.assess_k_of_n(hosts, k=2),
            incremental.assess_k_of_n(hosts, k=2),
        )


class TestCacheBehaviour:
    def test_closure_changing_move_misses_then_matches(
        self, fattree4, inventory
    ):
        """Moving a VM into a previously untouched pod must sample the new
        closure delta (cache misses for the new components) while staying
        bit-identical to from-scratch."""
        scratch, incremental = _pair(fattree4, inventory)
        structure = ApplicationStructure.k_of_n(2, 3)
        pods = sorted({h.split("/")[1] for h in fattree4.hosts})
        assert len(pods) >= 2
        in_pod = lambda pod: sorted(
            h for h in fattree4.hosts if h.split("/")[1] == pod
        )
        component = structure.components[0].name
        plan_a = DeploymentPlan.single_component(in_pod(pods[0])[:3], component)
        _assert_identical(
            scratch.assess(plan_a, structure),
            incremental.assess(plan_a, structure),
        )
        misses_before = incremental.metrics.counter("sample/component/miss")
        # Replace one placement with a host in another pod: new rack/edge
        # and aggregation gear enters the closure.
        hosts_b = in_pod(pods[0])[:2] + [in_pod(pods[1])[0]]
        plan_b = DeploymentPlan.single_component(sorted(hosts_b), component)
        _assert_identical(
            scratch.assess(plan_b, structure),
            incremental.assess(plan_b, structure),
        )
        assert (
            incremental.metrics.counter("sample/component/miss")
            > misses_before
        )

    def test_plan_cache_exact_hit(self, fattree4, inventory):
        _, incremental = _pair(fattree4, inventory)
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=6)
        first = incremental.assess(plan, structure)
        hits_before = incremental.metrics.counter("plan_cache/hit")
        second = incremental.assess(plan, structure)
        assert incremental.metrics.counter("plan_cache/hit") == hits_before + 1
        _assert_identical(first, second)

    def test_reseed_changes_then_restores_stream(self, fattree4, inventory):
        """The master seed is the stream: another seed draws other rows,
        the same seed again draws the same bits."""
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=6)
        original = _pair(fattree4, inventory)[1].assess(plan, structure)
        other = _pair(fattree4, inventory, master_seed=MASTER_SEED + 1)[1]
        assert other.master_seed == MASTER_SEED + 1
        assert not np.array_equal(
            original.per_round, other.assess(plan, structure).per_round
        )
        restored = _pair(fattree4, inventory)[1].assess(plan, structure)
        _assert_identical(original, restored)


class TestConfiguration:
    def test_rounds_override_rejected(self, fattree4, inventory):
        _, incremental = _pair(fattree4, inventory)
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=6)
        assert (
            incremental.assess(plan, structure, rounds=ROUNDS) is not None
        )  # matching override is fine
        with pytest.raises(ConfigurationError):
            incremental.assess(plan, structure, rounds=ROUNDS + 1)

    def test_non_crn_sampler_rejected(self, fattree4, inventory):
        with pytest.raises(ConfigurationError):
            IncrementalAssessor.from_config(
                fattree4,
                inventory,
                AssessmentConfig(
                    mode="incremental", sampler=MonteCarloSampler()
                ),
            )

    def test_crn_sampler_accepted_and_seed_exposed(self, fattree4, inventory):
        incremental = IncrementalAssessor.from_config(
            fattree4,
            inventory,
            AssessmentConfig(
                mode="incremental",
                sampler=CommonRandomDaggerSampler(99),
                rounds=ROUNDS,
            ),
        )
        assert incremental.master_seed == 99

    def test_foreign_dependency_model_rejected(self, fattree4, leafspine):
        foreign = build_paper_inventory(leafspine, seed=3)
        with pytest.raises(ConfigurationError):
            IncrementalAssessor(fattree4, foreign)


# ---------------------------------------------------------------------------
# The universe extension is priced by the closure delta
# ---------------------------------------------------------------------------


class _Ids(set):
    """A string set answering the one mask question ``_assess`` asks."""

    bit_count = set.__len__


def _reference_row(sampler, cid, probability, rounds):
    """One component's packed row from the oracle's reference CRN draw,
    ``None`` when it never fails."""
    failed = reference_sample(sampler, {cid: probability}, rounds, None).get(cid)
    if failed is None:
        return None
    dense = np.zeros(rounds, dtype=bool)
    dense[failed] = True
    return np.packbits(dense)


class PerComponentLoopAssessor(IncrementalAssessor):
    """Reference implementation: the universe as string sets — the closure
    rebuilt from raw per-host element sets for every plan, and one Python
    iteration (and one counter bump, one private draw) per closure
    component, new or not. It keeps its own universe (``samples``,
    ``known_subjects``, ``known_links``) beside the inherited result
    caches, as the oracle the mask-priced
    :meth:`IncrementalAssessor._extend_universe` is held against."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._host_elements = {}
        self.samples = {}  # every closure component, never failing or not
        self.known_subjects = set()
        self.known_links = set()

    def _closure_masks(self, plan):
        metrics = self.metrics
        elements = set()
        for host in plan.hosts():
            cached = self._host_elements.get(host)
            if cached is None:
                metrics.incr("closure/host/miss")
                cached = frozenset(self.engine.relevant_elements([host]))
                self._host_elements[host] = cached
            else:
                metrics.incr("closure/host/hit")
            elements |= cached
        adjacency = self.topology.adjacency
        subjects = {cid for cid in elements if cid in adjacency}
        sampled = set(self.dependency_model.basic_events_for(subjects))
        sampled.update(elements - subjects)
        return _Ids(subjects), _Ids(sampled)

    def _sample(self, sampled, cancel):
        for index, cid in enumerate(sampled):
            if cancel is not None and index % 64 == 0:
                cancel.check()
            if cid in self.samples:
                self.metrics.incr("sample/component/hit")
                continue
            self.metrics.incr("sample/component/miss")
            self.samples[cid] = _reference_row(
                self.sampler, cid, self.kernel.probabilities[cid], self.rounds
            )

    def _extend_universe(self, subjects, sampled, cancel=None):
        metrics = self.metrics
        kernel = self.kernel
        rows = self.samples
        with metrics.timer("sample"):
            self._sample(sampled, cancel)

        with metrics.timer("faulttree"):
            if cancel is not None:
                cancel.check()
            new_subjects = [s for s in subjects if s not in self.known_subjects]
            metrics.incr("faulttree/subject/hit", len(subjects) - len(new_subjects))
            if new_subjects:
                metrics.incr("faulttree/subject/miss", len(new_subjects))
                self.known_subjects.update(new_subjects)
                kernel.compile_subjects(new_subjects)
                arena_ids = kernel.arena.ids
                effective = kernel.forest.evaluate(
                    new_subjects,
                    lambda op: rows[arena_ids[op]],
                    self._forest_values,
                )
                for subject, row in effective.items():
                    if row is not None:
                        self._effective[subject] = row

            trees = self.dependency_model.trees
            components = self.topology.components
            for link_cid in sampled:
                if link_cid in subjects or link_cid in self.known_links:
                    continue
                self.known_links.add(link_cid)
                row = rows[link_cid]
                if row is not None and link_cid not in trees and link_cid in components:
                    self._effective[link_cid] = row


UNIVERSE_COUNTERS = [
    f"{cache}/{outcome}"
    for cache in ("sample/component", "faulttree/subject", "closure/host")
    for outcome in ("hit", "miss")
]


@pytest.fixture(scope="module")
def medium():
    topology = paper_topology("medium", seed=1)
    return topology, build_paper_inventory(topology, seed=2)


@pytest.fixture(scope="module")
def zones():
    topology = MultiZoneTopology(zones=2, k=4, seed=7)
    return topology, build_zone_inventory(topology, seed=7)


def _same_arrays(ours, reference):
    assert ours.keys() == reference.keys()
    for cid, row in reference.items():
        assert np.array_equal(ours[cid], row), cid


def _failing(samples):
    """The oracle's draws without the components that never failed: the
    mask universe keeps no entry for those."""
    return {cid: row for cid, row in samples.items() if row is not None}


def _assert_same_universe(ours, reference):
    """The mask universe, decoded, against the oracle's string sets."""
    decode = lambda mask: set(ours._arena.ids_in(mask))
    assert decode(ours._sampled) == reference.samples.keys()
    assert decode(ours._reasoned) == reference.known_subjects
    assert decode(ours._registered) == reference.known_links
    _same_arrays(ours._rows, _failing(reference.samples))
    _same_arrays(ours._effective, reference._effective)
    for name in UNIVERSE_COUNTERS:
        assert ours.metrics.counter(name) == reference.metrics.counter(name), name


class CountingRegistry(MetricsRegistry):
    def __init__(self):
        super().__init__()
        self.incr_calls = 0

    def incr(self, name, amount=1):
        self.incr_calls += 1
        super().incr(name, amount)


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the one-item tally."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestDeltaPricedUniverse:
    def test_matches_per_component_loop_over_a_walk(self, medium):
        topology, model = medium
        config = AssessmentConfig(
            mode="incremental", rounds=600, master_seed=MASTER_SEED
        )
        ours = IncrementalAssessor(topology, model, config)
        reference = PerComponentLoopAssessor(topology, model, config)
        structure = ApplicationStructure.k_of_n(8, 10)
        plans = _walk(topology, structure, moves=25, seed=9)
        for plan in plans:
            _assert_identical(
                ours.assess(plan, structure), reference.assess(plan, structure)
            )
            _assert_same_universe(ours, reference)
            closure = closure_ids(ours, plan)
            assert closure == tuple(map(set, reference._closure_masks(plan)))
        assert ours.metrics.counter("sample/component/hit") > 10_000
        assert_held_to_oracle(ours, plans[::6], structure)

    @pytest.mark.parametrize(
        "engine", [GenericReachabilityEngine, UnionFindReachabilityEngine]
    )
    def test_matches_per_component_loop_on_zones(self, zones, engine):
        """One ``"all"`` layer, the generic engine's or the round-reading
        union-find oracle's behind its door."""
        topology, model = zones
        config = AssessmentConfig(
            mode="incremental",
            rounds=300,
            master_seed=MASTER_SEED,
            engine=engine(topology),
        )
        ours = IncrementalAssessor(topology, model, config)
        reference = PerComponentLoopAssessor(topology, model, config)
        structure = ApplicationStructure.k_of_n(3, 4)
        plans = _walk(topology, structure, moves=8, seed=3)
        for plan in plans:
            _assert_identical(
                ours.assess(plan, structure), reference.assess(plan, structure)
            )
            _assert_same_universe(ours, reference)
        assert list(ours.kernel._layer_memo[ours.engine]) == ["all"]

    def test_walk_draws_once_per_failing_component_and_builds_layers_once(
        self, medium, monkeypatch
    ):
        """Count guards over a 25-move ``medium`` walk: one CRN row drawn
        per new component that can fail and none for the rest, the
        closure from layer ids alone, each layer built once."""
        topology, model = medium
        model.override_probabilities({})  # a cold kernel: count one walk's builds
        assessor = IncrementalAssessor(
            topology,
            model,
            AssessmentConfig(mode="incremental", rounds=600, master_seed=MASTER_SEED),
        )
        drawn = []
        uniforms = assessor.sampler._uniforms
        monkeypatch.setattr(
            assessor.sampler,
            "_uniforms",
            lambda rng, ids, ends: drawn.extend(ids) or uniforms(rng, ids, ends),
        )
        layers = _count_calls(monkeypatch, assessor.kernel, "_masks_of")
        monkeypatch.setattr(
            assessor.engine,
            "relevant_elements",
            lambda hosts: pytest.fail("the closure is assembled from layers"),
        )
        structure = ApplicationStructure.k_of_n(8, 10)
        plans = _walk(topology, structure, moves=25, seed=9)
        seen = set()
        for plan in plans:
            assessor.assess(plan, structure)
            seen |= closure_ids(assessor, plan)[1]
        probabilities = model.failure_probabilities()
        assert assessor.metrics.counter("sample/component/miss") == len(seen)
        assert len(drawn) == len(set(drawn))
        assert set(drawn) == {cid for cid in seen if probabilities[cid] > 0.0}
        assert set(assessor._rows) <= {c for c in seen if probabilities[c] > 0.0}
        hosts = {host for plan in plans for host in plan.hosts()}
        edges = {topology.edge_switch_of(host) for host in hosts}
        pods = {topology.edge_pod[edge] for edge in edges}
        kept = assessor.kernel._layer_memo[assessor.engine]
        assert len(kept) == 1 + len(pods) + len(edges)
        assert layers[0] == len(kept) + len(hosts)

    def test_new_host_under_a_known_edge_builds_one_layer(self, medium, monkeypatch):
        topology, model = medium
        assessor = IncrementalAssessor(
            topology,
            model,
            AssessmentConfig(mode="incremental", rounds=600, master_seed=MASTER_SEED),
        )
        rack = topology.hosts_in_rack(topology.racks()[0])
        others = [topology.hosts_in_rack(r)[0] for r in topology.racks()[1:10]]
        structure = ApplicationStructure.k_of_n(8, 10)
        component = structure.components[0].name
        assessor.assess(
            DeploymentPlan.single_component([rack[0]] + others, component), structure
        )
        layers = _count_calls(monkeypatch, assessor.kernel, "_masks_of")
        misses = assessor.metrics.counter("sample/component/miss")
        moved = DeploymentPlan.single_component([rack[1]] + others, component)
        assessor.assess(moved, structure)
        assert layers[0] == 1
        # The host and its link, plus whatever only its own tree reads.
        private = model.basic_events_of(rack[1]) - model.basic_events_of(rack[0])
        assert (
            assessor.metrics.counter("sample/component/miss") - misses
            == 1 + len(private)
        )

    def test_warm_assess_costs_a_handful_of_counter_bumps(self, medium, monkeypatch):
        """Cost guard by count: once every host of a plan is folded in, a
        new plan over those hosts draws nothing, evaluates no tree and
        touches the registry a constant number of times (the
        per-component loop: one bump per closure component, ~1 750)."""
        topology, model = medium
        registry = CountingRegistry()
        assessor = IncrementalAssessor(
            topology,
            model,
            AssessmentConfig(
                mode="incremental",
                rounds=600,
                master_seed=MASTER_SEED,
                metrics=registry,
            ),
        )
        rng = np.random.default_rng(4)
        hosts = [str(h) for h in rng.choice(topology.hosts, size=11, replace=False)]
        structure = ApplicationStructure.k_of_n(8, 10)
        component = structure.components[0].name
        assessor.assess(DeploymentPlan.single_component(hosts[:10], component), structure)
        assessor.assess(DeploymentPlan.single_component(hosts[1:], component), structure)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm assess must not sample or evaluate")

        monkeypatch.setattr(assessor.sampler, "component_rows", forbidden)
        monkeypatch.setattr(assessor.kernel, "_masks_of", forbidden)
        monkeypatch.setattr(assessor.kernel.forest, "evaluate", forbidden)
        registry.incr_calls = 0
        misses = registry.counter("sample/component/miss")
        warm = DeploymentPlan.single_component([hosts[10]] + hosts[:9], component)
        result = assessor.assess(warm, structure)
        assert registry.incr_calls < 20
        assert registry.counter("sample/component/miss") == misses
        assert result.sampled_components > 1_000

    def test_cancel_mid_extension_leaves_a_valid_smaller_universe(self, medium):
        topology, model = medium
        config = AssessmentConfig(
            mode="incremental", rounds=600, master_seed=MASTER_SEED
        )
        assessor = IncrementalAssessor(topology, model, config)
        structure = ApplicationStructure.k_of_n(8, 10)
        plan = DeploymentPlan.random(topology, structure, rng=2)

        class FiresOnThirdCheck(CancellationToken):
            checks = 0

            def check(self):
                self.checks += 1
                if self.checks == 3:
                    self.cancel("test")
                super().check()

        with pytest.raises(OperationCancelled):
            assessor.assess(plan, structure, cancel=FiresOnThirdCheck())
        arena = assessor._arena
        known = arena.indices_in(assessor._sampled)
        drawn = known[arena.probabilities[known] > 0.0]
        _, sampled = closure_ids(assessor, plan)
        # One check before the closure, one before the first batch of 64
        # components that can fail, the third before the second batch: 64
        # drawn, the never-failing ones known without a draw, no more.
        assert len(drawn) == 64 and {arena.ids[i] for i in known} < sampled
        assert not assessor._effective and not assessor._reasoned
        assert not assessor._registered
        scratch = IncrementalAssessor(topology, model, config)
        uninterrupted = scratch.assess(plan, structure)
        # No known bit lacks its row: each holds what an uninterrupted
        # extension draws for it, or nothing when that never fails.
        for cid in (arena.ids[i] for i in known):
            assert np.array_equal(assessor._rows.get(cid), scratch._rows.get(cid)), cid
        assert assessor._rows.keys() <= {arena.ids[i] for i in drawn}
        _assert_identical(assessor.assess(plan, structure), uninterrupted)
        assert assessor._sampled == scratch._sampled
        _same_arrays(assessor._rows, scratch._rows)

    def test_a_new_assessor_draws_a_link_the_change_made_fallible(self, fattree4):
        model = build_paper_inventory(fattree4, seed=3)
        config = AssessmentConfig(
            mode="incremental", rounds=ROUNDS, master_seed=MASTER_SEED
        )
        assessor = IncrementalAssessor(fattree4, model, config)
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=6)
        assessor.assess(plan, structure)
        link = next(
            cid
            for cid in sorted(closure_ids(assessor, plan)[1])
            if cid.startswith("link[") and model.failure_probabilities()[cid] == 0.0
        )
        bit = 1 << assessor._arena.index_of(link)
        assert not assessor._positive & bit and link not in assessor._rows
        model.override_probabilities({link: 0.25})
        try:
            assessor = IncrementalAssessor(fattree4, model, config)
            assert assessor._positive & bit
            assessor.assess(plan, structure)
            assert link in assessor._rows
            scratch = ReliabilityAssessor.from_config(
                fattree4,
                model,
                AssessmentConfig(
                    rounds=ROUNDS, sampler=CommonRandomDaggerSampler(MASTER_SEED)
                ),
            )
            _assert_identical(
                assessor.assess(plan, structure), scratch.assess(plan, structure)
            )
        finally:
            model.override_probabilities({link: 0.0})


class TestComputedOnce:
    def test_score_plans_computes_each_closure_once(self, fattree4, inventory):
        _, incremental = _pair(fattree4, inventory)
        _, one_by_one = _pair(fattree4, inventory)
        structure = ApplicationStructure.k_of_n(2, 3)
        plans = _walk(fattree4, structure, moves=3, seed=8)
        calls = []
        closure_masks = incremental._closure_masks
        incremental._closure_masks = lambda plan: (
            calls.append(plan) or closure_masks(plan)
        )
        scored = incremental.score_plans(plans, structure)
        assert calls == plans  # the parent: every plan twice
        for plan, result in zip(plans, scored):
            _assert_identical(result, one_by_one.assess(plan, structure))
        hosts = sum(len(plan.hosts()) for plan in plans)
        counted = incremental.metrics.counter(
            "closure/host/hit"
        ) + incremental.metrics.counter("closure/host/miss")
        assert counted == hosts
