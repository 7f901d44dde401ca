"""Cross-cutting property-based tests (hypothesis).

These complement the per-module suites with invariants that span
subsystems: plan moves preserve shape, symmetry signatures respect
automorphisms, reliability is monotone in failure probabilities, and
assessments are invariant to things that must not matter (instance
order, host relabeling within a symmetry class).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.transforms import SymmetryChecker
from repro.faults.dependencies import DependencyModel
from repro.faults.inventory import (
    build_paper_inventory,
    build_rich_inventory,
    build_zone_inventory,
)
from repro.faults.probability import DefaultProbabilityPolicy
from repro.routing.base import engine_for
from repro.routing.fattree_fast import FatTreeReachabilityEngine
from repro.runtime import mapreduce
from repro.sampling.dagger import CommonRandomDaggerSampler
from repro.sampling.statistics import estimate_from_results
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.zones import MultiZoneTopology
from tests.conftest import packed_states
from tests.interpreted_oracle import interpreted_assess
from tests.unionfind_oracle import UnionFindReachabilityEngine

# Module-level fixtures built once: hypothesis re-runs the bodies many
# times and the topology is immutable under these tests.
TOPOLOGY = FatTreeTopology(
    4, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
)
INVENTORY = build_paper_inventory(TOPOLOGY, seed=4)
CHECKER = SymmetryChecker(TOPOLOGY, INVENTORY)
HOSTS = list(TOPOLOGY.hosts)


host_sets = st.permutations(HOSTS).map(lambda p: list(p[:4]))


class TestPlanProperties:
    @given(hosts=host_sets, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_neighbor_move_preserves_shape(self, hosts, data):
        plan = DeploymentPlan.single_component(hosts, "app")
        seed = data.draw(st.integers(0, 2**31))
        neighbor = plan.random_neighbor(TOPOLOGY, rng=seed)
        assert neighbor.instance_count() == plan.instance_count()
        assert len(neighbor.host_set()) == len(plan.host_set())
        assert len(plan.host_set() - neighbor.host_set()) == 1

    @given(hosts=host_sets)
    @settings(max_examples=30, deadline=None)
    def test_canonical_key_order_invariant(self, hosts):
        forward = DeploymentPlan.single_component(hosts, "app")
        backward = DeploymentPlan.single_component(list(reversed(hosts)), "app")
        assert forward.canonical_key() == backward.canonical_key()

    @given(hosts=host_sets)
    @settings(max_examples=20, deadline=None)
    def test_signature_order_invariant(self, hosts):
        forward = DeploymentPlan.single_component(hosts, "app")
        backward = DeploymentPlan.single_component(list(reversed(hosts)), "app")
        assert CHECKER.signature(forward) == CHECKER.signature(backward)

    @given(hosts=host_sets)
    @settings(max_examples=20, deadline=None)
    def test_equivalence_is_reflexive(self, hosts):
        plan = DeploymentPlan.single_component(hosts, "app")
        assert CHECKER.equivalent(plan, plan)


class TestReachabilityProperties:
    @given(
        failed_fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_more_failures_never_help(self, failed_fraction, seed):
        """Reachability is antitone in the failure pattern."""
        rng = np.random.default_rng(seed)
        engine = FatTreeReachabilityEngine(TOPOLOGY)
        elements = [cid for cid in TOPOLOGY.components if cid in TOPOLOGY.graph]
        base_failed = {
            cid: np.array([rng.random() < failed_fraction]) for cid in elements
        }
        more_failed = {
            cid: np.array([bool(v[0]) or rng.random() < 0.2])
            for cid, v in base_failed.items()
        }
        hosts = HOSTS[:5]
        states = packed_states(1, base_failed)
        base = engine.external_reachable(states, hosts)
        more = engine.external_reachable(packed_states(1, more_failed), hosts)
        for host in hosts:
            # Anything reachable under MORE failures must be reachable
            # under fewer.
            assert not (
                states.unpack(more[host])[0] and not states.unpack(base[host])[0]
            )

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_pairwise_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        engine = FatTreeReachabilityEngine(TOPOLOGY)
        elements = [cid for cid in TOPOLOGY.components if cid in TOPOLOGY.graph]
        failed = {cid: rng.random(8) < 0.2 for cid in elements}
        a, b = HOSTS[0], HOSTS[7]
        states = packed_states(8, failed)
        fwd = engine.pairwise_reachable(states, [(a, b)])
        rev = engine.pairwise_reachable(packed_states(8, failed), [(b, a)])
        assert np.array_equal(states.unpack(fwd[(a, b)]), states.unpack(rev[(b, a)]))


class TestAssessmentProperties:
    @given(k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_reliability_antitone_in_k(self, k):
        """Requiring more alive instances can only lower reliability."""
        hosts = HOSTS[:4]
        assessor = ReliabilityAssessor(TOPOLOGY, INVENTORY, config=AssessmentConfig(rounds=6_000, rng=9))
        structure_k = ApplicationStructure.k_of_n(k, 4)
        plan = DeploymentPlan.single_component(hosts, structure_k.components[0].name)
        # Reuse one sampled batch implicitly by fixing the assessor seed
        # per comparison pair.
        score_k = ReliabilityAssessor(TOPOLOGY, INVENTORY, config=AssessmentConfig(rounds=6_000, rng=9)).assess(plan, ApplicationStructure.k_of_n(k, 4)).score
        score_1 = ReliabilityAssessor(TOPOLOGY, INVENTORY, config=AssessmentConfig(rounds=6_000, rng=9)).assess(plan, ApplicationStructure.k_of_n(1, 4)).score
        assert score_k <= score_1 + 1e-12

    def test_reliability_monotone_in_probability(self):
        """Raising one deployed host's p can only lower the score."""
        topo = FatTreeTopology(
            4, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
        )
        model = DependencyModel.empty(topo)
        hosts = topo.hosts[:3]
        before = ReliabilityAssessor(topo, model, config=AssessmentConfig(rounds=30_000, rng=2)).assess_k_of_n(
            hosts, 3
        )
        topo.override_probabilities({hosts[0]: 0.2})
        after = ReliabilityAssessor(topo, model, config=AssessmentConfig(rounds=30_000, rng=2)).assess_k_of_n(
            hosts, 3
        )
        assert after.score < before.score

    def test_instance_order_does_not_change_score(self):
        hosts = HOSTS[:4]
        a = ReliabilityAssessor(TOPOLOGY, INVENTORY, config=AssessmentConfig(rounds=8_000, rng=5))
        b = ReliabilityAssessor(TOPOLOGY, INVENTORY, config=AssessmentConfig(rounds=8_000, rng=5))
        forward = a.assess_k_of_n(hosts, 2).score
        backward = b.assess_k_of_n(list(reversed(hosts)), 2).score
        assert forward == pytest.approx(backward, abs=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_score_in_unit_interval(self, seed):
        plan = DeploymentPlan.random(
            TOPOLOGY, ApplicationStructure.k_of_n(2, 3), rng=seed
        )
        assessor = ReliabilityAssessor(TOPOLOGY, INVENTORY, config=AssessmentConfig(rounds=1_000, rng=seed))
        result = assessor.assess(plan, ApplicationStructure.k_of_n(2, 3))
        assert 0.0 <= result.score <= 1.0
        assert result.estimate.ci_lower <= result.score <= result.estimate.ci_upper


LEAFSPINE = LeafSpineTopology(spines=3, leaves=4, hosts_per_leaf=3, seed=2)
ZONES = MultiZoneTopology(zones=2, k=4, seed=7)
SUBSTRATES = [
    (TOPOLOGY, INVENTORY),
    (TOPOLOGY, build_rich_inventory(TOPOLOGY, seed=4)),
    (LEAFSPINE, build_paper_inventory(LEAFSPINE, seed=3)),
    (ZONES, build_zone_inventory(ZONES, seed=7)),
]
STRUCTURES = [
    ApplicationStructure.k_of_n(1, 2),
    ApplicationStructure.k_of_n(3, 4),
    ApplicationStructure.k_of_n(5, 5),
    ApplicationStructure.from_requirement_map(
        {"web": 2, "app": 3, "db": 2}, {("app", "web"): 1, ("db", "app"): 2}
    ),
]


class TestEveryBackendEqualsTheInterpretedOracle:
    """Sequential = incremental = parallel = the interpreted reference, bit
    for bit, under common random numbers (the one sampler all of them can
    share: a component's draws depend on nothing else in the call)."""

    @given(
        substrate=st.sampled_from(SUBSTRATES),
        structure=st.sampled_from(STRUCTURES),
        rounds=st.sampled_from([9, 64, 301]),
        round_reading=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_modes_agree_bit_for_bit(
        self, substrate, structure, rounds, round_reading, seed
    ):
        topology, model = substrate
        plan = DeploymentPlan.random(topology, structure, rng=seed)
        sampler = CommonRandomDaggerSampler(seed)
        # Production on its own engine, or driving the per-round union-find
        # through its door; the reference on the union-find's dense answers
        # wherever the closures coincide (the generic engine's: everything).
        engine = (UnionFindReachabilityEngine if round_reading else engine_for)(topology)
        independent = round_reading or topology is ZONES

        def reference(portion, engine=None if independent else engine):
            return interpreted_assess(
                topology, model, plan, structure, portion, sampler, None,
                engine=engine,
            )

        want, sampled = reference(rounds)
        base = AssessmentConfig(rounds=rounds, rng=seed, engine=engine)
        for config in (
            base.with_updates(sampler=sampler),
            base.with_updates(mode="incremental", master_seed=seed),
        ):
            got = build_assessor(topology, model, config).assess(plan, structure)
            assert np.array_equal(got.per_round, want), config.mode
            assert got.estimate == estimate_from_results(want), config.mode
            assert got.sampled_components == sampled, config.mode

        # Two portions of the rounds, run on the master (a platform without
        # fork); under CRN a portion is the reference at that round count.
        with mock.patch.object(mapreduce, "_fork_available", lambda: False):
            with pytest.warns(RuntimeWarning, match="fork"):
                parallel = build_assessor(
                    topology,
                    model,
                    base.with_updates(mode="parallel", workers=2, sampler=sampler),
                )
        portions = np.concatenate(
            [reference(portion)[0] for portion in parallel._portions(rounds)]
        )
        assert np.array_equal(parallel.assess(plan, structure).per_round, portions)
