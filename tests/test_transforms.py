"""Tests for network-transformation symmetry signatures (repro.core.transforms)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.plan import DeploymentPlan, MoveDescriptor
from repro.core.search import DeploymentSearch, SearchSpec
from repro.core.transforms import BatchSymmetryFilter, SymmetryChecker
from repro.faults.component import Component, ComponentType
from repro.faults.dependencies import DependencyModel
from repro.faults.faulttree import BasicEvent
from repro.faults.inventory import build_paper_inventory, build_zone_inventory
from repro.faults.probability import DefaultProbabilityPolicy
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.presets import paper_topology
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry


@pytest.fixture
def uniform_fattree():
    """Fat-tree with uniform per-type probabilities so symmetry is exact."""
    return FatTreeTopology(
        4, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
    )


@pytest.fixture
def uniform_fattree8():
    return FatTreeTopology(
        8, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
    )


@pytest.fixture
def checker(uniform_fattree):
    return SymmetryChecker(uniform_fattree)


def plan_of(*hosts):
    return DeploymentPlan.single_component(list(hosts), "app")


class TestSignatures:
    def test_identical_plans_equal_signature(self, checker):
        a = plan_of("host/0/0/0", "host/1/0/0")
        b = plan_of("host/0/0/0", "host/1/0/0")
        assert checker.signature(a) == checker.signature(b)

    def test_pod_permutation_is_symmetric(self, checker):
        """Without shared dependencies, relabeling pods is an automorphism."""
        a = plan_of("host/0/0/0", "host/1/0/0")
        b = plan_of("host/1/0/0", "host/2/0/0")
        assert checker.signature(a) == checker.signature(b)
        assert checker.equivalent(a, b)

    def test_host_position_within_rack_symmetric(self, checker):
        a = plan_of("host/0/0/0")
        b = plan_of("host/0/0/1")
        assert checker.equivalent(a, b)

    def test_colocation_pattern_breaks_symmetry(self, checker):
        same_rack = plan_of("host/0/0/0", "host/0/0/1")
        same_pod = plan_of("host/0/0/0", "host/0/1/0")
        cross_pod = plan_of("host/0/0/0", "host/1/0/0")
        signatures = {
            checker.signature(same_rack),
            checker.signature(same_pod),
            checker.signature(cross_pod),
        }
        assert len(signatures) == 3
        assert not checker.equivalent(same_rack, cross_pod)

    def test_instance_order_irrelevant(self, checker):
        a = plan_of("host/0/0/0", "host/1/0/0")
        b = plan_of("host/1/0/0", "host/0/0/0")
        assert checker.signature(a) == checker.signature(b)

    def test_component_assignment_matters(self, checker):
        a = DeploymentPlan.from_mapping(
            {"fe": ["host/0/0/0", "host/0/0/1"], "db": ["host/1/0/0"]}
        )
        b = DeploymentPlan.from_mapping(
            {"fe": ["host/0/0/0", "host/1/0/0"], "db": ["host/0/0/1"]}
        )
        assert checker.signature(a) != checker.signature(b)


class TestProbabilityClasses:
    def test_different_probability_breaks_symmetry(self, uniform_fattree):
        """§3.3.1: same-type components with very different probabilities
        are logically different types."""
        uniform_fattree.override_probabilities({"host/0/0/0": 0.2})
        checker = SymmetryChecker(uniform_fattree)
        a = plan_of("host/0/0/0")
        b = plan_of("host/1/0/0")
        assert checker.signature(a) != checker.signature(b)
        assert not checker.equivalent(a, b)

    def test_similar_probabilities_quantised_together(self, uniform_fattree):
        uniform_fattree.override_probabilities(
            {"host/0/0/0": 0.0101, "host/1/0/0": 0.0099}
        )
        checker = SymmetryChecker(uniform_fattree, probability_decimals=2)
        assert checker.equivalent(plan_of("host/0/0/0"), plan_of("host/1/0/0"))

    def test_quantisation_granularity_configurable(self, uniform_fattree):
        uniform_fattree.override_probabilities(
            {"host/0/0/0": 0.0101, "host/1/0/0": 0.0099}
        )
        fine = SymmetryChecker(uniform_fattree, probability_decimals=4)
        assert not fine.equivalent(plan_of("host/0/0/0"), plan_of("host/1/0/0"))

    def test_rejects_negative_decimals(self, uniform_fattree):
        with pytest.raises(ConfigurationError):
            SymmetryChecker(uniform_fattree, probability_decimals=-1)


class TestSharedDependencies:
    def test_power_sharing_pattern_in_signature(self, uniform_fattree):
        """Plans with different power-supply sharing must differ."""
        model = build_paper_inventory(uniform_fattree, seed=5)
        checker = SymmetryChecker(uniform_fattree, model)
        hosts = uniform_fattree.hosts

        def rack_supply(host):
            events = model.tree_for(host).basic_events() - {host}
            return next(iter(events))

        # Find two cross-pod pairs: one sharing a rack supply, one not.
        shared_pair = diverse_pair = None
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                if uniform_fattree.pod_of(a) == uniform_fattree.pod_of(b):
                    continue
                if rack_supply(a) == rack_supply(b) and shared_pair is None:
                    shared_pair = (a, b)
                if rack_supply(a) != rack_supply(b) and diverse_pair is None:
                    diverse_pair = (a, b)
        assert shared_pair and diverse_pair
        assert not checker.equivalent(plan_of(*shared_pair), plan_of(*diverse_pair))


class TestBatchSymmetryFilter:
    """The search-loop wrapper must be verdict-identical to the checker:
    the certificate is a complete isomorphism invariant and the WL + VF2
    fallback is the unwrapped check itself."""

    def _walk(self, topology, moves=60, seed=11):
        rng = np.random.default_rng(seed)
        plan = DeploymentPlan.single_component(list(topology.hosts[:3]), "app")
        pairs = []
        for _ in range(moves):
            neighbor = plan.propose_move(topology, rng=rng).apply(plan)
            pairs.append((plan, neighbor))
            plan = neighbor
        return pairs

    def test_verdicts_match_unwrapped_checker(self, uniform_fattree):
        filt = BatchSymmetryFilter(SymmetryChecker(uniform_fattree))
        reference = SymmetryChecker(uniform_fattree)
        verdicts = []
        for plan, neighbor in self._walk(uniform_fattree):
            verdict = filt.equivalent(plan, neighbor)
            assert verdict == reference.equivalent(plan, neighbor)
            verdicts.append(verdict)
        # The walk must exercise both verdicts for the test to mean much.
        assert any(verdicts) and not all(verdicts)

    def test_certificates_decide_small_plans(self, uniform_fattree):
        filt = BatchSymmetryFilter(SymmetryChecker(uniform_fattree))
        for plan, neighbor in self._walk(uniform_fattree, moves=40):
            filt.equivalent(plan, neighbor)
        assert filt.metrics.counter("symmetry/certificate") > 0
        # 3 instances never exceed the budget
        assert filt.metrics.counter("symmetry/budget_overflow") == 0
        assert filt.metrics.counter("symmetry/fallback") == 0

    def test_certificate_none_over_permutation_budget(self, uniform_fattree):
        """Two full pods: eight instances that all share a rack with one
        and a pod with three others. Colour refinement cannot split them
        and every one is in a shared group, so 8! renumberings exceed the
        budget: the certificate declines and the verdict comes from the
        exact WL + VF2 fallback, still matching the unwrapped checker."""
        checker = SymmetryChecker(uniform_fattree)
        filt = BatchSymmetryFilter(checker)
        pod_host = lambda pod: [
            h for h in uniform_fattree.hosts if uniform_fattree.pod_of(h) == pod
        ]
        a = plan_of(*pod_host(0), *pod_host(1))
        b = plan_of(*pod_host(1), *pod_host(2))  # pods 0->1->2 relabelling
        assert filt.certificate(a) is None
        assert filt.equivalent(a, b)
        assert checker.equivalent(a, b)
        assert filt.metrics.snapshot()["counters"] == {
            "symmetry/certificate_built": 1,
            "symmetry/budget_overflow": 1,
            "symmetry/fallback": 1,
        }

    def test_unshared_instances_stay_out_of_the_budget(self, uniform_fattree):
        """Eight interchangeable instances that share no group with anyone
        (no pods, no dependencies: one host per rack of a bare leaf-spine)
        have nothing to permute — the old certificate paid 8! for them."""
        topology = LeafSpineTopology(
            spines=2,
            leaves=9,
            hosts_per_leaf=2,
            probability_policy=DefaultProbabilityPolicy(0.01),
            seed=1,
        )
        one_per_rack = [topology.hosts_in_rack(rack)[0] for rack in topology.racks()]
        checker = SymmetryChecker(topology)
        filt = BatchSymmetryFilter(checker)
        a, b = plan_of(*one_per_rack[:8]), plan_of(*one_per_rack[1:])
        assert filt.certificate(a) is not None
        assert filt.equivalent(a, b) and checker.equivalent(a, b)
        # Two of them in one rack is a different plan.
        c = plan_of(*one_per_rack[:7], topology.hosts_in_rack(topology.racks()[0])[1])
        assert not filt.equivalent(a, c) and not checker.equivalent(a, c)
        assert filt.metrics.counter("symmetry/fallback") == 0

    def test_reordered_instances_short_circuit(self, uniform_fattree):
        filt = BatchSymmetryFilter(SymmetryChecker(uniform_fattree))
        a = plan_of("host/0/0/0", "host/1/0/0")
        b = plan_of("host/1/0/0", "host/0/0/0")
        assert filt.equivalent(a, b)
        assert filt.metrics.snapshot()["counters"] == {}

    def test_differing_probability_class_is_not_symmetric(self, uniform_fattree):
        """A move between hosts of different probability classes changes
        the moved instance's colour, so the certificates differ."""
        uniform_fattree.override_probabilities({"host/0/0/0": 0.2})
        checker = SymmetryChecker(uniform_fattree)
        filt = BatchSymmetryFilter(checker)
        plan = plan_of("host/0/0/0", "host/1/0/0")
        neighbor = MoveDescriptor("host/0/0/0", "host/2/0/0").apply(plan)
        assert not filt.equivalent(plan, neighbor)
        assert not checker.equivalent(plan, neighbor)
        assert filt.metrics.counter("symmetry/certificate") == 1

    def test_search_counts_tiers_in_its_registry(self, uniform_fattree):
        """The search hands its registry to the filter, so the tier
        counters land in ``--profile`` / ``RuntimeMetadata.profile``."""
        registry = MetricsRegistry()
        search = DeploymentSearch.from_config(
            uniform_fattree,
            None,
            AssessmentConfig(mode="incremental", rounds=400, rng=3, metrics=registry),
            rng=4,
        )
        result = search.search(
            SearchSpec(
                ApplicationStructure.k_of_n(3, 3), max_seconds=60.0, max_iterations=15
            )
        )
        screened = registry.counter("symmetry/certificate") + registry.counter(
            "symmetry/fallback"
        )
        assert screened == result.candidates_proposed == 15
        assert registry.counter("symmetry/certificate_built") > 0
        # flat() is what both surfaces carry.
        assert dict(registry.flat())["counter/symmetry/certificate"] > 0


# ---------------------------------------------------------------------------
# Differential oracle: the certificate against the unwrapped checker
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _substrate(name):
    """(checker, host pool): the pool is a few racks' worth of hosts, so
    drawn plans share racks, pods and supplies often enough for both
    verdicts to occur."""
    if name == "medium":
        topology = paper_topology("medium", seed=1)
        model = build_paper_inventory(topology, seed=2)
    elif name == "zones":
        topology = MultiZoneTopology(zones=2, k=4, seed=1)
        model = build_zone_inventory(topology, seed=2)
    else:
        topology = LeafSpineTopology(spines=4, leaves=6, hosts_per_leaf=3, seed=2)
        model = build_paper_inventory(topology, seed=3)
    racks = topology.racks()
    step = max(1, len(racks) // 8)
    pool = [h for rack in racks[::step][:8] for h in topology.hosts_in_rack(rack)[:3]]
    return SymmetryChecker(topology, model), pool


def _plan(hosts, split):
    """One component, or two when ``split`` cuts the host list."""
    if split == 0:
        return plan_of(*hosts)
    return DeploymentPlan.from_mapping({"web": hosts[:split], "db": hosts[split:]})


@st.composite
def plan_pairs(draw):
    name = draw(st.sampled_from(["medium", "zones", "leafspine"]))
    checker, pool = _substrate(name)
    size = draw(st.integers(2, 10))
    hosts_a = draw(
        st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)
    )
    split = draw(st.integers(0, size - 1))
    # The second plan is a few host swaps away, like a search neighbour,
    # and may deal the same hosts to the components differently.
    hosts_b = list(hosts_a)
    for _ in range(draw(st.integers(0, 3))):
        replacement = draw(st.sampled_from(pool))
        if replacement not in hosts_b:
            hosts_b[draw(st.integers(0, size - 1))] = replacement
    if split and draw(st.booleans()):
        hosts_b = draw(st.permutations(hosts_b))
    return checker, _plan(hosts_a, split), _plan(hosts_b, split)


class TestCertificateAgainstChecker:
    @given(pair=plan_pairs())
    @settings(max_examples=300, deadline=None)
    def test_random_neighbouring_plans(self, pair):
        checker, a, b = pair
        filt = BatchSymmetryFilter(checker)
        assert filt.equivalent(a, b) == checker.equivalent(a, b)
        if filt.certificate(a) is not None and filt.certificate(b) is not None:
            # Decided by certificates, not by the fallback the oracle is.
            assert filt.metrics.counter("symmetry/fallback") == 0

    def test_swapping_components_between_zones_is_not_a_symmetry(self):
        """Same class sizes, same (empty) shared-group multiset: only the
        colour tables tell the two plans apart."""
        checker, _ = _substrate("zones")
        filt = BatchSymmetryFilter(checker)
        here, there = "zone0/host/0/0/0", "zone1/host/0/0/0"
        a = DeploymentPlan.from_mapping({"web": [here], "db": [there]})
        b = DeploymentPlan.from_mapping({"web": [there], "db": [here]})
        assert filt.certificate(a)[1:] == filt.certificate(b)[1:]
        assert not filt.equivalent(a, b)
        assert not checker.equivalent(a, b)

    @staticmethod
    def _pods(topology, count, per_pod):
        """``per_pod`` hosts in distinct racks of each of ``count`` pods."""
        pods = {}
        for rack in topology.racks():
            host = topology.hosts_in_rack(rack)[0]
            pods.setdefault(topology.pod_of(host), []).append(host)
        chosen = [hosts[:per_pod] for hosts in pods.values() if len(hosts) >= per_pod]
        return chosen[:count]

    def test_two_pods_of_two_need_the_permutations(self, uniform_fattree8):
        """Refinement cannot tell the four instances apart (each shares a
        pod with one other), so the verdict rests on the minimisation: the
        same four hosts as 2+2 match any other 2+2 and no 3+1."""
        checker = SymmetryChecker(uniform_fattree8)
        filt = BatchSymmetryFilter(checker)
        (a0, a1, a2), (b0, b1, _), (c0, c1, _) = self._pods(uniform_fattree8, 3, 3)
        two_two = plan_of(a0, b0, a1, b1)  # instance order interleaves the pods
        other_two_two = plan_of(c0, c1, a0, a1)
        three_one = plan_of(a0, a1, a2, b0)
        certificate = filt.certificate(two_two)
        assert len(certificate[0]) == 1 and certificate[1] == (4,)  # one class
        assert filt.equivalent(two_two, other_two_two)
        assert checker.equivalent(two_two, other_two_two)
        assert not filt.equivalent(two_two, three_one)
        assert not checker.equivalent(two_two, three_one)
        assert filt.metrics.counter("symmetry/fallback") == 0

    def test_pod_and_supply_sharing_patterns_are_told_apart(self):
        """Four instances, two per pod, two per power supply: whether the
        supply pairs coincide with the pod pairs or cross them is invisible
        to refinement (every instance shares a pod with one and a supply
        with one) and decides equivalence."""
        topology = FatTreeTopology(
            8, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
        )
        (a0, a1), (b0, b1), (c0, c1), (d0, d1) = TestCertificateAgainstChecker._pods(
            topology, 4, 2
        )

        def model_with(*supplied_pairs):
            model = DependencyModel.empty(topology)
            for index, pair in enumerate(supplied_pairs):
                supply = Component(
                    f"psu/{index}", ComponentType.POWER_SUPPLY, failure_probability=0.01
                )
                model.add_dependency_component(supply)
                for host in pair:
                    model.attach_branch(host, BasicEvent(supply.component_id))
            return model

        aligned = model_with((a0, a1), (b0, b1), (c0, d0), (c1, d1))
        checker = SymmetryChecker(topology, aligned)
        filt = BatchSymmetryFilter(checker)
        with_pods = plan_of(a0, b0, a1, b1)  # supplies follow the pods
        across_pods = plan_of(c0, c1, d0, d1)  # supplies cross the pods
        for plan in (with_pods, across_pods):
            certificate = filt.certificate(plan)
            assert certificate is not None and certificate[1] == (4,)
        assert filt.certificate(with_pods)[:2] == filt.certificate(across_pods)[:2]
        assert not filt.equivalent(with_pods, across_pods)
        assert not checker.equivalent(with_pods, across_pods)
        assert filt.equivalent(with_pods, plan_of(b1, a1, b0, a0))
        assert filt.metrics.counter("symmetry/fallback") == 0
