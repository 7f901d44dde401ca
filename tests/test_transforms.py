"""Tests for network-transformation symmetry signatures (repro.core.transforms)."""

import functools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.plan import DeploymentPlan, MoveDescriptor
from repro.core.search import DeploymentSearch, SearchSpec
from repro.core import transforms
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
        checker = SymmetryChecker(uniform_fattree)
        assert checker.equivalent(plan_of("host/0/0/0"), plan_of("host/1/0/0"))


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


def _distinct(pairs):
    return [(a, b) for a, b in pairs if a.canonical_key() != b.canonical_key()]


class TestBatchSymmetryFilter:
    """The search-loop wrapper must be verdict-identical to the checker:
    equal refinement invariants are necessary for an isomorphism and the
    bijection search behind them is exhaustive."""

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

    def test_counters_count_what_ran(self, uniform_fattree):
        """One refinement per distinct plan, one matching per pair whose
        invariants are equal, at least one extension per instance of a
        matching that succeeds."""
        filt = BatchSymmetryFilter(SymmetryChecker(uniform_fattree))
        pairs = _distinct(self._walk(uniform_fattree, moves=40))
        verdicts = [filt.equivalent(plan, neighbor) for plan, neighbor in pairs]
        plans = {plan.canonical_key() for pair in pairs for plan in pair}
        equal_invariants = sum(
            filt.refinement(a).invariant == filt.refinement(b).invariant
            for a, b in pairs
        )
        counter = filt.metrics.counter
        assert counter("symmetry/screened") == len(pairs)
        assert counter("symmetry/refined") == len(plans)
        assert counter("symmetry/matched") == equal_invariants >= sum(verdicts) > 0
        assert counter("symmetry/extensions") >= 3 * sum(verdicts)
        assert set(filt.metrics.snapshot()["counters"]) == {
            "symmetry/screened",
            "symmetry/refined",
            "symmetry/matched",
            "symmetry/extensions",
        }

    def test_two_full_pods_need_no_budget(self, uniform_fattree):
        """Two full pods: eight instances that all share a rack with one
        and a pod with three others. Colour refinement cannot split them
        and every one is in a shared group — 8! renumberings, which the
        enumerating certificate used to decline. The bijection search
        maps them in a few more extensions than there are instances."""
        checker = SymmetryChecker(uniform_fattree)
        filt = BatchSymmetryFilter(checker)
        pod_host = lambda pod: [
            h for h in uniform_fattree.hosts if uniform_fattree.pod_of(h) == pod
        ]
        a = plan_of(*pod_host(0), *pod_host(1))
        b = plan_of(*pod_host(1), *pod_host(2))  # pods 0->1->2 relabelling
        assert filt.refinement(a).classes == [list(range(8))]
        assert filt.equivalent(a, b)
        assert checker.equivalent(a, b)
        counters = filt.metrics.snapshot()["counters"]
        assert 8 <= counters.pop("symmetry/extensions") <= 16
        assert counters == {
            "symmetry/refined": 2,
            "symmetry/screened": 1,
            "symmetry/matched": 1,
        }

    def test_unshared_instances_map_on_the_first_descent(self, uniform_fattree):
        """Eight interchangeable instances that share no group with anyone
        (no pods, no dependencies: one host per rack of a bare leaf-spine):
        any bijection inside the class will do, so the first one tried does."""
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
        assert filt.equivalent(a, b) and checker.equivalent(a, b)
        assert filt.metrics.counter("symmetry/extensions") == 8
        # Two of them in one rack is a different plan: the invariants say so.
        c = plan_of(*one_per_rack[:7], topology.hosts_in_rack(topology.racks()[0])[1])
        assert not filt.equivalent(a, c) and not checker.equivalent(a, c)
        assert filt.metrics.counter("symmetry/matched") == 1

    def test_reordered_instances_short_circuit(self, uniform_fattree):
        filt = BatchSymmetryFilter(SymmetryChecker(uniform_fattree))
        a = plan_of("host/0/0/0", "host/1/0/0")
        b = plan_of("host/1/0/0", "host/0/0/0")
        assert filt.equivalent(a, b)
        assert filt.metrics.snapshot()["counters"] == {}

    def test_differing_probability_class_is_not_symmetric(self, uniform_fattree):
        """A move between hosts of different probability classes changes
        the moved instance's colour, so the invariants differ."""
        uniform_fattree.override_probabilities({"host/0/0/0": 0.2})
        checker = SymmetryChecker(uniform_fattree)
        filt = BatchSymmetryFilter(checker)
        plan = plan_of("host/0/0/0", "host/1/0/0")
        neighbor = MoveDescriptor("host/0/0/0", "host/2/0/0").apply(plan)
        assert not filt.equivalent(plan, neighbor)
        assert not checker.equivalent(plan, neighbor)
        assert filt.metrics.counter("symmetry/screened") == 1
        assert filt.metrics.counter("symmetry/matched") == 0

    def test_cache_is_bounded(self, uniform_fattree, monkeypatch):
        monkeypatch.setattr(transforms, "MAX_REFINEMENTS", 4)
        filt = BatchSymmetryFilter(SymmetryChecker(uniform_fattree))
        for plan, neighbor in self._walk(uniform_fattree, moves=20):
            filt.equivalent(plan, neighbor)
        assert len(filt._refinements) == 4

    def test_search_counts_screening_in_its_registry(self, uniform_fattree):
        """The search hands its registry to the filter, so the screening
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
        assert registry.counter("symmetry/screened") == result.candidates_proposed == 15
        assert registry.counter("symmetry/refined") > 0
        assert registry.counter("symmetry/matched") >= result.plans_skipped_symmetric
        # flat() is what both surfaces carry.
        assert dict(registry.flat())["counter/symmetry/screened"] == 15


# ---------------------------------------------------------------------------
# Differential oracle: the filter against the unwrapped checker
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
    size = draw(st.integers(2, 16))
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
    reordered = _plan(
        draw(st.permutations(hosts_a[:split])) + draw(st.permutations(hosts_a[split:])),
        split,
    )
    return checker, _plan(hosts_a, split), _plan(hosts_b, split), reordered


def _supplied(topology, *host_groups):
    """A model with one power supply per group of hosts, nothing else."""
    model = DependencyModel.empty(topology)
    for index, hosts in enumerate(host_groups):
        supply = Component(
            f"psu/{index}", ComponentType.POWER_SUPPLY, failure_probability=0.01
        )
        model.add_dependency_component(supply)
        for host in hosts:
            model.attach_branch(host, BasicEvent(supply.component_id))
    return model


class TestCertificateAgainstChecker:
    @given(pair=plan_pairs())
    @settings(max_examples=300, deadline=None)
    def test_random_neighbouring_plans(self, pair):
        checker, a, b, a_reordered = pair
        filt = BatchSymmetryFilter(checker)
        verdict = checker.equivalent(a, b)
        assert filt.equivalent(a, b) == verdict
        # Symmetric in its arguments (the search order is ``b``'s then),
        # and blind to the order a plan lists its instances in.
        assert filt.equivalent(b, a) == verdict
        assert BatchSymmetryFilter(checker).equivalent(a_reordered, b) == verdict
        assert BatchSymmetryFilter(checker).equivalent(b, a_reordered) == verdict

    def test_swapping_components_between_zones_is_not_a_symmetry(self):
        """Same class sizes, same (empty) shared-group multiset: only the
        colour tables tell the two plans apart."""
        checker, _ = _substrate("zones")
        filt = BatchSymmetryFilter(checker)
        here, there = "zone0/host/0/0/0", "zone1/host/0/0/0"
        a = DeploymentPlan.from_mapping({"web": [here], "db": [there]})
        b = DeploymentPlan.from_mapping({"web": [there], "db": [here]})
        assert filt.refinement(a).invariant[1:] == filt.refinement(b).invariant[1:]
        assert not filt.equivalent(a, b)
        assert not checker.equivalent(a, b)
        assert filt.metrics.counter("symmetry/matched") == 0

    @staticmethod
    def _pods(topology, count, per_pod, first_rack=0):
        """``per_pod`` hosts in distinct racks of each of ``count`` pods,
        starting at each pod's ``first_rack``-th rack."""
        pods = {}
        for rack in topology.racks():
            host = topology.hosts_in_rack(rack)[0]
            pods.setdefault(topology.pod_of(host), []).append(host)
        chosen = [
            hosts[first_rack : first_rack + per_pod]
            for hosts in pods.values()
            if len(hosts) >= first_rack + per_pod
        ]
        return chosen[:count]

    def test_two_pods_of_two_need_the_permutations(self, uniform_fattree8):
        """Refinement cannot tell the four instances apart (each shares a
        pod with one other), so the verdict rests on the bijection search:
        the same four hosts as 2+2 match any other 2+2 and no 3+1."""
        checker = SymmetryChecker(uniform_fattree8)
        filt = BatchSymmetryFilter(checker)
        (a0, a1, a2), (b0, b1, _), (c0, c1, _) = self._pods(uniform_fattree8, 3, 3)
        two_two = plan_of(a0, b0, a1, b1)  # instance order interleaves the pods
        other_two_two = plan_of(c0, c1, a0, a1)
        three_one = plan_of(a0, a1, a2, b0)
        refinement = filt.refinement(two_two)
        assert len(refinement.invariant[0]) == 1  # one round, one class
        assert refinement.classes == [[0, 1, 2, 3]]
        assert filt.equivalent(two_two, other_two_two)
        assert checker.equivalent(two_two, other_two_two)
        assert filt.metrics.counter("symmetry/matched") == 1
        assert not filt.equivalent(two_two, three_one)
        assert not checker.equivalent(two_two, three_one)

    def test_four_pods_of_two(self, uniform_fattree8):
        """Eight instances in one class, all of them in shared groups:
        2!^4 * 4! pod-respecting renumberings out of 8!, past the old
        certificate's budget."""
        checker = SymmetryChecker(uniform_fattree8)
        filt = BatchSymmetryFilter(checker)
        pods = self._pods(uniform_fattree8, 7, 3)
        four_twos = plan_of(*(pod[i] for i in (0, 1) for pod in pods[:4]))
        other_four_twos = plan_of(*(host for pod in pods[3:7] for host in pod[1:]))
        uneven = plan_of(*pods[0], *pods[1], pods[2][0], pods[3][0])  # 3+3+1+1
        assert filt.refinement(four_twos).classes == [list(range(8))]
        for other, verdict in ((other_four_twos, True), (uneven, False)):
            assert filt.equivalent(four_twos, other) is verdict
            assert filt.equivalent(other, four_twos) is verdict
            assert checker.equivalent(four_twos, other) is verdict
        # Only the 2+2+2+2 pair reached the bijection search, once each way.
        assert filt.metrics.counter("symmetry/matched") == 2
        assert filt.metrics.counter("symmetry/extensions") <= 2 * 8 * 2

    def test_eight_under_one_supply(self):
        """Eight interchangeable instances, one per rack, all fed by one
        supply: a single shared group of eight, 8! renumberings of it."""
        topology = LeafSpineTopology(
            spines=2,
            leaves=10,
            hosts_per_leaf=2,
            probability_policy=DefaultProbabilityPolicy(0.01),
            seed=1,
        )
        hosts = [topology.hosts_in_rack(rack)[0] for rack in topology.racks()]
        checker = SymmetryChecker(topology, _supplied(topology, hosts[:9]))
        filt = BatchSymmetryFilter(checker)
        supplied = plan_of(*hosts[:8])
        also_supplied = plan_of(*hosts[8:0:-1])
        one_outside = plan_of(*hosts[:7], hosts[9])
        assert filt.equivalent(supplied, also_supplied)
        assert checker.equivalent(supplied, also_supplied)
        assert filt.metrics.counter("symmetry/extensions") == 8
        assert not filt.equivalent(supplied, one_outside)
        assert not checker.equivalent(supplied, one_outside)
        assert filt.metrics.counter("symmetry/matched") == 1

    def test_pod_and_supply_sharing_patterns_are_told_apart(self):
        """Four instances, two per pod, two per power supply: whether the
        supply pairs coincide with the pod pairs or cross them is invisible
        to refinement (every instance shares a pod with one and a supply
        with one) and decides equivalence."""
        topology = FatTreeTopology(
            8, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
        )
        (a0, a1), (b0, b1), (c0, c1), (d0, d1) = self._pods(topology, 4, 2)
        aligned = _supplied(topology, (a0, a1), (b0, b1), (c0, d0), (c1, d1))
        checker = SymmetryChecker(topology, aligned)
        filt = BatchSymmetryFilter(checker)
        with_pods = plan_of(a0, b0, a1, b1)  # supplies follow the pods
        across_pods = plan_of(c0, c1, d0, d1)  # supplies cross the pods
        assert filt.refinement(with_pods).classes == [[0, 1, 2, 3]]
        assert (
            filt.refinement(with_pods).invariant
            == filt.refinement(across_pods).invariant
        )
        assert not filt.equivalent(with_pods, across_pods)
        assert not checker.equivalent(with_pods, across_pods)
        assert filt.metrics.counter("symmetry/matched") == 1
        # Listing the instances in another order changes nothing.
        reordered = BatchSymmetryFilter(checker)
        assert not reordered.equivalent(plan_of(b1, a1, b0, a0), across_pods)
        assert reordered.metrics.counter("symmetry/matched") == 1

    def test_twelve_instances_within_a_stated_bound(self):
        """The same pattern at six pods of two: twelve instances in one
        class, equal invariants, and no bijection. Every first assignment
        dies as soon as its pod (and supply) is fully mapped, so refuting
        all of them costs at most ``n * 2n`` extensions — not 12! — and
        confirming a genuinely symmetric pair at most ``3n``."""
        topology = FatTreeTopology(
            8, probability_policy=DefaultProbabilityPolicy(0.01), seed=3
        )
        low = self._pods(topology, 7, 2)
        high = self._pods(topology, 6, 2, first_rack=2)
        crossing = [
            (high[pod][rack], high[pod + 1][rack])
            for pod in (0, 2, 4)
            for rack in (0, 1)
        ]
        checker = SymmetryChecker(topology, _supplied(topology, *low, *crossing))
        filt = BatchSymmetryFilter(checker)
        with_pods = plan_of(*(host for pod in low[:6] for host in pod))
        across_pods = plan_of(*(host for pod in high for host in pod))
        assert filt.refinement(with_pods).classes == [list(range(12))]
        assert (
            filt.refinement(with_pods).invariant
            == filt.refinement(across_pods).invariant
        )
        n = 12
        for a, b in ((with_pods, across_pods), (across_pods, with_pods)):
            before = filt.metrics.counter("symmetry/extensions")
            assert not filt.equivalent(a, b)
            assert filt.metrics.counter("symmetry/extensions") - before <= n * 2 * n
        assert not checker.equivalent(with_pods, across_pods)
        shifted = plan_of(*(pod[i] for i in (1, 0) for pod in reversed(low[1:])))
        before = filt.metrics.counter("symmetry/extensions")
        assert filt.equivalent(with_pods, shifted)
        assert checker.equivalent(with_pods, shifted)
        assert n <= filt.metrics.counter("symmetry/extensions") - before <= 3 * n


_HASH_SEED_SCRIPT = """
import numpy as np
from repro.core.plan import DeploymentPlan
from repro.core.transforms import BatchSymmetryFilter, SymmetryChecker
from repro.faults.inventory import build_paper_inventory
from repro.topology.presets import paper_topology

topology = paper_topology("tiny", seed=1)
filt = BatchSymmetryFilter(
    SymmetryChecker(topology, build_paper_inventory(topology, seed=2))
)
rng = np.random.default_rng(5)
plan = DeploymentPlan.single_component(list(topology.hosts[:6]), "app")
verdicts = ""
for _ in range(80):
    neighbor = plan.propose_move(topology, rng=rng).apply(plan)
    verdicts += "01"[filt.equivalent(plan, neighbor)]
    plan = neighbor
print(verdicts, sorted(filt.metrics.snapshot()["counters"].items()))
"""


def test_verdicts_and_counts_repeat_across_hash_seeds():
    """Interned ids are handed out in first-seen order and never leave the
    filter: verdicts — and even the work counters — cannot depend on
    ``PYTHONHASHSEED``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
    verdicts = outputs.pop().split()[0]
    assert "0" in verdicts and "1" in verdicts
