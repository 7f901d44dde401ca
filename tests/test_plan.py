"""Tests for deployment plans (repro.core.plan)."""

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan, MoveDescriptor
from repro.util.errors import ConfigurationError, UnsatisfiableRequirements
from tests.structures import two_tier


class TestConstruction:
    def test_single_component(self):
        plan = DeploymentPlan.single_component(["h1", "h2"], "app")
        assert plan.hosts() == ["h1", "h2"]
        assert plan.hosts_for("app") == ("h1", "h2")

    def test_from_mapping_multiple_components(self):
        plan = DeploymentPlan.from_mapping({"fe": ["a", "b"], "db": ["c"]})
        assert plan.hosts() == ["a", "b", "c"]
        assert plan.instance_count() == 3

    def test_rejects_duplicate_hosts(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan.single_component(["h1", "h1"])
        with pytest.raises(ConfigurationError):
            DeploymentPlan.from_mapping({"fe": ["a"], "db": ["a"]})

    def test_host_of_instance(self):
        # Instance ``i`` of a component runs on the ``i``-th of its hosts.
        plan = DeploymentPlan.from_mapping({"fe": ["a", "b"]})
        assert plan.hosts_for("fe")[1] == "b"

    def test_unknown_component(self):
        plan = DeploymentPlan.single_component(["a"])
        with pytest.raises(ConfigurationError):
            plan.hosts_for("ghost")


class TestRandomPlans:
    def test_respects_structure_shape(self, fattree4):
        structure = two_tier(frontends=2, databases=3)
        plan = DeploymentPlan.random(fattree4, structure, rng=1)
        assert len(plan.hosts_for("frontend")) == 2
        assert len(plan.hosts_for("database")) == 3
        assert len(set(plan.hosts())) == 5

    def test_deterministic_with_seed(self, fattree4):
        s = ApplicationStructure.k_of_n(2, 3)
        a = DeploymentPlan.random(fattree4, s, rng=7)
        b = DeploymentPlan.random(fattree4, s, rng=7)
        assert a == b

    def test_forbid_shared_rack(self, fattree4):
        s = ApplicationStructure.k_of_n(3, 4)
        for seed in range(10):
            plan = DeploymentPlan.random(
                fattree4, s, rng=seed, forbid_shared_rack=True
            )
            racks = [fattree4.rack_of(h) for h in plan.hosts()]
            assert len(set(racks)) == len(racks)

    def test_too_many_instances_rejected(self, fattree4):
        s = ApplicationStructure.k_of_n(1, 100)
        with pytest.raises(UnsatisfiableRequirements):
            DeploymentPlan.random(fattree4, s, rng=1)

    def test_too_many_racks_rejected(self, fattree4):
        s = ApplicationStructure.k_of_n(1, 8)  # only 6 racks at k=4
        with pytest.raises(UnsatisfiableRequirements):
            DeploymentPlan.random(fattree4, s, rng=1, forbid_shared_rack=True)


class TestValidation:
    def test_validate_against_happy_path(self, fattree4):
        s = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, s, rng=1)
        plan.validate_against(fattree4, s)

    def test_component_mismatch(self, fattree4):
        s = two_tier()
        plan = DeploymentPlan.single_component(fattree4.hosts[:2], "app")
        with pytest.raises(ConfigurationError):
            plan.validate_against(fattree4, s)

    def test_instance_count_mismatch(self, fattree4):
        s = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(fattree4.hosts[:2], "app")
        with pytest.raises(ConfigurationError):
            plan.validate_against(fattree4, s)

    def test_unknown_host(self, fattree4):
        s = ApplicationStructure.k_of_n(1, 2)
        plan = DeploymentPlan.single_component(["host/0/0/0", "ghost"], "app")
        with pytest.raises(Exception):
            plan.validate_against(fattree4, s)

    def test_non_host_component_rejected(self, fattree4):
        s = ApplicationStructure.k_of_n(1, 2)
        plan = DeploymentPlan.single_component(["host/0/0/0", "edge/0/0"], "app")
        with pytest.raises(Exception):
            plan.validate_against(fattree4, s)


class TestNeighborMoves:
    def test_replace_host(self):
        plan = DeploymentPlan.from_mapping({"fe": ["a", "b"], "db": ["c"]})
        moved = plan.replace_host("b", "z")
        assert moved.hosts_for("fe") == ("a", "z")
        assert moved.hosts_for("db") == ("c",)
        assert plan.hosts_for("fe") == ("a", "b")  # original untouched

    def test_replace_unknown_host(self):
        plan = DeploymentPlan.single_component(["a"])
        with pytest.raises(ConfigurationError):
            plan.replace_host("x", "y")

    def test_replace_with_used_host(self):
        plan = DeploymentPlan.single_component(["a", "b"])
        with pytest.raises(ConfigurationError):
            plan.replace_host("a", "b")

    def test_random_neighbor_differs_by_one(self, fattree4):
        s = ApplicationStructure.k_of_n(2, 4)
        plan = DeploymentPlan.random(fattree4, s, rng=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            neighbor = plan.random_neighbor(fattree4, rng=rng)
            old = set(plan.hosts())
            new = set(neighbor.hosts())
            assert len(old - new) == 1
            assert len(new - old) == 1

    def test_random_neighbor_no_spare_host(self, fattree4):
        s = ApplicationStructure.k_of_n(1, len(fattree4.hosts))
        plan = DeploymentPlan.random(fattree4, s, rng=1)
        with pytest.raises(UnsatisfiableRequirements):
            plan.random_neighbor(fattree4, rng=2)

    def test_move_descriptor_apply(self):
        plan = DeploymentPlan.from_mapping({"fe": ["a", "b"], "db": ["c"]})
        moved = MoveDescriptor("b", "z").apply(plan)
        assert moved.hosts_for("fe") == ("a", "z")
        assert plan.hosts_for("fe") == ("a", "b")  # original untouched

    def test_propose_move_draw_identity(self, fattree4):
        """propose_move consumes the exact RNG stream random_neighbor does,
        so descriptor-based and plan-based proposal walks are identical."""
        s = ApplicationStructure.k_of_n(2, 4)
        plan_a = DeploymentPlan.random(fattree4, s, rng=3)
        plan_b = DeploymentPlan.random(fattree4, s, rng=3)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        for _ in range(25):
            move = plan_a.propose_move(fattree4, rng=rng_a)
            plan_a = move.apply(plan_a)
            plan_b = plan_b.random_neighbor(fattree4, rng=rng_b)
            assert plan_a == plan_b
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestCanonicalKey:
    def test_instance_order_irrelevant(self):
        a = DeploymentPlan.from_mapping({"app": ["x", "y"]})
        b = DeploymentPlan.from_mapping({"app": ["y", "x"]})
        assert a.canonical_key() == b.canonical_key()

    def test_component_assignment_relevant(self):
        a = DeploymentPlan.from_mapping({"fe": ["x"], "db": ["y"]})
        b = DeploymentPlan.from_mapping({"fe": ["y"], "db": ["x"]})
        assert a.canonical_key() != b.canonical_key()

    def test_str(self):
        plan = DeploymentPlan.from_mapping({"fe": ["a"]})
        assert "fe: [a]" in str(plan)

