"""Tests for application structures and generators (repro.app)."""

import pytest

from repro.app.generators import microservice_mesh, multilayer
from repro.app.structure import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    InstanceRef,
    ReachabilityRequirement,
)
from repro.util.errors import ConfigurationError
from tests.structures import two_tier


class TestComponentSpec:
    def test_rejects_external_name(self):
        with pytest.raises(ConfigurationError):
            ComponentSpec(EXTERNAL, 1)

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            ComponentSpec("", 1)

    def test_rejects_zero_instances(self):
        with pytest.raises(ConfigurationError):
            ComponentSpec("app", 0)


class TestReachabilityRequirement:
    def test_rejects_self_requirement(self):
        with pytest.raises(ConfigurationError):
            ReachabilityRequirement("a", "a", 1)

    def test_rejects_zero_min(self):
        with pytest.raises(ConfigurationError):
            ReachabilityRequirement("a", EXTERNAL, 0)


class TestApplicationStructure:
    def test_k_of_n(self):
        s = ApplicationStructure.k_of_n(4, 5)
        assert len(s.components) == 1 and len(s.requirements) == 1
        assert s.total_instances == 5
        assert s.requirements[0].min_reachable == 4
        assert s.requirements[0].source == EXTERNAL

    def test_k_of_n_rejects_k_above_n(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure.k_of_n(6, 5)

    def test_duplicate_component_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure(
                [ComponentSpec("a", 1), ComponentSpec("a", 2)], []
            )

    def test_requirement_unknown_target(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure(
                [ComponentSpec("a", 1)],
                [ReachabilityRequirement("ghost", EXTERNAL, 1)],
            )

    def test_requirement_unknown_source(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure(
                [ComponentSpec("a", 1)],
                [ReachabilityRequirement("a", "ghost", 1)],
            )

    def test_requirement_k_exceeding_n(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure(
                [ComponentSpec("a", 2)],
                [ReachabilityRequirement("a", EXTERNAL, 3)],
            )

    def test_duplicate_requirement_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure(
                [ComponentSpec("a", 2)],
                [
                    ReachabilityRequirement("a", EXTERNAL, 1),
                    ReachabilityRequirement("a", EXTERNAL, 2),
                ],
            )

    def test_needs_at_least_one_component(self):
        with pytest.raises(ConfigurationError):
            ApplicationStructure([], [])

    def test_instances_enumeration(self):
        s = two_tier(frontends=2, databases=2)
        assert s.instances() == [
            InstanceRef("frontend", 0),
            InstanceRef("frontend", 1),
            InstanceRef("database", 0),
            InstanceRef("database", 1),
        ]

    def test_from_requirement_map(self):
        s = ApplicationStructure.from_requirement_map(
            {"fe": 2, "db": 2},
            {("fe", EXTERNAL): 1, ("db", "fe"): 1},
        )
        assert s.total_instances == 4
        assert len(s.requirements) == 2

    def test_requirements_for(self):
        s = two_tier()
        assert len(s.requirements_for("frontend")) == 1
        assert s.requirements_for("database")[0].source == "frontend"

    def test_communication_edges_exclude_external(self):
        s = two_tier()
        assert s.communication_edges() == [("frontend", "database")]

    def test_component_lookup(self):
        s = two_tier()
        assert s.component("frontend").instances == 2
        with pytest.raises(ConfigurationError):
            s.component("ghost")

    def test_repr(self):
        assert "2 components" in repr(two_tier())


class TestTwoTier:
    def test_fig6_defaults(self):
        s = two_tier()
        assert s.component("frontend").instances == 2
        assert s.component("database").instances == 2
        fe_req = s.requirements_for("frontend")[0]
        db_req = s.requirements_for("database")[0]
        assert fe_req.source == EXTERNAL and fe_req.min_reachable == 1
        assert db_req.source == "frontend" and db_req.min_reachable == 1


class TestMultilayer:
    def test_layer_chain(self):
        s = multilayer(3)
        assert s.total_instances == 15
        assert s.requirements_for("layer0")[0].source == EXTERNAL
        assert s.requirements_for("layer1")[0].source == "layer0"
        assert s.requirements_for("layer2")[0].source == "layer1"

    def test_single_layer(self):
        s = multilayer(1)
        assert len(s.components) == 1
        assert [r.source for r in s.requirements] == [EXTERNAL]

    def test_rejects_zero_layers(self):
        with pytest.raises(ConfigurationError):
            multilayer(0)

    def test_custom_redundancy(self):
        s = multilayer(2, instances_per_layer=3, k_per_layer=2)
        assert s.component("layer0").instances == 3
        assert s.requirements_for("layer1")[0].min_reachable == 2


class TestMicroserviceMesh:
    def test_component_count_formula(self):
        # The paper's "X-Y" structure has X + X*Y components (§4.2.3).
        s = microservice_mesh(3, 5)
        assert len(s.components) == 3 + 3 * 5
        s = microservice_mesh(10, 20, instances_per_component=1, k_per_component=1)
        assert len(s.components) == 210  # the paper's 10-20 example

    def test_cores_fully_meshed(self):
        s = microservice_mesh(3, 0)
        core_reqs = [
            r for r in s.requirements if r.component.startswith("core") and r.source.startswith("core")
        ]
        assert len(core_reqs) == 3 * 2  # ordered pairs

    def test_supports_attached_to_own_core(self):
        s = microservice_mesh(2, 3)
        req = s.requirements_for("support1_2")[0]
        assert req.source == "core1"

    def test_external_anchor(self):
        s = microservice_mesh(3, 1, externally_reachable_cores=2)
        externals = [r for r in s.requirements if r.source == EXTERNAL]
        assert {r.component for r in externals} == {"core0", "core1"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            microservice_mesh(0, 1)
        with pytest.raises(ConfigurationError):
            microservice_mesh(2, -1)
        with pytest.raises(ConfigurationError):
            microservice_mesh(2, 1, externally_reachable_cores=3)

    def test_total_instances(self):
        s = microservice_mesh(3, 5, instances_per_component=5)
        assert s.total_instances == 5 * (3 + 15)
