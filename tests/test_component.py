"""Unit tests for the component model (repro.faults.component)."""

import pytest

from repro.faults.component import Component, ComponentType, link_id


class TestComponentType:
    def test_switch_types_are_switches(self):
        for ctype in (
            ComponentType.EDGE_SWITCH,
            ComponentType.AGGREGATION_SWITCH,
            ComponentType.CORE_SWITCH,
            ComponentType.BORDER_SWITCH,
        ):
            assert ctype.is_switch

    def test_non_switch_types(self):
        for ctype in (
            ComponentType.HOST,
            ComponentType.LINK,
            ComponentType.POWER_SUPPLY,
            ComponentType.COOLING,
            ComponentType.OPERATING_SYSTEM,
            ComponentType.LIBRARY,
            ComponentType.FIRMWARE,
        ):
            assert not ctype.is_switch


class TestComponent:
    def test_basic_construction(self):
        c = Component("host/0", ComponentType.HOST, 0.01)
        assert c.component_id == "host/0"
        assert c.failure_probability == 0.01

    def test_zero_probability_is_perfectly_reliable(self):
        c = Component("link/x", ComponentType.LINK, 0.0)
        assert c.failure_probability == 0.0

    def test_rejects_probability_one(self):
        with pytest.raises(ValueError):
            Component("x", ComponentType.HOST, 1.0)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            Component("x", ComponentType.HOST, -0.1)

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError):
            Component("x", ComponentType.HOST, 1.5)

    def test_with_probability_returns_new_component(self):
        c = Component("host/0", ComponentType.HOST, 0.01, {"pod": 3})
        c2 = c.with_probability(0.05)
        assert c2.failure_probability == 0.05
        assert c.failure_probability == 0.01
        assert c2.component_id == c.component_id
        assert c2.attributes == {"pod": 3}

    def test_with_probability_copies_attributes(self):
        c = Component("host/0", ComponentType.HOST, 0.01, {"pod": 3})
        c2 = c.with_probability(0.05)
        c2.attributes["pod"] = 9
        assert c.attributes["pod"] == 3

    def test_equality_ignores_attributes(self):
        a = Component("x", ComponentType.HOST, 0.01, {"pod": 1})
        b = Component("x", ComponentType.HOST, 0.01, {"pod": 2})
        assert a == b

    def test_frozen(self):
        c = Component("x", ComponentType.HOST, 0.01)
        with pytest.raises(AttributeError):
            c.failure_probability = 0.5


class TestLinkId:
    def test_order_independent(self):
        assert link_id("a", "b") == link_id("b", "a")

    def test_contains_both_endpoints(self):
        lid = link_id("host/1", "edge/2")
        assert "host/1" in lid
        assert "edge/2" in lid

    def test_distinct_links_distinct_ids(self):
        assert link_id("a", "b") != link_id("a", "c")
