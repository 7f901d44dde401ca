"""Unit + property tests for fault trees (repro.faults.faulttree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.faulttree import (
    BasicEvent,
    FaultTree,
    Gate,
    GateKind,
    and_gate,
    basic,
    iter_basic_events,
    k_of_n_gate,
    merge_shared_events,
    or_gate,
    trivial_tree,
)
from repro.util.errors import ConfigurationError
from tests.interpreted_oracle import evaluate, evaluate_round, exact_failure_probability


def _fig5_tree() -> FaultTree:
    """The example host fault tree of the paper's Fig. 5."""
    software = or_gate(basic("os"), basic("lib"), label="software fails")
    power = and_gate(basic("psu-a"), basic("psu-b"), label="power fails")
    cooling = and_gate(basic("cool-a"), basic("cool-b"), label="cooling fails")
    return FaultTree("host", or_gate(basic("host"), software, power, cooling))


class TestConstruction:
    def test_gate_requires_children(self):
        with pytest.raises(ConfigurationError):
            Gate(GateKind.OR, ())

    def test_k_of_n_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            k_of_n_gate(0, basic("a"), basic("b"))
        with pytest.raises(ConfigurationError):
            k_of_n_gate(3, basic("a"), basic("b"))

    def test_basic_events_collected(self):
        tree = _fig5_tree()
        assert tree.basic_events() == {
            "host", "os", "lib", "psu-a", "psu-b", "cool-a", "cool-b",
        }

    def test_depth(self):
        assert trivial_tree("x").depth() == 1
        assert _fig5_tree().depth() == 3

    def test_iter_basic_events_yields_duplicates(self):
        tree = or_gate(basic("a"), and_gate(basic("a"), basic("b")))
        events = [e.component_id for e in iter_basic_events(tree)]
        assert sorted(events) == ["a", "a", "b"]

    def test_str_representations(self):
        assert str(basic("a")) == "a"
        assert "or(" in str(or_gate(basic("a"), basic("b")))
        assert "k_of_n(2;" in str(k_of_n_gate(2, basic("a"), basic("b"), basic("c")))


class TestFig5Semantics:
    """The four behaviours the paper spells out for Fig. 5."""

    def test_fails_if_own_hardware_fails(self):
        assert evaluate_round(_fig5_tree(), {"host"})

    def test_fails_if_any_software_fails(self):
        assert evaluate_round(_fig5_tree(), {"os"})
        assert evaluate_round(_fig5_tree(), {"lib"})

    def test_power_needs_both_supplies(self):
        tree = _fig5_tree()
        assert not evaluate_round(tree, {"psu-a"})
        assert not evaluate_round(tree, {"psu-b"})
        assert evaluate_round(tree, {"psu-a", "psu-b"})

    def test_cooling_needs_both_units(self):
        tree = _fig5_tree()
        assert not evaluate_round(tree, {"cool-a"})
        assert evaluate_round(tree, {"cool-a", "cool-b"})

    def test_alive_with_no_failures(self):
        assert not evaluate_round(_fig5_tree(), set())


class TestVectorisedEvaluation:
    def test_matches_scalar_on_fig5(self, rng):
        tree = _fig5_tree()
        events = sorted(tree.basic_events())
        rounds = 300
        states = {e: rng.random(rounds) < 0.3 for e in events}
        vector = evaluate(tree, states)
        for i in range(rounds):
            failed = {e for e in events if states[e][i]}
            assert vector[i] == evaluate_round(tree, failed)

    def test_k_of_n_vectorised(self, rng):
        tree = FaultTree("x", k_of_n_gate(2, basic("a"), basic("b"), basic("c")))
        rounds = 200
        states = {e: rng.random(rounds) < 0.5 for e in "abc"}
        vector = evaluate(tree, states)
        counts = states["a"].astype(int) + states["b"] + states["c"]
        assert np.array_equal(vector, counts >= 2)

    def test_does_not_mutate_inputs(self, rng):
        tree = _fig5_tree()
        states = {e: rng.random(50) < 0.3 for e in tree.basic_events()}
        copies = {e: s.copy() for e, s in states.items()}
        evaluate(tree, states)
        for e in states:
            assert np.array_equal(states[e], copies[e])


# ----------------------------------------------------------------------
# Property-based testing: random trees, vectorised == brute force.
# ----------------------------------------------------------------------

_EVENT_NAMES = [f"c{i}" for i in range(6)]


def _tree_nodes(depth: int):
    leaf = st.sampled_from(_EVENT_NAMES).map(basic)
    if depth == 0:
        return leaf

    def make_gate(children_and_kind):
        children, kind, k = children_and_kind
        if kind == GateKind.K_OF_N:
            return Gate(kind, tuple(children), threshold=min(k, len(children)))
        return Gate(kind, tuple(children))

    subtree = _tree_nodes(depth - 1)
    gate = st.tuples(
        st.lists(subtree, min_size=1, max_size=3),
        st.sampled_from(list(GateKind)),
        st.integers(min_value=1, max_value=3),
    ).map(make_gate)
    return st.one_of(leaf, gate)


class TestRandomTreeProperties:
    @given(root=_tree_nodes(3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorised_equals_per_round(self, root, data):
        tree = FaultTree("subject", root)
        events = sorted(tree.basic_events())
        rounds = 40
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        states = {e: rng.random(rounds) < 0.4 for e in events}
        vector = evaluate(tree, states)
        for i in range(rounds):
            failed = {e for e in events if states[e][i]}
            assert vector[i] == evaluate_round(tree, failed)

    @given(root=_tree_nodes(2))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, root):
        """Failing MORE components can never un-fail the subject."""
        tree = FaultTree("subject", root)
        events = sorted(tree.basic_events())
        assert not evaluate_round(tree, set()) or evaluate_round(tree, set(events))
        # Adding failures preserves a firing top event.
        for i in range(len(events)):
            partial = set(events[: i + 1])
            if evaluate_round(tree, partial):
                assert evaluate_round(tree, set(events))


class TestExactProbability:
    def test_single_event(self):
        tree = trivial_tree("x")
        assert exact_failure_probability(tree, {"x": 0.3}) == pytest.approx(0.3)

    def test_or_of_two(self):
        tree = FaultTree("s", or_gate(basic("a"), basic("b")))
        p = exact_failure_probability(tree, {"a": 0.1, "b": 0.2})
        assert p == pytest.approx(1 - 0.9 * 0.8)

    def test_and_of_two(self):
        tree = FaultTree("s", and_gate(basic("a"), basic("b")))
        p = exact_failure_probability(tree, {"a": 0.1, "b": 0.2})
        assert p == pytest.approx(0.02)

    def test_fig5_probability(self):
        tree = _fig5_tree()
        probs = {
            "host": 0.01, "os": 0.02, "lib": 0.03,
            "psu-a": 0.1, "psu-b": 0.1, "cool-a": 0.2, "cool-b": 0.2,
        }
        expected_survive = (
            (1 - 0.01) * (1 - 0.02) * (1 - 0.03) * (1 - 0.1 * 0.1) * (1 - 0.2 * 0.2)
        )
        p = exact_failure_probability(tree, probs)
        assert p == pytest.approx(1 - expected_survive)

    def test_shared_event_is_not_double_counted(self):
        # a OR (a AND b) == a.
        tree = FaultTree("s", or_gate(basic("a"), and_gate(basic("a"), basic("b"))))
        p = exact_failure_probability(tree, {"a": 0.25, "b": 0.5})
        assert p == pytest.approx(0.25)

    def test_refuses_intractable_trees(self):
        big = or_gate(*[basic(f"e{i}") for i in range(25)])
        with pytest.raises(ConfigurationError):
            exact_failure_probability(FaultTree("s", big), {f"e{i}": 0.1 for i in range(25)})

    def test_sampling_agrees_with_exact(self, rng):
        """Monte-Carlo estimate of the top event converges to the exact value."""
        tree = _fig5_tree()
        probs = {
            "host": 0.05, "os": 0.1, "lib": 0.1,
            "psu-a": 0.3, "psu-b": 0.3, "cool-a": 0.4, "cool-b": 0.4,
        }
        exact = exact_failure_probability(tree, probs)
        rounds = 40_000
        states = {e: rng.random(rounds) < p for e, p in probs.items()}
        estimate = evaluate(tree, states).mean()
        assert estimate == pytest.approx(exact, abs=0.01)


class TestMergeSharedEvents:
    def test_disjoint_trees_share_nothing(self):
        trees = [trivial_tree("a"), trivial_tree("b")]
        assert merge_shared_events(trees) == frozenset()

    def test_shared_dependency_detected(self):
        t1 = FaultTree("h1", or_gate(basic("h1"), basic("power")))
        t2 = FaultTree("h2", or_gate(basic("h2"), basic("power")))
        assert merge_shared_events([t1, t2]) == {"power"}

    def test_duplicates_within_one_tree_do_not_count(self):
        t1 = FaultTree("h1", or_gate(basic("x"), and_gate(basic("x"), basic("h1"))))
        assert merge_shared_events([t1]) == frozenset()
