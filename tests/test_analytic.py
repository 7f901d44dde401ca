"""The analytic assessor: exact evaluation checked against brute force.

Property tests for the third assessment backend:

* :func:`repro.kernel.exact.exact_tree_probability` against the ``2**n``
  enumeration oracle (:func:`tests.interpreted_oracle.exact_failure_probability`),
  including trees with shared (repeated) basic events and k-of-n gates
  far beyond the enumeration limit;
* plan-level exact scores against an independent pure-Python brute force
  that enumerates every joint failure state through the *legacy* dense
  pipeline (different engine code path, same answer), on fixed plans and
  on hypothesis-drawn plans and K-of-N structures;
* CI containment: sampled confidence intervals must contain the exact
  value across seeds;
* decline-and-fallback: an intractable closure must produce exactly the
  sampling assessor's estimate, bit for bit;
* hybrid ``score_plans``: exact and sampled entries merge in order;
* config validation, determinism across fresh assessors, serialization
  of exact estimates, and the analytic search mode end to end.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.analytic import AnalyticAssessor
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.faulttree import (
    FaultTree,
    and_gate,
    basic,
    k_of_n_gate,
    or_gate,
)
from repro.faults.inventory import (
    build_paper_inventory,
    build_rich_inventory,
    build_zone_inventory,
)
from repro.kernel import ComponentArena, CompiledForest
from repro.kernel.exact import (
    MAX_SHARED_BITS,
    ExactDeclined,
    compute_marginals,
    enumeration_rows,
    enumeration_weights,
    exact_tree_probability,
)
from repro.routing.base import engine_for
from repro.sampling.statistics import ReliabilityEstimate, exact_estimate
from repro.serialization import decode, encode
from repro.topology.fattree import FatTreeTopology
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.metrics import MetricsRegistry
from tests.conftest import packed_states
from tests.interpreted_oracle import (
    closure_ids,
    evaluate_round,
    exact_failure_probability,
)
from tests.unionfind_oracle import UnionFindReachabilityEngine

TOPO = FatTreeTopology(4, seed=5)
MODEL = build_paper_inventory(TOPO, power_supplies=3, seed=9)
STRUCTURE = ApplicationStructure.k_of_n(1, 2)
APP = STRUCTURE.components[0].name


def plan_for(*hosts: str) -> DeploymentPlan:
    return DeploymentPlan.single_component(list(hosts), APP)


def brute_force_score(assessor: AnalyticAssessor, plan, structure) -> float:
    """Independent plan-level oracle: enumerate all joint failure states
    through the legacy dense pipeline (pure-Python tree evaluation, dense
    boolean round states, the generic engine construction path)."""
    topology = assessor.topology
    model = assessor.dependency_model
    subjects, sampled = closure_ids(assessor.inner, plan)
    probabilities = model.failure_probabilities()
    uncertain = [c for c in sorted(sampled) if 0.0 < probabilities[c] < 1.0]
    certain = {c for c in sampled if probabilities[c] >= 1.0}
    n = 1 << len(uncertain)
    failed_sets = [
        {uncertain[i] for i in range(len(uncertain)) if (s >> i) & 1} | certain
        for s in range(n)
    ]
    failed: dict[str, np.ndarray] = {}
    for sid in sorted(subjects):
        tree = model.tree_for(sid)
        vector = np.fromiter(
            (evaluate_round(tree, fs) for fs in failed_sets), dtype=bool, count=n
        )
        if vector.any():
            failed[sid] = vector
    for cid in sorted(sampled - set(subjects)):
        if cid in model.trees or cid not in topology.components:
            continue
        vector = np.fromiter((cid in fs for fs in failed_sets), dtype=bool, count=n)
        if vector.any():
            failed[cid] = vector
    states = packed_states(n, failed)
    phi = StructureEvaluator(engine_for(topology)).evaluate(states, plan, structure)
    weights = np.ones(n, dtype=np.float64)
    arange = np.arange(n, dtype=np.int64)
    for i, cid in enumerate(uncertain):
        p = probabilities[cid]
        fired = ((arange >> i) & 1).astype(bool)
        weights *= np.where(fired, p, 1.0 - p)
    return float(np.dot(weights, phi))


def _small_closure_substrate():
    """A k=4 fat-tree whose core and border switches never fail: every
    plan of up to three hosts keeps at most 14 uncertain events in its
    closure, few enough for :func:`brute_force_score`'s ``2**n`` walk."""
    topology = FatTreeTopology(4, seed=5)
    model = build_paper_inventory(topology, power_supplies=2, seed=9)
    model.override_probabilities(
        {cid: 0.0 for cid in topology.components if cid.startswith(("core/", "border/"))}
    )
    return topology, model


SMALL_TOPO, SMALL_MODEL = _small_closure_substrate()


class TestExactEqualsBruteForce:
    """Needle-3 differential: on random plans and K-of-N structures the
    exact backend's score is the brute-force enumeration's."""

    @given(
        n=st.integers(1, 3),
        k_offset=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_plans_and_structures(self, n, k_offset, seed):
        structure = ApplicationStructure.k_of_n(max(1, n - k_offset), n)
        plan = DeploymentPlan.random(SMALL_TOPO, structure, rng=seed)
        analytic = build_assessor(
            SMALL_TOPO, SMALL_MODEL, AssessmentConfig(mode="analytic", rounds=500)
        )
        result = analytic.assess(plan, structure)
        assert result.estimate.exact
        oracle = brute_force_score(analytic, plan, structure)
        assert result.estimate.score == pytest.approx(oracle, abs=1e-12)


class TestExactTreeProbability:
    def test_matches_enumeration_on_inventory_trees(self):
        model = build_rich_inventory(FatTreeTopology(4, seed=2), seed=4)
        probabilities = model.failure_probabilities()
        checked = 0
        for sid in sorted(model.trees)[:8]:
            tree = model.tree_for(sid)
            if len(tree.basic_events()) > 20:
                continue
            oracle = exact_failure_probability(tree, probabilities)
            assert exact_tree_probability(tree, probabilities) == pytest.approx(
                oracle, abs=1e-12
            )
            checked += 1
        assert checked >= 4

    def test_shared_events_are_conditioned_exactly(self):
        # `a` appears under both OR branches: naive independent
        # propagation would square its contribution; conditioning keeps
        # it exact.
        tree = FaultTree(
            subject_id="s",
            root=and_gate(or_gate(basic("a"), basic("b")), or_gate(basic("a"), basic("c"))),
        )
        probabilities = {"a": 0.3, "b": 0.2, "c": 0.45}
        oracle = exact_failure_probability(tree, probabilities)
        assert exact_tree_probability(tree, probabilities) == pytest.approx(
            oracle, abs=1e-15
        )
        # And the naive (wrong) value is measurably different, so this
        # test actually discriminates.
        naive = (1 - 0.7 * 0.8) * (1 - 0.7 * 0.55)
        assert abs(oracle - naive) > 1e-3

    def test_shared_kofn_gate(self):
        shared = [basic(f"e{i}") for i in range(4)]
        tree = FaultTree(
            subject_id="s",
            root=or_gate(
                k_of_n_gate(2, *shared), and_gate(basic("e0"), basic("x"))
            ),
        )
        probabilities = {f"e{i}": 0.1 * (i + 1) for i in range(4)}
        probabilities["x"] = 0.35
        oracle = exact_failure_probability(tree, probabilities)
        assert exact_tree_probability(tree, probabilities) == pytest.approx(
            oracle, abs=1e-15
        )

    def test_large_kofn_is_polynomial_not_enumerated(self):
        # 30 events: 2**30 enumeration is intractable (the legacy oracle
        # refuses); the Poisson-binomial DP matches the binomial closed
        # form directly.
        n, threshold, p = 30, 8, 0.07
        tree = FaultTree(
            subject_id="fleet",
            root=k_of_n_gate(threshold, *[basic(f"w{i}") for i in range(n)]),
        )
        probabilities = {f"w{i}": p for i in range(n)}
        with pytest.raises(ConfigurationError):
            exact_failure_probability(tree, probabilities)
        closed_form = sum(
            math.comb(n, j) * p**j * (1 - p) ** (n - j)
            for j in range(threshold, n + 1)
        )
        assert exact_tree_probability(tree, probabilities) == pytest.approx(
            closed_form, abs=1e-12
        )

    def test_declines_over_budget_instead_of_truncating(self):
        # Every event feeds both branches, so all of them are shared and
        # need one conditioning bit each: one more than the budget allows.
        def tree_over(events):
            return FaultTree(
                subject_id="s",
                root=and_gate(
                    or_gate(*[basic(e) for e in events]),
                    k_of_n_gate(2, *[basic(e) for e in events]),
                ),
            )

        events = [f"s{i}" for i in range(MAX_SHARED_BITS + 1)]
        probabilities = {e: 0.1 for e in events}
        with pytest.raises(ExactDeclined, match=f"{len(events)} shared basic events"):
            exact_tree_probability(tree_over(events), probabilities)
        at_budget = tree_over(events[:-1])
        assert exact_tree_probability(at_budget, probabilities) == pytest.approx(
            exact_failure_probability(at_budget, probabilities), abs=1e-12
        )


class TestEnumeration:
    def test_rows_encode_every_state(self):
        rows = enumeration_rows(3)
        assert len(rows) == 3
        for i, row in enumerate(rows):
            dense = np.unpackbits(row, count=8).astype(bool)
            expected = [(s >> i) & 1 == 1 for s in range(8)]
            assert dense.tolist() == expected

    def test_weights_sum_to_one_and_match_products(self):
        probabilities = [0.1, 0.5, 0.25]
        weights = enumeration_weights(probabilities)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        for s in range(8):
            expected = 1.0
            for i, p in enumerate(probabilities):
                expected *= p if (s >> i) & 1 else 1.0 - p
            assert weights[s] == pytest.approx(expected, abs=1e-15)


@pytest.fixture(scope="module")
def analytic() -> AnalyticAssessor:
    return build_assessor(
        TOPO, MODEL, AssessmentConfig(mode="analytic", rounds=4000, rng=11)
    )


class TestAnalyticAssessor:
    def test_exact_matches_brute_force(self, analytic):
        plan = plan_for("host/0/0/0", "host/0/0/1")
        result = analytic.assess(plan, STRUCTURE)
        assert result.estimate.exact
        assert result.estimate.confidence_interval_width == 0.0
        oracle = brute_force_score(analytic, plan, STRUCTURE)
        assert result.estimate.score == pytest.approx(oracle, abs=1e-12)

    def test_exact_matches_brute_force_across_racks(self, analytic):
        plan = plan_for("host/0/0/0", "host/0/1/1")
        result = analytic.assess(plan, STRUCTURE)
        assert result.estimate.exact
        oracle = brute_force_score(analytic, plan, STRUCTURE)
        assert result.estimate.score == pytest.approx(oracle, abs=1e-12)

    def test_sampled_cis_contain_the_exact_value(self, analytic):
        plan = plan_for("host/0/0/0", "host/0/0/1")
        exact = analytic.assess(plan, STRUCTURE).estimate.score
        contained = 0
        for seed in range(5):
            sampled = build_assessor(
                TOPO, MODEL, AssessmentConfig(rounds=20_000, rng=seed)
            ).assess(plan, STRUCTURE)
            assert not sampled.estimate.exact
            estimate = sampled.estimate
            contained += estimate.ci_lower <= exact <= estimate.ci_upper
        # 95 % intervals: all five containing is the overwhelmingly
        # likely outcome; demand at least four to stay noise-proof.
        assert contained >= 4

    def test_exact_results_are_deterministic_across_assessors(self, analytic):
        plan = plan_for("host/1/0/0", "host/1/1/0")
        fresh = build_assessor(
            TOPO, MODEL, AssessmentConfig(mode="analytic", rounds=4000, rng=99)
        )
        first = analytic.assess(plan, STRUCTURE).estimate.score
        second = fresh.assess(plan, STRUCTURE).estimate.score
        assert first == second  # bit-equal, not approx

    def test_exact_results_are_memoized(self, analytic):
        plan = plan_for("host/2/0/0", "host/2/0/1")
        first = analytic.assess(plan, STRUCTURE)
        second = analytic.assess(plan, STRUCTURE)
        assert second is first

    def test_decline_falls_back_bit_identically(self):
        config = AssessmentConfig(
            rounds=3000, rng=21, analytic_state_bits=0
        )
        hybrid = build_assessor(TOPO, MODEL, config.with_updates(mode="analytic"))
        plain = build_assessor(TOPO, MODEL, config)
        plan = plan_for("host/0/0/0", "host/2/1/1")
        assert hybrid.explain(plan) is not None
        ours = hybrid.assess(plan, STRUCTURE)
        theirs = plain.assess(plan, STRUCTURE)
        assert not ours.estimate.exact
        assert ours.estimate.score == theirs.estimate.score
        assert np.array_equal(ours.per_round, theirs.per_round)

    def test_explain_is_none_when_tractable(self, analytic):
        assert analytic.explain(plan_for("host/0/0/0", "host/0/0/1")) is None

    def test_an_exact_result_has_no_rounds(self, analytic):
        result = analytic.assess(plan_for("host/0/0/0", "host/0/0/1"), STRUCTURE)
        assert result.estimate.exact
        assert result.per_round.shape == (0,)

    def test_a_certain_failure_is_a_state_bit_of_weight_zero(self, monkeypatch):
        """A component whose probability table reads p = 1 (a component
        refuses it, so only a model or topology reporting its own table
        brings one; the samplers refuse it too, so only the exact path
        meets it) takes one state bit like any other event, and the
        enumeration stays exact: its up states weigh 0."""
        topology = FatTreeTopology(4, seed=5)
        model = build_paper_inventory(topology, power_supplies=3, seed=9)
        plan = plan_for("host/0/0/0", "host/0/0/1")
        probe = build_assessor(topology, model, AssessmentConfig(mode="analytic"))
        _, sampled = closure_ids(probe.inner, plan)
        table = model.failure_probabilities()
        bits = sum(1 for cid in sampled if table[cid] > 0.0)
        assessor = build_assessor(
            topology, model, AssessmentConfig(mode="analytic", analytic_state_bits=bits)
        )
        narrow = build_assessor(
            topology,
            model,
            AssessmentConfig(mode="analytic", analytic_state_bits=bits - 1),
        )
        healthy = probe.assess(plan, STRUCTURE).estimate.score

        table["host/0/0/0"] = 1.0
        monkeypatch.setattr(model, "failure_probabilities", lambda: dict(table))
        model.override_probabilities({})  # a new generation: a new kernel
        for each in (assessor, narrow):
            each.refresh_probabilities()
        assert assessor.explain(plan) is None
        assert narrow.explain(plan) is not None
        result = assessor.assess(plan, STRUCTURE)
        assert result.estimate.exact
        oracle = brute_force_score(assessor, plan, STRUCTURE)
        assert result.estimate.score == pytest.approx(oracle, abs=1e-12)
        assert result.estimate.score < healthy

    def test_score_plans_mixes_exact_and_sampled(self):
        plans = [
            plan_for("host/0/0/0", "host/0/0/1"),  # same rack: small closure
            plan_for("host/0/0/0", "host/2/1/1"),  # cross-pod: larger closure
            plan_for("host/1/0/0", "host/1/0/1"),
        ]
        probabilities = MODEL.failure_probabilities()
        helper = build_assessor(
            TOPO, MODEL, AssessmentConfig(mode="analytic", rounds=3000, rng=5)
        )
        sizes = []
        for plan in plans:
            _, sampled = closure_ids(helper.inner, plan)
            sizes.append(sum(1 for c in sampled if 0 < probabilities[c] < 1))
        assert min(sizes) < max(sizes), "test needs closures of two sizes"
        budget = min(sizes)  # small closures exact, the larger one declined
        config = AssessmentConfig(rounds=3000, rng=5, analytic_state_bits=budget)
        hybrid = build_assessor(TOPO, MODEL, config.with_updates(mode="analytic"))
        results = hybrid.score_plans(plans, STRUCTURE)
        flags = [r.estimate.exact for r in results]
        assert True in flags and False in flags
        for plan, result, size in zip(plans, results, sizes):
            assert result.plan == plan
            assert result.estimate.exact == (size <= budget)
        # The sampled entries are exactly what the inner assessor alone
        # would have produced for the declined subset.
        plain = build_assessor(TOPO, MODEL, config)
        declined = [p for p, f in zip(plans, flags) if not f]
        alone = plain.score_plans(declined, STRUCTURE)
        sampled_results = [r for r in results if not r.estimate.exact]
        for ours, theirs in zip(sampled_results, alone):
            assert ours.estimate.score == theirs.estimate.score

    def test_metrics_count_exact_assessments(self):
        config = AssessmentConfig(
            mode="analytic", rounds=2000, rng=1, metrics=MetricsRegistry()
        )
        assessor = build_assessor(TOPO, MODEL, config)
        assessor.assess(plan_for("host/0/0/0", "host/0/0/1"), STRUCTURE)
        counters = assessor.metrics.snapshot()["counters"]
        assert counters.get("analytic/exact", 0) >= 1


class TestAnalyticZones:
    def test_zone_shared_roots_condition_exactly(self):
        # Hosts of one zone share the zone's power feed, cooling plant
        # and control plane (correlated failures, Fig. 5 style): the
        # shared roots must be conditioned out, and both the per-subject
        # marginals and the *joint* failure probability must match the
        # 2**n enumeration oracle.
        topology = MultiZoneTopology(zones=2, k=4, seed=7)
        model = build_zone_inventory(topology, power_supplies=2, seed=3)
        probabilities = model.failure_probabilities()
        hosts = sorted(topology.hosts)[:3]
        arena = ComponentArena.for_model(model)
        forest = CompiledForest(arena)
        roots = [forest.ensure_subject(h, model.tree_for(h).root) for h in hosts]
        joint_tree = FaultTree(
            subject_id="joint",
            root=and_gate(*[model.tree_for(h).root for h in hosts]),
        )
        joint = forest.ensure_subject("joint", joint_tree.root)
        marginals = compute_marginals(
            forest, arena.probabilities, roots + [joint]
        )
        assert marginals.conditioned, "shared zone roots must be conditioned"
        for host, root in zip(hosts, roots):
            oracle = exact_failure_probability(model.tree_for(host), probabilities)
            assert marginals.marginal(root) == pytest.approx(oracle, abs=1e-12)
        joint_oracle = exact_failure_probability(joint_tree, probabilities)
        assert marginals.marginal(joint) == pytest.approx(joint_oracle, abs=1e-12)
        # Correlation check: under shared roots the joint failure
        # probability exceeds the independent product.
        independent = 1.0
        for root in roots:
            independent *= marginals.marginal(root)
        assert marginals.marginal(joint) > independent

    def test_shared_roots_give_the_exact_joint(self):
        """The conditional-independence contract products of conditioned
        values rely on: roots [R, S] with R = OR(a, b) and S = AND(R, c)
        share R, so a and b are conditioned out and sum_sigma w * R * S
        is the joint P(R and S) = P(S) = 0.28 * 0.3 = 0.084 (a 2**3
        enumeration); a leaf named in ``extra_refs`` is conditioned the
        same way, P(a and S) = 0.1 * 0.3 = 0.030. Without the root and
        extra reference counts nothing is shared and the products read
        0.0235 and 0.0084. A shared leaf that never fails (z) is not a
        sigma bit: it would spend budget on an assignment of weight 0."""
        arena = ComponentArena(["a", "b", "c", "z"], [0.1, 0.2, 0.3, 0.0])
        forest = CompiledForest(arena)
        r_tree = or_gate(basic("a"), basic("b"), basic("z"))
        r = forest.ensure_subject("R", r_tree)
        s = forest.ensure_subject("S", and_gate(r_tree, basic("c")))
        a = forest.ensure_subject("a", basic("a"))

        def brute_force(event):
            total = 0.0
            for states in itertools.product((False, True), repeat=3):
                weight = 1.0
                for failed, p in zip(states, (0.1, 0.2, 0.3)):
                    weight *= p if failed else 1.0 - p
                failed_a, failed_b, failed_c = states
                if event(failed_a, (failed_a or failed_b) and failed_c):
                    total += weight
            return total

        joint = compute_marginals(forest, arena.probabilities, [r, s])
        assert [arena.ids[forest.operands[n]] for n in joint.conditioned] == ["a", "b"]
        product = joint.values[r] * joint.values[s]
        assert float(np.dot(joint.weights, product)) == pytest.approx(0.084, abs=1e-15)
        assert brute_force(lambda _a, failed_s: failed_s) == pytest.approx(0.084, abs=1e-15)

        with_leaf = compute_marginals(forest, arena.probabilities, [s], extra_refs=[a])
        product = with_leaf.values[a] * with_leaf.values[s]
        assert float(np.dot(with_leaf.weights, product)) == pytest.approx(0.030, abs=1e-15)
        assert brute_force(lambda failed_a, failed_s: failed_a and failed_s) == (
            pytest.approx(0.030, abs=1e-15)
        )

    def _zone_assessor(self, engine_class=None):
        topology = MultiZoneTopology(zones=2, k=4, seed=7)
        model = build_zone_inventory(topology, power_supplies=2, seed=3)
        config = AssessmentConfig(mode="analytic", rounds=1500, rng=13)
        if engine_class is not None:
            config = config.with_updates(engine=engine_class(topology))
        plan = DeploymentPlan.single_component(sorted(topology.hosts)[:2], APP)
        return build_assessor(topology, model, config), plan

    def test_zone_plan_level_declines_to_sampling(self):
        # The generic engine is packed-capable, so the analytic backend
        # reaches the zone closure itself — and that closure is the whole
        # topology, far past the enumeration budget: it must decline
        # loudly, for that reason, and serve the sampled estimate.
        assessor, plan = self._zone_assessor()
        assert assessor.explain(plan) == (
            "closure has 71 uncertain basic events, "
            "budget allows 20 (2**20 exact states)"
        )
        result = assessor.assess(plan, STRUCTURE)
        assert not result.estimate.exact
        assert result.estimate.rounds == 1500

    def test_round_reading_engine_is_analysed_like_any_other(self):
        # A user-supplied engine that reads individual rounds is handed
        # packed rows like the shipped ones: the backend reaches the same
        # closure analysis, declines for the same reason and serves the
        # same sampled estimate as under the generic engine.
        assessor, plan = self._zone_assessor(UnionFindReachabilityEngine)
        generic, _ = self._zone_assessor()
        assert assessor.explain(plan) == generic.explain(plan)
        result = assessor.assess(plan, STRUCTURE)
        assert not result.estimate.exact
        assert result.estimate == generic.assess(plan, STRUCTURE).estimate


class TestConfigValidation:
    def test_bits_out_of_range_are_collected(self):
        config = AssessmentConfig(analytic_state_bits=40, master_seed=-1)
        with pytest.raises(ValidationError) as excinfo:
            config.validate()
        fields = {field for field, _ in excinfo.value.errors}
        assert fields == {"analytic_state_bits", "master_seed"}

    def test_analytic_is_a_known_mode(self):
        AssessmentConfig(mode="analytic").validate()


class TestExactEstimates:
    def test_serialization_round_trips_exact(self):
        estimate = exact_estimate(0.987654321)
        document = encode(estimate)
        assert document["exact"] is True
        restored = decode(ReliabilityEstimate, document)
        assert restored.exact
        assert restored.score == estimate.score
        assert restored.confidence_interval_width == 0.0

    def test_legacy_documents_default_to_sampled(self):
        document = encode(exact_estimate(0.5))
        document.pop("exact")
        assert decode(ReliabilityEstimate, document).exact is False

    def test_exact_estimate_validates_range(self):
        with pytest.raises(ConfigurationError):
            exact_estimate(1.5)


class TestAnalyticSearch:
    def test_search_runs_hybrid_and_confirms_exactly(self):
        search = DeploymentSearch.from_config(
            TOPO,
            MODEL,
            AssessmentConfig(mode="analytic", rounds=1500, rng=31),
            rng=7,
            batch_size=2,
        )
        assert isinstance(search.assessor, AnalyticAssessor)
        spec = SearchSpec(STRUCTURE, desired_reliability=1.0, max_seconds=1.0)
        result = search.search(spec)
        # Confirmation of the best plan goes through the same analytic
        # assessor: on this (tractable) substrate the reported estimate
        # is exact, and exactness means the brute-force oracle agrees.
        assert result.best_assessment.estimate.exact
        oracle = brute_force_score(
            search.assessor, result.best_plan, STRUCTURE
        )
        assert result.best_assessment.estimate.score == pytest.approx(
            oracle, abs=1e-12
        )
