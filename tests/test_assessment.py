"""Tests for the reliability assessor (repro.core.assessment).

The gold-standard test computes the *exact* reliability of a plan on a
micro-topology by exhaustive enumeration of component states and checks
that assessments land within their own reported confidence interval.
"""

import itertools

import numpy as np
import pytest

from repro.app.structure import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    ReachabilityRequirement,
)
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.faults.dependencies import DependencyModel
from repro.faults.inventory import build_paper_inventory
from repro.faults.probability import DefaultProbabilityPolicy
from repro.routing.base import engine_for
from repro.sampling.dagger import ExtendedDaggerSampler
from repro.sampling.montecarlo import MonteCarloSampler
from repro.topology.fattree import FatTreeTopology
from repro.sampling.statistics import estimate_from_results
from repro.util.rng import make_rng
from tests.conftest import packed_states
from tests.interpreted_oracle import closure_ids, evaluate_round, interpreted_assess
from repro.util.errors import ConfigurationError
from repro.core.api import AssessmentConfig


def exact_k_of_n_reliability(topology, model, hosts, k, engine=None):
    """Ground truth by enumerating all failure states of the closure.

    Uses the same routing engine the assessor would (up-down for
    fat-trees), so the enumeration shares the reachability semantics.
    """
    engine = engine or engine_for(topology)
    subjects = [
        cid for cid in engine.relevant_elements(list(hosts)) if cid in topology.adjacency
    ]
    events = sorted(model.basic_events_for(subjects))
    probabilities = model.failure_probabilities()
    active = [e for e in events if probabilities[e] > 0]
    assert len(active) <= 18, "enumeration too large for a test"

    total = 0.0
    for pattern in itertools.product([False, True], repeat=len(active)):
        weight = 1.0
        for failed, event in zip(pattern, active):
            p = probabilities[event]
            weight *= p if failed else 1.0 - p
        if weight == 0.0:
            continue
        failed_set = {e for f, e in zip(pattern, active) if f}
        failed_states = {}
        for subject in subjects:
            tree = model.tree_for(subject)
            failed_states[subject] = np.array([evaluate_round(tree, failed_set)])
        states = packed_states(1, failed_states)
        reachable = engine.external_reachable(states, hosts)
        alive = sum(1 for h in hosts if states.unpack(reachable[h])[0])
        if alive >= k:
            total += weight
    return total


@pytest.fixture
def micro_topology():
    """k=4 fat-tree with moderately high probabilities and few distinct
    failing components so exact enumeration stays tractable."""
    topo = FatTreeTopology(
        4, probability_policy=DefaultProbabilityPolicy(0.05), seed=11
    )
    # Keep only a handful of failure-prone components: zero out the rest.
    keep = {
        "host/0/0/0", "host/1/0/0", "edge/0/0", "edge/1/0",
        "agg/0/0", "agg/0/1", "agg/1/0", "agg/1/1",
        "core/0/0", "core/0/1", "core/1/0", "core/1/1",
        "border/0", "border/1",
    }
    overrides = {
        cid: 0.0
        for cid in topo.components
        if cid not in keep and topo.component(cid).failure_probability > 0
    }
    topo.override_probabilities(overrides)
    return topo


class TestAgainstExactEnumeration:
    @pytest.mark.parametrize("k", [1, 2])
    def test_assessment_ci_contains_exact_value(self, micro_topology, k):
        model = DependencyModel.empty(micro_topology)
        hosts = ["host/0/0/0", "host/1/0/0"]
        exact = exact_k_of_n_reliability(micro_topology, model, hosts, k)
        assessor = ReliabilityAssessor(micro_topology, model, config=AssessmentConfig(rounds=40_000, rng=3))
        result = assessor.assess_k_of_n(hosts, k)
        # Allow 1.5x the CI: a ~95% interval should rarely miss by 50%.
        half = 0.75 * result.estimate.confidence_interval_width
        assert abs(result.score - exact) <= max(half, 2e-3), (
            result.score, exact,
        )

    def test_monte_carlo_agrees_with_dagger(self, micro_topology):
        model = DependencyModel.empty(micro_topology)
        hosts = ["host/0/0/0", "host/1/0/0"]
        dagger = ReliabilityAssessor(micro_topology, model, config=AssessmentConfig(sampler=ExtendedDaggerSampler(), rounds=40_000, rng=5)).assess_k_of_n(hosts, 2)
        monte_carlo = ReliabilityAssessor(micro_topology, model, config=AssessmentConfig(sampler=MonteCarloSampler(), rounds=40_000, rng=6)).assess_k_of_n(hosts, 2)
        # Both at 40k rounds: sigma of the difference ~ 0.003.
        assert dagger.score == pytest.approx(monte_carlo.score, abs=1.2e-2)

    def test_dependencies_lower_reliability(self, micro_topology):
        """Shared power supplies can only hurt: R(with deps) <= R(without)."""
        hosts = ["host/0/0/0", "host/1/0/0"]
        bare = ReliabilityAssessor(micro_topology, DependencyModel.empty(micro_topology), config=AssessmentConfig(rounds=30_000, rng=7)).assess_k_of_n(hosts, 2)
        powered = build_paper_inventory(micro_topology, seed=8)
        with_deps = ReliabilityAssessor(micro_topology, powered, config=AssessmentConfig(rounds=30_000, rng=7)).assess_k_of_n(hosts, 2)
        assert with_deps.score < bare.score + 2e-3


class TestAssessorMechanics:
    def test_returns_well_formed_result(self, assessor, fattree4):
        result = assessor.assess_k_of_n(fattree4.hosts[:3], 2)
        assert result.estimate.rounds == 4_000
        assert result.per_round.shape == (4_000,)
        assert result.per_round.dtype == bool
        assert 0 <= result.score <= 1
        assert result.elapsed_seconds > 0
        assert result.sampled_components > 0

    def test_rounds_override(self, assessor, fattree4):
        result = assessor.assess_k_of_n(fattree4.hosts[:2], 1, rounds=500)
        assert result.estimate.rounds == 500

    def test_closure_much_smaller_than_full(self, assessor, fattree4):
        plan = DeploymentPlan.single_component(fattree4.hosts[:2], "app")
        _subjects, sampled = closure_ids(assessor, plan)
        assert len(sampled) < len(fattree4.components)

    def test_closure_and_full_sampling_agree(self, fattree4, inventory):
        """Restricting sampling to the closure is distribution-preserving:
        it agrees with the reference sampling the whole data center."""
        hosts = fattree4.hosts[:3]
        assessor = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=30_000, rng=2))
        closure = assessor.assess_k_of_n(hosts, 2)
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(hosts, structure.components[0].name)
        per_round, sampled = interpreted_assess(
            fattree4, inventory, plan, structure, 30_000,
            ExtendedDaggerSampler(), make_rng(2), assessor.engine,
            sample_full_infrastructure=True,
        )
        assert sampled == len(inventory.failure_probabilities())
        assert sampled > closure.sampled_components
        full = estimate_from_results(per_round)
        assert closure.score == pytest.approx(full.score, abs=6e-3)

    def test_rejects_zero_rounds(self, fattree4, inventory):
        with pytest.raises(ConfigurationError):
            ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=0))

    def test_rejects_foreign_dependency_model(self, fattree4, fattree8):
        model = DependencyModel.empty(fattree8)
        with pytest.raises(ConfigurationError):
            ReliabilityAssessor(fattree4, model)

    def test_refresh_probabilities(self, fattree4):
        model = DependencyModel.empty(fattree4)
        assessor = ReliabilityAssessor(fattree4, model, config=AssessmentConfig(rounds=20_000, rng=3))
        hosts = fattree4.hosts[:2]
        before = assessor.assess_k_of_n(hosts, 2).score
        # Making one deployed host much worse must show after refresh.
        fattree4.override_probabilities({hosts[0]: 0.4})
        assessor.refresh_probabilities()
        after = assessor.assess_k_of_n(hosts, 2).score
        assert after < before - 0.2

    def test_reproducible_with_seed(self, fattree4, inventory):
        a = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=2_000, rng=9))
        b = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=2_000, rng=9))
        hosts = fattree4.hosts[:3]
        assert a.assess_k_of_n(hosts, 2).score == b.assess_k_of_n(hosts, 2).score

    def test_structure_and_k_of_n_paths_agree(self, fattree4, inventory):
        hosts = fattree4.hosts[:3]
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(hosts, "app")
        a = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=5_000, rng=4))
        r1 = a.assess(plan, structure)
        b = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=5_000, rng=4))
        r2 = b.assess_k_of_n(hosts, 2, rounds=5_000)
        assert r1.score == r2.score

    def test_plan_validated(self, assessor, fattree4):
        structure = ApplicationStructure.k_of_n(1, 2)
        bad_plan = DeploymentPlan.single_component(["host/0/0/0", "edge/0/0"], "app")
        with pytest.raises(Exception):
            assessor.assess(bad_plan, structure)


    @pytest.mark.parametrize("mode", ["sequential", "analytic"])
    def test_validation_memo_is_not_fooled_by_a_reused_id(
        self, fattree4, inventory, mode
    ):
        """CPython hands a collected structure's id to the next object of
        its size, so a memo keyed on ``id(structure)`` skips validating a
        3-host plan against a 4-instance structure and answers it.
        Re-initialising the object in place is that collision without
        depending on where the allocator puts the next structure."""
        from repro.core.api import build_assessor
        from repro.util.errors import ValidationError

        assessor = build_assessor(
            fattree4, inventory, AssessmentConfig(rounds=500, rng=4, mode=mode)
        )
        plan = DeploymentPlan.single_component(fattree4.hosts[:3], "app")
        structure = ApplicationStructure.k_of_n(2, 3)
        assessor.assess(plan, structure)
        structure.__init__(
            [ComponentSpec("app", 4)], [ReachabilityRequirement("app", EXTERNAL, 2)]
        )
        with pytest.raises(ValidationError, match="needs 4 hosts"):
            assessor.assess(plan, structure)


class TestLimitedInformationModes:
    def test_no_dependency_model(self, fattree4):
        """§3.4: works with no dependency information at all."""
        assessor = ReliabilityAssessor(fattree4, config=AssessmentConfig(rounds=2_000, rng=1))
        result = assessor.assess_k_of_n(fattree4.hosts[:3], 2)
        assert 0.8 < result.score <= 1.0

    def test_default_probability_policy(self):
        """§3.4: works with a flat default failure probability."""
        topo = FatTreeTopology(
            4, probability_policy=DefaultProbabilityPolicy(0.01), seed=1
        )
        assessor = ReliabilityAssessor(topo, config=AssessmentConfig(rounds=2_000, rng=1))
        result = assessor.assess_k_of_n(topo.hosts[:3], 2)
        assert 0.9 < result.score <= 1.0
