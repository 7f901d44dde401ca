"""Multi-zone topology, zone-correlated failures and zone constraints.

Covers the zone-aware robustness stack end to end: the joined fat-tree
zones (repro.topology.zones), the per-zone shared fault roots
(repro.faults.inventory), the placement constraints and their repair
semantics in the annealing move proposal (repro.core.plan), constrained
search + checkpoint round-trips, the symmetry screen's zone refinement,
and the ZoneOutage chaos injector.
"""

import math

import numpy as np
import pytest

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.plan import DeploymentPlan, ZoneConstraints
from repro.core.search import DeploymentSearch, SearchSpec
from repro.core.transforms import BatchSymmetryFilter
from repro.faults.component import ComponentType
from repro.faults.inventory import (
    ZONE_OUTAGE_PROBABILITY,
    ZoneOutage,
    attach_zone_shared_roots,
    build_zone_inventory,
    validate_failure_probabilities,
    zone_shared_root_ids,
)
from repro.kernel import AssessmentKernel
from repro.routing import engine_for
from repro.routing.generic import GenericReachabilityEngine
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import (
    ConfigurationError,
    UnsatisfiableRequirements,
    ValidationError,
)
from repro.util.metrics import MetricsRegistry
from tests.interpreted_oracle import interpreted_assess
from tests.graph_oracle import SurgeryGraphChecker, as_networkx
from tests.unionfind_oracle import UnionFindReachabilityEngine


@pytest.fixture
def zones2():
    return MultiZoneTopology(zones=2, k=4, seed=7)


@pytest.fixture
def zone_model(zones2):
    return build_zone_inventory(zones2, seed=7)


STRUCTURE = ApplicationStructure.k_of_n(1, 3)
CROSS_ZONE = ZoneConstraints.from_mapping(
    primary_zone="zone0", min_outside_primary=1
)


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class TestMultiZoneTopology:
    def test_two_fat_tree_zones(self, zones2):
        assert len(zones2.hosts) == 24  # 2 zones x 12 hosts (k=4)
        assert len(zones2.hosts_in_zone("zone0")) == 12
        assert len(zones2.hosts_in_zone("zone1")) == 12
        assert list(zones2.zone_names) == ["zone0", "zone1"]

    def test_zone_queries(self, zones2):
        host = zones2.hosts_in_zone("zone0")[0]
        assert zones2.zone_of(host) == "zone0"
        assert zones2.zone_of(zones2.wan_by_zone["zone1"][0]) == "zone1"
        assert all(
            zones2.zone_of(e) == "zone0" for e in zones2.zone_elements("zone0")
        )

    def test_pods_are_zone_qualified(self, zones2):
        """Same pod index in different zones must not collide."""
        h0 = zones2.hosts_in_zone("zone0")[0]
        h1 = zones2.hosts_in_zone("zone1")[0]
        assert zones2.pod_of(h0) != zones2.pod_of(h1)
        assert zones2.pod_of(h0).startswith("zone0/")

    def test_symmetry_classes_are_zone_qualified(self, zones2):
        h0 = zones2.hosts_in_zone("zone0")[0]
        h1 = zones2.hosts_in_zone("zone1")[0]
        assert zones2.symmetry_class_of(h0) == "zone0:host"
        assert zones2.symmetry_class_of(h1) == "zone1:host"

    def test_wan_joins_the_zones(self, zones2):
        """Cross-zone paths exist and route through the WAN mesh."""
        import networkx as nx

        graph = as_networkx(zones2)
        assert nx.is_connected(graph)
        h0 = zones2.hosts_in_zone("zone0")[0]
        h1 = zones2.hosts_in_zone("zone1")[0]
        path = nx.shortest_path(graph, h0, h1)
        assert any(node.startswith("wan/") for node in path)

    def test_dispatches_to_generic_engine(self, zones2):
        assert isinstance(engine_for(zones2), GenericReachabilityEngine)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MultiZoneTopology(zones=1, k=4)
        with pytest.raises(ConfigurationError):
            MultiZoneTopology(zones=2, k=5)


# ----------------------------------------------------------------------
# Inventory: zone shared roots and validation
# ----------------------------------------------------------------------


class TestZoneInventory:
    def test_every_zone_element_depends_on_its_roots(self, zones2, zone_model):
        roots = set(zone_shared_root_ids(zone_model, "zone0"))
        assert len(roots) == 3  # power feed, cooling plant, control plane
        for element in zones2.zone_elements("zone0"):
            events = zone_model.tree_for(element).basic_events()
            assert roots <= set(events)

    def test_roots_do_not_cross_zones(self, zone_model, zones2):
        zone1_roots = set(zone_shared_root_ids(zone_model, "zone1"))
        host0 = zones2.hosts_in_zone("zone0")[0]
        events = set(zone_model.tree_for(host0).basic_events())
        assert not (zone1_roots & events)

    def test_missing_zone_raises(self, zone_model):
        with pytest.raises(ConfigurationError):
            zone_shared_root_ids(zone_model, "zone9")

    def test_root_probability_overrides_are_validated(self, zones2):
        with pytest.raises(ValidationError):
            build_zone_inventory(
                zones2, root_probabilities={"power-feed": 1.5}, seed=1
            )

    def test_wan_conduits_attach_to_routers(self, zones2):
        model = build_zone_inventory(zones2, seed=7)
        router = zones2.wan_by_zone["zone0"][0]
        events = set(model.tree_for(router).basic_events())
        assert any(event.startswith("wan-conduit/") for event in events)


class TestProbabilityValidation:
    def test_collects_every_bad_field(self):
        with pytest.raises(ValidationError) as excinfo:
            validate_failure_probabilities(
                {
                    "nan": math.nan,
                    "negative": -0.1,
                    "above-one": 1.5,
                    "fine": 0.3,
                    "stringy": "half",
                }
            )
        fields = sorted(field for field, _ in excinfo.value.errors)
        assert fields == ["above-one", "nan", "negative", "stringy"]

    def test_accepts_valid_probabilities(self):
        validate_failure_probabilities({"a": 0.0, "b": 0.5, "c": 1.0})

    def test_inventory_boundary_rejects_nan(self, zones2):
        """A NaN in an operator probability feed is caught, by component
        id, before it can poison a sampled round."""
        model = build_zone_inventory(zones2, seed=7)
        probabilities = dict(model.failure_probabilities())
        host = zones2.hosts_in_zone("zone0")[0]
        probabilities[host] = math.nan
        with pytest.raises(ValidationError) as excinfo:
            validate_failure_probabilities(probabilities)
        assert [field for field, _ in excinfo.value.errors] == [host]


# ----------------------------------------------------------------------
# Zone constraints
# ----------------------------------------------------------------------


class TestZoneConstraints:
    def test_min_outside_primary(self, zones2):
        z0 = zones2.hosts_in_zone("zone0")
        z1 = zones2.hosts_in_zone("zone1")
        pinned = DeploymentPlan.from_mapping({"app": z0[:3]})
        spread = DeploymentPlan.from_mapping({"app": [z0[0], z0[1], z1[0]]})
        assert not CROSS_ZONE.satisfied_by(pinned, zones2)
        assert CROSS_ZONE.satisfied_by(spread, zones2)
        fields = [f for f, _ in CROSS_ZONE.violations(pinned, zones2)]
        assert fields == ["min_outside_primary"]

    def test_pinned_zones(self, zones2):
        constraints = ZoneConstraints.from_mapping(
            pinned_zones={"app": ["zone1"]}
        )
        z1_plan = DeploymentPlan.from_mapping(
            {"app": zones2.hosts_in_zone("zone1")[:2]}
        )
        mixed = DeploymentPlan.from_mapping(
            {
                "app": [
                    zones2.hosts_in_zone("zone1")[0],
                    zones2.hosts_in_zone("zone0")[0],
                ]
            }
        )
        assert constraints.satisfied_by(z1_plan, zones2)
        assert not constraints.satisfied_by(mixed, zones2)

    def test_spread_components(self, zones2):
        constraints = ZoneConstraints.from_mapping(spread_components=["app"])
        same_zone = DeploymentPlan.from_mapping(
            {"app": zones2.hosts_in_zone("zone0")[:2]}
        )
        split = DeploymentPlan.from_mapping(
            {
                "app": [
                    zones2.hosts_in_zone("zone0")[0],
                    zones2.hosts_in_zone("zone1")[0],
                ]
            }
        )
        assert not constraints.satisfied_by(same_zone, zones2)
        assert constraints.satisfied_by(split, zones2)

    def test_zoneless_topology_is_a_violation(self, fattree4):
        plan = DeploymentPlan.from_mapping({"app": fattree4.hosts[:3]})
        fields = [f for f, _ in CROSS_ZONE.violations(plan, fattree4)]
        assert fields == ["topology"]

    def test_validate_raises_validation_error(self, zones2):
        pinned = DeploymentPlan.from_mapping(
            {"app": zones2.hosts_in_zone("zone0")[:3]}
        )
        with pytest.raises(ValidationError):
            CROSS_ZONE.validate(pinned, zones2)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ZoneConstraints(min_outside_primary=-1)
        with pytest.raises(ConfigurationError):
            ZoneConstraints(min_outside_primary=1)  # no primary zone
        with pytest.raises(ConfigurationError):
            ZoneConstraints.from_mapping(pinned_zones={"app": []})

    def test_trivial_constraints(self):
        assert ZoneConstraints().is_trivial
        assert not CROSS_ZONE.is_trivial


class TestConstrainedPlans:
    def test_random_plan_satisfies_constraints(self, zones2):
        for seed in range(5):
            plan = DeploymentPlan.random(
                zones2, STRUCTURE, rng=seed, zone_constraints=CROSS_ZONE
            )
            assert CROSS_ZONE.satisfied_by(plan, zones2)

    def test_impossible_constraints_raise(self, zones2):
        impossible = ZoneConstraints.from_mapping(
            pinned_zones={"app": ["zone9"]}
        )
        with pytest.raises(UnsatisfiableRequirements):
            DeploymentPlan.random(
                zones2, STRUCTURE, rng=1, zone_constraints=impossible,
                max_attempts=10,
            )

    def test_propose_move_preserves_compliance(self, zones2):
        """A constraint-satisfying incumbent only proposes compliant moves."""
        rng = np.random.default_rng(3)
        plan = DeploymentPlan.random(
            zones2, STRUCTURE, rng=rng, zone_constraints=CROSS_ZONE
        )
        for _ in range(25):
            move = plan.propose_move(zones2, rng=rng, zone_constraints=CROSS_ZONE)
            candidate = move.apply(plan)
            assert CROSS_ZONE.satisfied_by(candidate, zones2)
            plan = candidate

    def test_propose_move_repairs_violations(self, zones2):
        """A violating incumbent walks toward compliance, never away."""
        rng = np.random.default_rng(5)
        plan = DeploymentPlan.from_mapping(
            {"app": zones2.hosts_in_zone("zone0")[:3]}
        )
        baseline = len(CROSS_ZONE.violations(plan, zones2))
        assert baseline == 1
        for _ in range(25):
            move = plan.propose_move(zones2, rng=rng, zone_constraints=CROSS_ZONE)
            candidate = move.apply(plan)
            count = len(CROSS_ZONE.violations(candidate, zones2))
            assert count == 0 or count < baseline
            plan = candidate
            baseline = len(CROSS_ZONE.violations(plan, zones2))
        assert CROSS_ZONE.satisfied_by(plan, zones2)

    def test_no_constraints_keeps_rng_stream(self, zones2):
        """zone_constraints=None must not perturb the draw sequence."""
        plan = DeploymentPlan.from_mapping(
            {"app": zones2.hosts_in_zone("zone0")[:3]}
        )
        bare = plan.propose_move(zones2, rng=17)
        gated = plan.propose_move(zones2, rng=17, zone_constraints=None)
        assert (bare.old_host, bare.new_host) == (gated.old_host, gated.new_host)


# ----------------------------------------------------------------------
# Constrained search, checkpoints, symmetry
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, step=0.01):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _zone_search(zones2, zone_model, config=None, **kwargs):
    kwargs.setdefault("rng", 11)
    kwargs.setdefault("clock", FakeClock())
    return DeploymentSearch.from_config(
        zones2,
        zone_model,
        config or AssessmentConfig(rounds=600, rng=5),
        **kwargs,
    )


class TestConstrainedSearch:
    def test_search_result_satisfies_constraints(self, zones2, zone_model):
        spec = SearchSpec(
            STRUCTURE,
            max_seconds=30.0,
            max_iterations=10,
            zone_constraints=CROSS_ZONE,
        )
        result = _zone_search(zones2, zone_model).search(spec)
        assert CROSS_ZONE.satisfied_by(result.best_plan, zones2)

    def test_spec_round_trip(self):
        spec = SearchSpec(
            STRUCTURE,
            max_seconds=5.0,
            zone_constraints=CROSS_ZONE,
        )
        document = serialization.encode(spec)
        restored = serialization.decode(SearchSpec, document)
        assert restored.zone_constraints == CROSS_ZONE

    def test_spec_round_trip_without_constraints(self):
        spec = SearchSpec(STRUCTURE, max_seconds=5.0)
        document = serialization.encode(spec)
        assert document["zone_constraints"] is None
        assert serialization.decode(SearchSpec, spec_document_legacy(document)).zone_constraints is None

    def test_checkpoint_resume_keeps_constraints(
        self, zones2, zone_model, tmp_path
    ):
        """A search interrupted mid-anneal resumes with its zone
        constraints intact and finishes on a compliant plan."""
        ckpt = str(tmp_path / "zones.json")
        spec = SearchSpec(
            STRUCTURE,
            max_seconds=50.0,
            max_iterations=6,
            zone_constraints=CROSS_ZONE,
        )
        _zone_search(
            zones2, zone_model, checkpoint_path=ckpt, checkpoint_every=2
        ).search(spec)

        document = serialization.load(ckpt)
        restored_spec = serialization.decode(SearchSpec, document["spec"])
        assert restored_spec.zone_constraints == CROSS_ZONE

        resumed = _zone_search(
            zones2, zone_model, checkpoint_path=ckpt, checkpoint_every=2
        ).resume(ckpt, max_iterations=12)
        assert resumed.iterations == 12
        assert CROSS_ZONE.satisfied_by(resumed.best_plan, zones2)


class TestZoneClosureIsOneLayer:
    def test_search_builds_one_layer_mask_pair(self, zones2, zone_model, monkeypatch):
        """Every host's generic closure is the whole data center: a
        25-move walk and its confirmations build its masks once, not once
        per host."""
        built = []
        masks_of = AssessmentKernel._masks_of
        monkeypatch.setattr(
            AssessmentKernel,
            "_masks_of",
            lambda self, ids: built.append(len(ids)) or masks_of(self, ids),
        )
        result = _zone_search(
            zones2,
            zone_model,
            temperature_schedule=MoveBudgetTemperatureSchedule(25),
        ).search(
            SearchSpec(
                ApplicationStructure.k_of_n(3, 4),
                max_seconds=30.0,
                max_iterations=25,
                zone_constraints=CROSS_ZONE,
            )
        )
        assert result.iterations == 25 and result.plans_assessed > 10
        engine = GenericReachabilityEngine(zones2)
        assert built == [len(engine.relevant_elements(zones2.hosts[:1]))]


#: Web/app/db tiers: inter-component requirements go through
#: pairwise_reachable.
LAYERED = ApplicationStructure.from_requirement_map(
    {"web": 2, "app": 3, "db": 2},
    {("app", "web"): 1, ("db", "app"): 2},
)


class TestGenericEngineKeepsEveryAnswer:
    """The all-rounds generic engine against the per-round union-find it
    replaced, through the whole search: same plans, estimates, trajectory
    and cache counters, for K-of-N and layered structures. Only the engine
    differs: the production search drives the oracle through its
    unpack/pack door."""

    @staticmethod
    def _search_with(zones2, zone_model, engine, structure, batch_size):
        metrics = MetricsRegistry()
        config = AssessmentConfig(rounds=300, rng=5, engine=engine, metrics=metrics)
        result = _zone_search(
            zones2,
            zone_model,
            config=config,
            batch_size=batch_size,
            keep_trace=True,
        ).search(
            SearchSpec(
                structure,
                max_seconds=30.0,
                max_iterations=12,
                zone_constraints=CROSS_ZONE,
            )
        )
        counters = metrics.snapshot()["counters"]
        # The substrate's kernel is warm for the second run, by design.
        return result, {k: v for k, v in counters.items() if not k.startswith("kernel/")}

    def _assert_same_search(self, zones2, zone_model, structure, batch_size):
        got, got_counters = self._search_with(
            zones2, zone_model, GenericReachabilityEngine(zones2), structure,
            batch_size,
        )
        want, want_counters = self._search_with(
            zones2, zone_model, UnionFindReachabilityEngine(zones2), structure,
            batch_size,
        )
        assert got.best_plan == want.best_plan
        assert got.best_assessment.estimate == want.best_assessment.estimate
        assert np.array_equal(
            got.best_assessment.per_round, want.best_assessment.per_round
        )
        assert got.trace == want.trace and len(got.trace) >= 12
        for field in (
            "iterations",
            "plans_assessed",
            "plans_skipped_symmetric",
            "candidates_proposed",
            "batches_scored",
        ):
            assert getattr(got, field) == getattr(want, field), field
        assert got_counters == want_counters
        return got_counters

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_search_matches_union_find_oracle(self, zones2, zone_model, batch_size):
        self._assert_same_search(
            zones2, zone_model, ApplicationStructure.k_of_n(3, 4), batch_size
        )

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_layered_search_matches_union_find_oracle(
        self, zones2, zone_model, batch_size
    ):
        """Pair reach across moves: new hosts on the walk's one states
        object are answered from the reach matrices kept there."""
        counters = self._assert_same_search(
            zones2, zone_model, LAYERED, batch_size
        )
        # More pairs were routed than one plan asks for (12): the walk's
        # later plans asked for pairs on the same states object.
        assert counters["route/pair/miss"] > 12
        assert counters["route/pair/hit"] > 0

    def test_layered_assessment_matches_union_find_oracle(self, zones2, zone_model):
        structure = LAYERED
        zone0, zone1 = zones2.hosts_in_zone("zone0"), zones2.hosts_in_zone("zone1")
        plan = DeploymentPlan.from_mapping(
            {
                "web": [zone0[0], zone1[0]],
                "app": [zone0[1], zone0[5], zone1[3]],
                "db": [zone0[9], zone1[7]],
            }
        )
        results = [
            build_assessor(
                zones2,
                zone_model,
                AssessmentConfig(rounds=501, rng=21, engine=engine),
            ).assess(plan, structure)
            for engine in (
                GenericReachabilityEngine(zones2),
                UnionFindReachabilityEngine(zones2),
            )
        ]
        assert results[0].estimate == results[1].estimate
        assert 0.0 < results[0].estimate.score < 1.0
        assert np.array_equal(results[0].per_round, results[1].per_round)
        # And the one pipeline itself, on the shipped generic engine, against
        # the interpreted reference with the union-find's dense answers.
        assessor = build_assessor(
            zones2, zone_model, AssessmentConfig(rounds=501, rng=21)
        )
        per_round, sampled = interpreted_assess(
            zones2, zone_model, plan, structure, 501,
            assessor.sampler, np.random.default_rng(21),
        )
        result = assessor.assess(plan, structure)
        assert np.array_equal(result.per_round, per_round)
        assert result.sampled_components == sampled


def spec_document_legacy(document):
    """A pre-zone checkpoint document: no zone_constraints key at all."""
    legacy = dict(document)
    legacy.pop("zone_constraints", None)
    return legacy


class TestZoneSymmetry:
    def test_hosts_differing_only_by_zone_are_not_equivalent(
        self, zones2, zone_model
    ):
        """The mirror host in the other zone has a different shared-root
        context, so swapping zones is a real move, not a symmetry skip."""
        checker = SurgeryGraphChecker(zones2, zone_model)
        filt = BatchSymmetryFilter(checker)
        h0 = "zone0/host/0/0/0"
        mirror = "zone1/host/0/0/0"

        other = ["zone0/host/1/0/0", "zone1/host/2/1/1"]
        plan_a = DeploymentPlan.from_mapping({"app": [h0] + other})
        plan_b = DeploymentPlan.from_mapping({"app": [mirror] + other})
        assert not filt.equivalent(plan_a, plan_b)
        assert not checker.equivalent(plan_a, plan_b)

    def test_same_zone_mirror_hosts_are_equivalent(self, zones2, zone_model):
        """Within one zone the fat-tree symmetry still collapses mirrors."""
        checker = SurgeryGraphChecker(zones2, zone_model)
        filt = BatchSymmetryFilter(checker)
        a = "zone0/host/0/0/0"
        b = "zone0/host/0/0/1"  # same edge switch, same pod, same roots
        other = ["zone0/host/1/0/0", "zone1/host/2/1/1"]
        plan_a = DeploymentPlan.from_mapping({"app": [a] + other})
        plan_b = DeploymentPlan.from_mapping({"app": [b] + other})
        assert filt.equivalent(plan_a, plan_b) == checker.equivalent(
            plan_a, plan_b
        )


# ----------------------------------------------------------------------
# Zone outage injection
# ----------------------------------------------------------------------


class TestZoneOutage:
    def test_inject_and_revert_restore_probabilities(self, zone_model):
        before = dict(zone_model.failure_probabilities())
        outage = ZoneOutage(zone_model, "zone0")
        roots = outage.inject()
        assert outage.active
        after = zone_model.failure_probabilities()
        for root in roots:
            assert after[root] == ZONE_OUTAGE_PROBABILITY
        outage.revert()
        assert not outage.active
        assert zone_model.failure_probabilities() == before

    def test_idempotent(self, zone_model):
        outage = ZoneOutage(zone_model, "zone0")
        outage.inject()
        outage.inject()  # no-op, must not overwrite the saved originals
        outage.revert()
        outage.revert()
        probabilities = zone_model.failure_probabilities()
        for root in outage.root_ids:
            assert probabilities[root] < 0.5

    def test_context_manager_and_correlated_damage(self, zones2, zone_model):
        """A zone outage must take down a zone-pinned plan's reliability
        far below the cross-zone plan's — the correlated event the
        constraints guard against."""
        assessor = build_assessor(
            zones2, zone_model, AssessmentConfig(rounds=1_500, rng=3)
        )
        z0 = zones2.hosts_in_zone("zone0")
        z1 = zones2.hosts_in_zone("zone1")
        pinned = DeploymentPlan.from_mapping({"app": z0[:3]})
        spread = DeploymentPlan.from_mapping({"app": [z0[0], z0[1], z1[0]]})
        with ZoneOutage(zone_model, "zone0"):
            assessor.refresh_probabilities()
            pinned_score = assessor.assess(pinned, STRUCTURE).score
            spread_score = assessor.assess(spread, STRUCTURE).score
        assessor.refresh_probabilities()
        healthy_score = assessor.assess(pinned, STRUCTURE).score
        assert pinned_score < 0.1
        assert spread_score > 0.8
        assert healthy_score > 0.9

    def test_rejects_bad_probability(self, zone_model):
        with pytest.raises(ConfigurationError):
            ZoneOutage(zone_model, "zone0", probability=1.0)

    def test_partial_inject_failure_restores_mutated_roots(self, zone_model):
        """An override that fails partway through inject() must roll back
        the roots already driven to the outage probability: ``with``
        never reaches ``__exit__`` when ``__enter__`` raises, so inject
        itself has to be all-or-nothing."""

        class FlakyModel:
            """Delegating proxy whose override refuses one poisoned root —
            but only when driving it *to* the outage probability, so the
            rollback's restore of the original value still goes through."""

            def __init__(self, model, poison, probability):
                self._model = model
                self._poison = poison
                self._probability = probability

            def __getattr__(self, name):
                return getattr(self._model, name)

            def override_probabilities(self, overrides):
                if overrides.get(self._poison) == self._probability:
                    raise RuntimeError("chaos: override refused")
                self._model.override_probabilities(overrides)

        before = dict(zone_model.failure_probabilities())
        roots = zone_shared_root_ids(zone_model, "zone0")
        assert len(roots) >= 2  # the partial-application hazard needs >1 root
        flaky = FlakyModel(zone_model, roots[-1], ZONE_OUTAGE_PROBABILITY)
        outage = ZoneOutage(flaky, "zone0")
        with pytest.raises(RuntimeError):
            with outage:
                pass  # pragma: no cover - inject raises before the body
        assert not outage.active
        assert zone_model.failure_probabilities() == before
