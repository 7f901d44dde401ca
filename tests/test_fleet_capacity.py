"""Fleet capacity planner: the service assessed with its own machinery."""

from __future__ import annotations

import math

import pytest

from repro.serialization import decode, encode
from repro.service.capacity import (
    FleetCapacityPlan,
    assess_fleet,
    fleet_fault_tree,
    plan_capacity,
    worker_unavailability,
)
from repro.util.errors import ConfigurationError, ValidationError
from tests.interpreted_oracle import evaluate_round


def binomial_availability(n: int, k: int, p: float) -> float:
    """Closed form: P(at least k of n independent workers alive)."""
    return sum(
        math.comb(n, alive) * (1 - p) ** alive * p ** (n - alive)
        for alive in range(k, n + 1)
    )


class TestWorkerUnavailability:
    def test_rate_times_window(self):
        # 6 crashes/hour x 10s failover = 60s downtime per hour.
        assert worker_unavailability(6.0, 10.0) == pytest.approx(60 / 3600)

    def test_clamped_to_one(self):
        assert worker_unavailability(3600.0, 36_000.0) == 1.0

    def test_zero_crash_rate_is_always_up(self):
        assert worker_unavailability(0.0, 30.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            worker_unavailability(-1.0, 5.0)
        with pytest.raises(ConfigurationError):
            worker_unavailability(1.0, -5.0)


class TestFleetFaultTree:
    def test_tree_fails_when_too_few_survive(self):
        tree = fleet_fault_tree(workers=3, k_required=2)
        assert not evaluate_round(tree, set())
        assert not evaluate_round(tree, {"worker-0"})
        assert evaluate_round(tree, {"worker-0", "worker-1"})

    def test_bounds_are_validated(self):
        with pytest.raises(ConfigurationError):
            fleet_fault_tree(0, 1)
        with pytest.raises(ConfigurationError):
            fleet_fault_tree(3, 4)
        with pytest.raises(ConfigurationError):
            fleet_fault_tree(3, 0)


class TestAssessFleet:
    def test_analytic_matches_the_binomial_closed_form(self):
        p = 0.05
        candidate = assess_fleet(6, 4, p)
        assert candidate.method == "analytic"
        assert candidate.availability == pytest.approx(
            binomial_availability(6, 4, p), abs=1e-12
        )
        assert candidate.availability_lower == candidate.availability

    def test_large_fleets_stay_analytic(self):
        # 25 workers used to exceed the 2**n enumeration limit and fall
        # back to Monte Carlo; the Poisson-binomial propagation is exact
        # at any size.
        p = 0.05
        candidate = assess_fleet(25, 20, p)
        assert candidate.method == "analytic"
        truth = binomial_availability(25, 20, p)
        assert candidate.availability == pytest.approx(truth, abs=1e-12)
        assert candidate.availability_lower == candidate.availability

    def test_very_large_fleets_match_the_closed_form(self):
        p = 0.02
        candidate = assess_fleet(120, 100, p)
        assert candidate.method == "analytic"
        truth = binomial_availability(120, 100, p)
        assert candidate.availability == pytest.approx(truth, abs=1e-10)

    def test_results_are_deterministic(self):
        first = assess_fleet(25, 20, 0.05)
        second = assess_fleet(25, 20, 0.05)
        assert first.availability == second.availability


class TestPlanCapacity:
    def test_zero_crash_rate_needs_no_spares(self):
        plan = plan_capacity(
            target_rps=40,
            per_worker_rps=10,
            slo=0.99999,
            crash_rate_per_hour=0.0,
            failover_seconds=10.0,
        )
        assert plan.k_required == 4
        assert plan.recommended_workers == 4

    def test_spares_are_added_until_the_slo_holds(self):
        plan = plan_capacity(
            target_rps=40,
            per_worker_rps=12,
            slo=0.9999,
            crash_rate_per_hour=6.0,
            failover_seconds=10.0,
            max_workers=16,
        )
        assert plan.k_required == 4
        assert plan.recommended_workers is not None
        assert plan.recommended_workers > plan.k_required
        # The recommendation is the *first* size meeting the SLO, and
        # every smaller candidate missed it.
        for candidate in plan.candidates[:-1]:
            assert not candidate.meets_slo
        assert plan.candidates[-1].meets_slo

    def test_unsatisfiable_within_max_workers(self):
        plan = plan_capacity(
            target_rps=10,
            per_worker_rps=10,
            slo=0.999999,
            crash_rate_per_hour=360.0,  # a crash every 10s of uptime
            failover_seconds=30.0,
            max_workers=3,
        )
        assert plan.recommended_workers is None
        assert not plan.satisfiable
        assert all(not c.meets_slo for c in plan.candidates)

    def test_to_dict_round_trips_the_decision(self):
        plan = plan_capacity(
            target_rps=20,
            per_worker_rps=10,
            slo=0.999,
            crash_rate_per_hour=2.0,
            failover_seconds=5.0,
        )
        document = encode(plan)
        assert decode(FleetCapacityPlan, document) == plan
        assert document["k_required"] == 2
        assert document["recommended_workers"] == plan.recommended_workers
        assert document["candidates"][-1]["meets_slo"] is True

    def test_inputs_are_validated(self):
        with pytest.raises(ConfigurationError):
            plan_capacity(0, 10, 0.99, 1.0, 5.0)
        with pytest.raises(ConfigurationError):
            plan_capacity(10, 0, 0.99, 1.0, 5.0)
        with pytest.raises(ConfigurationError):
            plan_capacity(10, 10, 1.5, 1.0, 5.0)

    @pytest.mark.parametrize(
        "kwargs, fields",
        [
            ({"target_rps": math.nan}, ("target_rps",)),
            ({"per_worker_rps": math.inf}, ("per_worker_rps",)),
            ({"target_rps": 1e300, "per_worker_rps": 1e-300}, ("k_required",)),
            ({"crash_rate_per_hour": math.nan}, ("crash_rate_per_hour",)),
            ({"failover_seconds": math.nan}, ("failover_seconds",)),
            ({"failover_seconds": math.inf}, ("failover_seconds",)),
            ({"max_workers": 0}, ("max_workers",)),
            (
                {"target_rps": 0.0, "slo": math.nan, "failover_seconds": -1.0, "max_workers": -3},
                ("target_rps", "slo", "failover_seconds", "max_workers"),
            ),
        ],
        ids=[
            "nan-target", "inf-per-worker", "overflowing-count", "nan-crash-rate",
            "nan-failover", "inf-failover", "no-workers", "every-field",
        ],
    )
    def test_nonsense_inputs_raise_one_error_naming_every_field(self, kwargs, fields):
        args = {
            "target_rps": 10.0, "per_worker_rps": 5.0, "slo": 0.999,
            "crash_rate_per_hour": 1.0, "failover_seconds": 5.0, **kwargs,
        }
        with pytest.raises(ValidationError) as excinfo:
            plan_capacity(**args)
        assert excinfo.value.fields() == fields
