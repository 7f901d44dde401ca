"""Input validation at the API boundary.

Every entry point (deployment plans, assessment configs, service
requests) collects *all* field-level problems and raises one
:class:`ValidationError`, which is both a ``ConfigurationError`` (old
handlers keep working) and a typed record the service can serialize.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.plan import DeploymentPlan
from repro.core.search import SearchSpec
from repro.core.result import AssessmentResult, PortionFailure, RuntimeMetadata
from repro.sampling.statistics import estimate_from_results
from repro.serialization import decode, encode
from repro.service.redeploy import RedeploymentController
from repro.service.requests import AssessRequest, SearchRequest
from repro.service.fleet import ServiceConfig
from repro.util.errors import ConfigurationError, ValidationError

STRUCTURE = ApplicationStructure.k_of_n(2, 3)


class TestValidationError:
    def test_collects_every_field(self):
        exc = ValidationError([("a", "bad"), ("b", "worse")])
        assert exc.errors == (("a", "bad"), ("b", "worse"))
        assert exc.fields() == ("a", "b")
        assert "a: bad" in str(exc) and "b: worse" in str(exc)

    def test_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            raise ValidationError([("x", "nope")])

    def test_as_dict_is_json_ready(self):
        document = ValidationError([("k", "must be >= 1")]).as_dict()
        assert document["error"] == "validation"
        assert document["errors"] == [{"field": "k", "message": "must be >= 1"}]

    def test_empty_error_list_is_rejected(self):
        with pytest.raises(ValueError):
            ValidationError([])


class TestPlanValidation:
    def test_valid_plan_passes(self, fattree4):
        plan = DeploymentPlan.single_component(
            fattree4.hosts[:3], STRUCTURE.components[0].name
        )
        plan.validate_against(fattree4, STRUCTURE)

    def test_unknown_host_is_a_field_error(self, fattree4):
        plan = DeploymentPlan.single_component(
            list(fattree4.hosts[:2]) + ["host/nowhere"],
            STRUCTURE.components[0].name,
        )
        with pytest.raises(ValidationError) as excinfo:
            plan.validate_against(fattree4, STRUCTURE)
        assert "hosts" in excinfo.value.fields()
        assert "host/nowhere" in str(excinfo.value)

    def test_non_host_component_is_reported(self, fattree4):
        switch = next(
            cid for cid in fattree4.components if not cid.startswith("host")
        )
        plan = DeploymentPlan.single_component(
            list(fattree4.hosts[:2]) + [switch], STRUCTURE.components[0].name
        )
        with pytest.raises(ValidationError) as excinfo:
            plan.validate_against(fattree4, STRUCTURE)
        assert "not a host" in str(excinfo.value)

    def test_wrong_instance_count_names_the_component(self, fattree4):
        plan = DeploymentPlan.single_component(
            fattree4.hosts[:2], STRUCTURE.components[0].name
        )
        with pytest.raises(ValidationError) as excinfo:
            plan.validate_against(fattree4, STRUCTURE)
        name = STRUCTURE.components[0].name
        assert f"placements.{name}" in excinfo.value.fields()

    def test_multiple_problems_reported_together(self, fattree4):
        # Wrong count AND an unknown host: both must appear in one error.
        plan = DeploymentPlan.single_component(
            [fattree4.hosts[0], "host/nowhere"], STRUCTURE.components[0].name
        )
        with pytest.raises(ValidationError) as excinfo:
            plan.validate_against(fattree4, STRUCTURE)
        fields = excinfo.value.fields()
        assert any(f.startswith("placements.") for f in fields)
        assert "hosts" in fields


class TestAssessmentConfigValidation:
    def test_valid_config_passes(self, fattree4):
        AssessmentConfig(rounds=100).validate(fattree4)

    def test_parallel_cross_field_checks(self):
        config = AssessmentConfig(mode="parallel", workers=2)
        bad = config.with_updates(workers=0, master_seed=-1)
        with pytest.raises(ValidationError) as excinfo:
            bad.validate()
        assert set(excinfo.value.fields()) == {"workers", "master_seed"}

    def test_workers_ignored_outside_parallel_mode(self):
        # Sequential mode does not read workers; no error.
        AssessmentConfig(mode="sequential", workers=0).validate()

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            AssessmentConfig(master_seed=-1).validate()
        assert excinfo.value.fields() == ("master_seed",)

    @pytest.mark.parametrize("seed", [1.5, True, False, "7", float("nan")], ids=repr)
    def test_master_seed_is_an_int(self, seed):
        """A float or bool seed would silently run an int seed's streams."""
        with pytest.raises(ValidationError) as excinfo:
            AssessmentConfig(master_seed=seed).validate()
        assert excinfo.value.fields() == ("master_seed",)

    @pytest.mark.parametrize("bits", [True, 3.5, float("nan"), -1, 27], ids=repr)
    def test_analytic_state_bits_is_an_int_in_budget(self, bits):
        with pytest.raises(ValidationError) as excinfo:
            AssessmentConfig(analytic_state_bits=bits).validate()
        assert excinfo.value.fields() == ("analytic_state_bits",)

    @pytest.mark.parametrize("bits", [0, 26])
    def test_analytic_state_bits_bounds_are_inclusive(self, bits):
        AssessmentConfig(analytic_state_bits=bits, master_seed=2**70).validate()

    def test_unphysical_probabilities_reported(self, fattree4):
        """Every sampler takes [0, 1): a certain failure is refused here,
        not mid-``assess`` by a sampler."""
        for probability in (1.5, 1.0, -0.1):

            class BrokenTopology:
                components = fattree4.components
                hosts = fattree4.hosts

                def failure_probabilities(self):
                    probabilities = fattree4.failure_probabilities()
                    first = next(iter(probabilities))
                    probabilities[first] = probability
                    return probabilities

            with pytest.raises(ValidationError) as excinfo:
                AssessmentConfig(rounds=100).validate(BrokenTopology())
            assert "topology.failure_probabilities" in excinfo.value.fields()
            assert str(probability) in str(excinfo.value)

    def test_build_assessor_validates(self, fattree4, inventory):
        with pytest.raises(ValidationError):
            build_assessor(
                fattree4,
                inventory,
                AssessmentConfig(mode="parallel", workers=0),
            )

    @pytest.mark.parametrize(
        "rounds", [True, 2.5, float("nan"), float("inf"), 0, -3], ids=repr
    )
    def test_rounds_it_cannot_run_are_refused_at_construction(self, rounds):
        """The rule ``ServiceConfig.rounds`` applies: an int >= 1, never a
        bool. Each of these used to construct and then die in ``assess``."""
        with pytest.raises(ValidationError) as excinfo:
            AssessmentConfig(rounds=rounds)
        assert excinfo.value.fields() == ("rounds",)
        with pytest.raises(ValidationError):
            ServiceConfig(rounds=rounds)

    @pytest.mark.parametrize("workers", [True, 1.5], ids=repr)
    def test_workers_that_are_not_ints_are_field_errors(self, workers):
        with pytest.raises(ValidationError) as excinfo:
            AssessmentConfig(mode="parallel", workers=workers).validate()
        assert excinfo.value.fields() == ("workers",)


class TestServiceConfigValidation:
    """Counts the service cannot run with are refused at construction,
    before a lifecycle, a thread or a process exists."""

    def test_defaults_pass(self):
        ServiceConfig()
        ServiceConfig(queue_capacity=1, fleet_workers=1)
        ServiceConfig(rounds=1, default_deadline_seconds=0.25, drain_timeout_seconds=0)

    def test_zero_fleet_workers_rejected(self):
        # Admitted requests would wait for a worker that never exists.
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(fleet_workers=0)
        assert excinfo.value.fields() == ("fleet_workers",)

    def test_zero_queue_capacity_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(queue_capacity=0)
        assert excinfo.value.fields() == ("queue_capacity",)

    def test_negative_fleet_workers_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(fleet_workers=-1)
        assert excinfo.value.fields() == ("fleet_workers",)

    def test_one_error_names_every_bad_count(self):
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(queue_capacity=0, fleet_workers=-2, heartbeat_misses=0)
        assert excinfo.value.fields() == (
            "queue_capacity", "fleet_workers", "heartbeat_misses",
        )
        assert "got -2" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("heartbeat_interval_seconds", 0.0),
            ("heartbeat_interval_seconds", -0.5),
            ("heartbeat_interval_seconds", float("nan")),
            ("heartbeat_misses", 0),
            ("result_ttl_seconds", 0.0),
            ("result_ttl_seconds", -1.0),
        ],
    )
    def test_liveness_and_retention_must_be_positive(self, field, value):
        # A zero interval or miss budget quarantines every fleet worker;
        # a zero retention deletes every stored result at startup.
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(**{field: value})
        assert excinfo.value.fields() == (field,)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rounds", 0),
            ("rounds", -5),
            ("rounds", True),
            ("rounds", 2.5),
            ("default_deadline_seconds", 0.0),
            ("default_deadline_seconds", -1.0),
            ("default_deadline_seconds", float("nan")),
            ("default_deadline_seconds", float("inf")),
            ("drain_timeout_seconds", -3.0),
            ("drain_timeout_seconds", float("nan")),
            ("drain_timeout_seconds", float("inf")),
        ],
    )
    def test_rounds_deadline_and_drain_must_be_usable(self, field, value):
        # Zero rounds kill both executor threads at start, so every request
        # hangs; a NaN default deadline silently meant "unbounded" and a
        # negative one cancelled every request before it ran.
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(**{field: value})
        assert excinfo.value.fields() == (field,)

    def test_one_error_names_every_bad_setting(self):
        with pytest.raises(ValidationError) as excinfo:
            ServiceConfig(
                queue_capacity=0,
                heartbeat_interval_seconds=0,
                heartbeat_misses=0,
                result_ttl_seconds=-1,
            )
        assert set(excinfo.value.fields()) == {
            "queue_capacity",
            "heartbeat_interval_seconds",
            "heartbeat_misses",
            "result_ttl_seconds",
        }


class TestAssessRequest:
    def test_valid_request_passes(self, fattree4):
        AssessRequest(hosts=tuple(fattree4.hosts[:3]), k=2).validate(fattree4)

    def test_all_problems_in_one_error(self, fattree4):
        request = AssessRequest(
            hosts=("host/nowhere", "host/nowhere"),
            k=0,
            rounds=0,
            deadline_seconds=-1.0,
        )
        with pytest.raises(ValidationError) as excinfo:
            request.validate(fattree4)
        fields = set(excinfo.value.fields())
        assert {"hosts", "k", "rounds", "deadline_seconds"} <= fields

    def test_unknown_host_flood_is_summarised(self, fattree4):
        request = AssessRequest(
            hosts=tuple(f"host/fake/{i}" for i in range(9)), k=2
        )
        with pytest.raises(ValidationError) as excinfo:
            request.validate(fattree4)
        assert "more unknown hosts" in str(excinfo.value)

    def test_k_exceeding_hosts(self, fattree4):
        request = AssessRequest(hosts=tuple(fattree4.hosts[:2]), k=3)
        with pytest.raises(ValidationError) as excinfo:
            request.validate(fattree4)
        assert "k" in excinfo.value.fields()

    def test_from_dict_accepts_comma_string_hosts(self):
        request = decode(
            AssessRequest, {"hosts": "a, b ,c", "k": 2, "deadline_seconds": 1}
        )
        assert request.hosts == ("a", "b", "c")
        assert request.deadline_seconds == 1.0

    def test_from_dict_shape_errors_are_field_errors(self):
        with pytest.raises(ValidationError) as excinfo:
            decode(AssessRequest, {"hosts": 7, "k": "two", "rounds": True})
        assert set(excinfo.value.fields()) == {"hosts", "k", "rounds"}


class TestSearchRequest:
    def test_valid_request_passes(self, fattree4):
        SearchRequest(k=2, n=3).validate(fattree4)

    def test_cross_field_and_topology_checks(self, fattree4):
        with pytest.raises(ValidationError) as excinfo:
            SearchRequest(k=5, n=3).validate(fattree4)
        assert "k" in excinfo.value.fields()
        with pytest.raises(ValidationError) as excinfo:
            SearchRequest(k=2, n=10_000).validate(fattree4)
        assert "n" in excinfo.value.fields()

    def test_budget_and_reliability_ranges(self, fattree4):
        request = SearchRequest(
            k=2, n=3, max_seconds=0.0, desired_reliability=1.5
        )
        with pytest.raises(ValidationError) as excinfo:
            request.validate(fattree4)
        assert {"max_seconds", "desired_reliability"} <= set(
            excinfo.value.fields()
        )

    def test_from_dict_requires_k_and_n(self):
        with pytest.raises(ValidationError) as excinfo:
            decode(SearchRequest, {})
        assert set(excinfo.value.fields()) == {"k", "n"}

    def test_from_dict_defaults(self):
        request = decode(SearchRequest, {"k": 2, "n": 3})
        assert request.max_seconds == 5.0
        assert request.desired_reliability == 1.0
        assert request.rounds is None


class TestOneBudgetRule:
    """A search budget is a positive finite number of seconds on every
    surface that takes one. NaN compares false against every bound, so a
    check of ``<= 0`` alone let ``nan`` through, and a NaN budget never
    runs out."""

    BUDGETS = [0, -1, float("nan"), float("inf"), 1e-9, 5]
    ACCEPTED = (1e-9, 5)

    @staticmethod
    def _refused(call, field) -> bool:
        try:
            call()
        except ValidationError as exc:
            assert field in exc.fields()
            return True
        return False

    @pytest.mark.parametrize("seconds", BUDGETS, ids=repr)
    def test_every_surface_accepts_and_refuses_the_same_budgets(
        self, seconds, fattree4, tmp_path, capsys
    ):
        from repro.cli import main

        structure = ApplicationStructure.k_of_n(1, 2)
        incumbent = DeploymentPlan.single_component(fattree4.hosts[:2], "app")
        code = main(
            [
                "search", "--scale", "tiny", "--k", "1", "--n", "2",
                "--rounds", "200", "--move-budget", "2",
                "--seconds", str(seconds),
            ]
        )
        err = capsys.readouterr().err
        assert (code == 2) == ("max_seconds" in err)
        refused = {
            "SearchSpec": self._refused(
                lambda: SearchSpec(structure, max_seconds=seconds), "max_seconds"
            ),
            "SearchRequest.validate": self._refused(
                lambda: SearchRequest(k=1, n=2, max_seconds=seconds).validate(
                    fattree4
                ),
                "max_seconds",
            ),
            "RedeploymentController": self._refused(
                lambda: RedeploymentController(
                    None,
                    structure,
                    str(tmp_path / "state"),
                    incumbent=incumbent,
                    search_seconds=seconds,
                ),
                "search_seconds",
            ),
            "repro search --seconds": code == 2,
        }
        expected = seconds not in self.ACCEPTED
        assert refused == dict.fromkeys(refused, expected)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_gain", float("nan")),
            ("min_gain", -0.1),
            ("degradation_threshold", float("nan")),
            ("degradation_threshold", 0.0),
            ("max_retries", 0),
        ],
        ids=repr,
    )
    def test_controller_refuses_thresholds_it_cannot_compare(
        self, fattree4, tmp_path, field, value
    ):
        incumbent = DeploymentPlan.single_component(fattree4.hosts[:2], "app")
        with pytest.raises(ValidationError) as excinfo:
            RedeploymentController(
                None,
                ApplicationStructure.k_of_n(1, 2),
                str(tmp_path / "state"),
                incumbent=incumbent,
                **{field: value},
            )
        assert excinfo.value.fields() == (field,)
        assert not (tmp_path / "state").exists()


class TestJsonBodyNumbers:
    """``json.loads`` parses ``NaN`` and ``Infinity``, and ``true`` is an
    ``int`` to Python: an HTTP body carrying them is a field error, not a
    1-second deadline or a search that never runs out of time."""

    @pytest.mark.parametrize(
        "body,fields",
        [
            ('{"hosts": HOSTS, "k": 2, "deadline_seconds": true}', {"deadline_seconds"}),
            ('{"hosts": HOSTS, "k": 2, "deadline_seconds": NaN}', {"deadline_seconds"}),
            ('{"k": 2, "n": 3, "max_seconds": Infinity}', {"max_seconds"}),
            (
                '{"k": 2, "n": 3, "max_seconds": NaN, "deadline_seconds": Infinity}',
                {"max_seconds", "deadline_seconds"},
            ),
            ('{"k": 2, "n": 3, "desired_reliability": NaN}', {"desired_reliability"}),
        ],
        ids=[
            "deadline-true",
            "deadline-nan",
            "budget-infinity",
            "budget-nan-deadline-infinity",
            "reliability-nan",
        ],
    )
    def test_rejected_with_the_field_named(self, fattree4, body, fields):
        payload = json.loads(body.replace("HOSTS", json.dumps(fattree4.hosts[:3])))
        kind = AssessRequest if "hosts" in payload else SearchRequest
        with pytest.raises(ValidationError) as excinfo:
            decode(kind, payload).validate(fattree4)
        assert set(excinfo.value.fields()) == fields


def _assessment_document() -> dict:
    """A well-formed assessment document with a nested runtime."""
    return encode(
        AssessmentResult(
            plan=DeploymentPlan.single_component(["a", "b"]),
            estimate=estimate_from_results([1, 0, 1]),
            per_round=np.ones(3, dtype=bool),
            sampled_components=3,
            elapsed_seconds=0.5,
            runtime=RuntimeMetadata(
                backend="inline",
                workers=1,
                portion_seeds=(7,),
                failures=(PortionFailure(0, 0, "crash", "worker died"),),
            ),
        )
    )


def _broken(**changes) -> dict:
    """The assessment document with ``changes`` applied, each keyed by
    its path with ``__`` for the dots (``None`` deletes the key)."""
    document = _assessment_document()
    for path, value in changes.items():
        *parents, key = path.split("__")
        target = document
        for parent in parents:
            target = target[int(parent)] if parent.isdigit() else target[parent]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return document


class TestDecodeRejections:
    """``decode`` collects every shape and type error of a document into
    one :class:`ValidationError` naming each bad path, for every type."""

    @pytest.mark.parametrize(
        "cls, document, paths",
        [
            (AssessRequest, {"hosts": ["a"], "k": True}, {"k"}),
            (SearchRequest, {"k": 2, "n": 3, "max_seconds": False}, {"max_seconds"}),
            (AssessmentResult, _broken(estimate__rounds=True), {"estimate.rounds"}),
            (SearchRequest, {"k": "2", "n": 3}, {"k"}),
            (
                AssessmentResult,
                _broken(runtime__backend=["inline"]),
                {"runtime.backend"},
            ),
            (SearchRequest, {"n": 3}, {"k"}),
            (
                AssessmentResult,
                _broken(sampled_components=None),
                {"sampled_components"},
            ),
            (AssessmentResult, _broken(estimate=[0.5, 0.1]), {"estimate"}),
            (
                AssessmentResult,
                _broken(runtime__failures=[["crash"]]),
                {"runtime.failures.0"},
            ),
            (
                AssessmentResult,
                _broken(plan__placements=[{"hosts": ["a"]}]),
                {"plan.placements"},
            ),
            (
                AssessmentResult,
                _broken(
                    estimate__score="high",
                    estimate__exact=1,
                    runtime__workers=2.0,
                    runtime__failures__0__kind=None,
                    elapsed_seconds=None,
                ),
                {
                    "estimate.score",
                    "estimate.exact",
                    "runtime.workers",
                    "runtime.failures.0.kind",
                    "elapsed_seconds",
                },
            ),
        ],
        ids=[
            "bool-for-int",
            "bool-for-float",
            "nested-bool-for-int",
            "string-for-int",
            "list-for-string",
            "missing-required",
            "nested-missing-required",
            "list-for-object",
            "list-for-nested-object",
            "malformed-placements",
            "every-bad-path-at-once",
        ],
    )
    def test_one_error_names_every_bad_path(self, cls, document, paths):
        with pytest.raises(ValidationError) as excinfo:
            decode(cls, document)
        assert set(excinfo.value.fields()) == paths

    def test_the_well_formed_document_decodes(self):
        document = _assessment_document()
        assert encode(decode(AssessmentResult, document)) == document

