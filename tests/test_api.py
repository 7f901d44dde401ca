"""Tests for the unified assessment API (repro.core.api) and the stable
serialization of results and search state.

Covers: AssessmentConfig validation, build_assessor dispatch, the rejection
of the legacy keyword forms, the Assessor protocol, encode/decode
round-trips (including runtime profiles), and the byte-budgeted Monte
Carlo chunking.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.api import (
    AssessmentConfig,
    Assessor,
    build_assessor,
    score_plans_sequentially,
)
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult
from repro.core.search import DeploymentSearch, SearchSpec, SearchState
from repro.runtime.mapreduce import ParallelAssessor
from repro.sampling import montecarlo
from repro.sampling.montecarlo import MonteCarloSampler
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry

STRUCTURE = ApplicationStructure.k_of_n(2, 3)


class TestAssessmentConfig:
    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ConfigurationError):
            AssessmentConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            AssessmentConfig(rounds=-100)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            AssessmentConfig(mode="quantum")

    def test_with_updates_returns_new_config(self):
        base = AssessmentConfig(rounds=500)
        updated = base.with_updates(rounds=900, mode="incremental")
        assert base.rounds == 500
        assert updated.rounds == 900
        assert updated.mode == "incremental"


class TestBuildAssessorDispatch:
    CONFIG = AssessmentConfig(rounds=500, rng=1)

    def test_sequential(self, fattree4, inventory):
        assessor = build_assessor(fattree4, inventory, self.CONFIG)
        assert isinstance(assessor, ReliabilityAssessor)
        assert isinstance(assessor, Assessor)

    def test_parallel(self, fattree4, inventory, no_fork):
        config = self.CONFIG.with_updates(mode="parallel")
        with build_assessor(fattree4, inventory, config) as assessor:
            assert isinstance(assessor, ParallelAssessor)
            assert isinstance(assessor, Assessor)

    def test_incremental(self, fattree4, inventory):
        config = self.CONFIG.with_updates(mode="incremental")
        assessor = build_assessor(fattree4, inventory, config)
        assert isinstance(assessor, IncrementalAssessor)
        assert isinstance(assessor, Assessor)

    def test_default_config_is_sequential(self, fattree4, inventory):
        assessor = build_assessor(fattree4, inventory)
        assert isinstance(assessor, ReliabilityAssessor)


class TestLegacyKwargsRejected:
    """The pre-``AssessmentConfig`` keyword forms are a plain TypeError:
    no constructor takes assessment knobs as keywords any more."""

    def test_reliability_assessor_legacy_kwargs_raise(self, fattree4, inventory):
        with pytest.raises(TypeError, match="rounds"):
            ReliabilityAssessor(fattree4, inventory, rounds=500, rng=1)

    def test_parallel_assessor_legacy_kwargs_raise(self, fattree4, inventory):
        with pytest.raises(TypeError, match="workers"):
            ParallelAssessor(fattree4, inventory, workers=2)

    def test_build_assessor_legacy_kwargs_raise(self, fattree4, inventory):
        with pytest.raises(TypeError, match="rounds"):
            build_assessor(fattree4, inventory, rounds=700)

    def test_unknown_keyword_reported_as_unknown(self, fattree4, inventory):
        with pytest.raises(TypeError, match="hyperdrive"):
            build_assessor(fattree4, inventory, hyperdrive=True)

    def test_config_form_does_not_warn(self, fattree4, inventory):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ReliabilityAssessor.from_config(
                fattree4, inventory, AssessmentConfig(rounds=500)
            )
            build_assessor(fattree4, inventory, AssessmentConfig(rounds=500))


class TestOneRepresentation:
    """The interpreted column and the option that selected it are gone;
    neither spelling may drift back."""

    def test_config_has_no_kernel_field(self):
        names = {f.name for f in dataclasses.fields(AssessmentConfig)}
        removed = {
            "kernel",
            "backend",
            "sample_full_infrastructure",
            "profile",
            "analytic_shared_bits",
        }
        assert names.isdisjoint(removed) and len(names) == 12
        with pytest.raises(TypeError, match="kernel"):
            AssessmentConfig(kernel=False)

    @pytest.mark.parametrize(
        "argv",
        [
            ("assess", "--hosts", "host/0/0/0,host/1/0/0", "--k", "1"),
            ("redeploy", "--k", "2", "--n", "3", "--state-dir", "unused"),
        ],
        ids=["assess", "redeploy"],
    )
    def test_no_kernel_flag_is_an_argparse_error(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-kernel"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-kernel" in capsys.readouterr().err


class TestScorePlansProtocol:
    """score_plans is part of the Assessor protocol: every backend returns
    exactly what per-plan assess calls would."""

    CONFIG = AssessmentConfig(rounds=400, rng=3)

    def _plans(self, fattree4, count=3):
        rng = np.random.default_rng(11)
        plans = [DeploymentPlan.random(fattree4, STRUCTURE, rng=rng)]
        while len(plans) < count:
            plans.append(plans[-1].random_neighbor(fattree4, rng=rng))
        return plans

    def test_sequential_backend_matches_assess(self, fattree4, inventory):
        plans = self._plans(fattree4)
        batch = ReliabilityAssessor.from_config(
            fattree4, inventory, self.CONFIG.with_updates(master_seed=9)
        )
        results = batch.score_plans(plans, STRUCTURE)
        assert len(results) == len(plans)
        for plan, result in zip(plans, results):
            assert result.plan == plan

    def test_incremental_backend_bit_identical(self, fattree4, inventory):
        plans = self._plans(fattree4, count=4)
        config = AssessmentConfig(mode="incremental", rounds=400, master_seed=7)
        batched = IncrementalAssessor.from_config(fattree4, inventory, config)
        sequential = IncrementalAssessor.from_config(fattree4, inventory, config)
        batch_results = batched.score_plans(plans, STRUCTURE)
        for plan, batch_result in zip(plans, batch_results):
            lone = sequential.assess(plan, STRUCTURE)
            assert np.array_equal(batch_result.per_round, lone.per_round)
            assert batch_result.estimate == lone.estimate

    def test_parallel_backend_uses_fallback(self, fattree4, inventory, no_fork):
        plans = self._plans(fattree4, count=2)
        config = AssessmentConfig(mode="parallel", rounds=400, rng=3, workers=2)
        with ParallelAssessor.from_config(fattree4, inventory, config) as pa:
            results = pa.score_plans(plans, STRUCTURE)
        assert [r.plan for r in results] == plans

    def test_sequential_helper_orders_results(self, fattree4, inventory):
        plans = self._plans(fattree4, count=2)
        assessor = ReliabilityAssessor.from_config(fattree4, inventory, self.CONFIG)
        results = score_plans_sequentially(assessor, plans, STRUCTURE)
        assert [r.plan for r in results] == plans

    def test_empty_batch(self, fattree4, inventory):
        assessor = ReliabilityAssessor.from_config(fattree4, inventory, self.CONFIG)
        assert assessor.score_plans([], STRUCTURE) == []


class TestAssessmentResultRoundTrip:
    def _result(self, fattree4, inventory, metrics=None):
        config = AssessmentConfig(
            mode="incremental", rounds=500, master_seed=7, metrics=metrics
        )
        assessor = IncrementalAssessor.from_config(fattree4, inventory, config)
        plan = DeploymentPlan.random(fattree4, STRUCTURE, rng=2)
        return assessor.assess(plan, STRUCTURE)

    def test_round_trip_without_runtime(self, fattree4, inventory):
        result = self._result(fattree4, inventory)
        assert result.runtime is None
        restored = serialization.decode(
            AssessmentResult, serialization.encode(result)
        )
        assert restored.runtime is None
        assert restored.estimate == result.estimate
        assert restored.plan == result.plan
        assert restored.sampled_components == result.sampled_components
        # per_round is deliberately not serialized (reproducible from the
        # recorded seeds); the decoded result carries an empty vector.
        assert restored.per_round.size == 0

    def test_round_trip_with_runtime_profile(self, fattree4, inventory):
        result = self._result(fattree4, inventory, MetricsRegistry())
        assert result.runtime is not None
        assert result.runtime.profile
        document = serialization.encode(result)
        restored = serialization.decode(AssessmentResult, document)
        assert restored.runtime.backend == "incremental"
        assert restored.runtime.profile == result.runtime.profile


class TestSearchStateRoundTrip:
    def test_checkpoint_round_trips_bit_exactly(
        self, fattree4, inventory, tmp_path
    ):
        ckpt = str(tmp_path / "state.json")
        search = DeploymentSearch.from_config(
            fattree4,
            inventory,
            AssessmentConfig(rounds=500, rng=5),
            rng=42,
            checkpoint_path=ckpt,
            checkpoint_every=2,
        )
        search.search(SearchSpec(STRUCTURE, max_seconds=30.0, max_iterations=6))
        document = serialization.load(ckpt)
        state = serialization.decode(SearchState, document)
        assert serialization.encode(state) == document

    def test_version_mismatch_rejected(self, fattree4, inventory, tmp_path):
        ckpt = str(tmp_path / "state.json")
        search = DeploymentSearch.from_config(
            fattree4,
            inventory,
            AssessmentConfig(rounds=500, rng=5),
            rng=42,
            checkpoint_path=ckpt,
            checkpoint_every=2,
        )
        search.search(SearchSpec(STRUCTURE, max_seconds=30.0, max_iterations=4))
        document = serialization.load(ckpt)
        document["version"] = 999
        with pytest.raises(ConfigurationError):
            serialization.decode(SearchState, document)


class TestMonteCarloChunking:
    def test_budget_is_bytes_not_rows(self):
        rounds = 10_000
        expected = max(
            1,
            montecarlo._CHUNK_BUDGET_BYTES
            // (rounds * montecarlo._BYTES_PER_DRAW),
        )
        assert expected * rounds * montecarlo._BYTES_PER_DRAW <= (
            montecarlo._CHUNK_BUDGET_BYTES
        )

    def test_chunk_size_does_not_change_samples(self, monkeypatch):
        """The RNG stream is consumed identically whatever the chunk size,
        so shrinking the budget must not change a single sampled state."""
        probabilities = {f"c{i}": 0.05 + 0.001 * i for i in range(50)}
        baseline = MonteCarloSampler().sample(
            probabilities, rounds=200, rng=np.random.default_rng(3)
        )
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET_BYTES", 4096)
        chunked = MonteCarloSampler().sample(
            probabilities, rounds=200, rng=np.random.default_rng(3)
        )
        assert baseline.component_ids == chunked.component_ids
        assert np.array_equal(baseline.matrix, chunked.matrix)
