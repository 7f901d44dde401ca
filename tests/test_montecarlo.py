"""Unit tests for Monte-Carlo sampling (repro.sampling.montecarlo)."""

import math

import numpy as np
import pytest

from repro.kernel.packed import PackedBatch
from repro.sampling.base import validate_probabilities
from repro.sampling.montecarlo import MonteCarloSampler
from repro.util.errors import ConfigurationError
from tests.conftest import failed_rounds, unpack


class TestMonteCarloSampler:
    def test_marginal_rate(self, rng):
        p, rounds = 0.05, 100_000
        batch = MonteCarloSampler().sample({"c": p}, rounds, rng)
        sigma = math.sqrt(p * (1 - p) / rounds)
        assert abs(len(failed_rounds(batch)["c"]) / rounds - p) < 5 * sigma

    def test_zero_probability_skipped(self, rng):
        batch = MonteCarloSampler().sample({"c": 0.0}, 1_000, rng)
        assert batch.component_ids == ()
        assert failed_rounds(batch) == {}

    def test_rejects_invalid_probability(self, rng):
        with pytest.raises(ConfigurationError):
            MonteCarloSampler().sample({"c": 1.0}, 100, rng)

    def test_failed_rounds_sorted(self, rng):
        batch = MonteCarloSampler().sample({"c": 0.3}, 5_000, rng)
        failed = failed_rounds(batch)["c"]
        assert np.all(np.diff(failed) > 0)

    def test_chunking_handles_many_components(self, rng):
        # More components than one chunk row-budget for this round count.
        probabilities = {f"c{i}": 0.2 for i in range(600)}
        batch = MonteCarloSampler().sample(probabilities, 100, rng)
        failed = failed_rounds(batch)
        rates = [len(failed.get(f"c{i}", ())) / 100 for i in range(600)]
        assert np.mean(rates) == pytest.approx(0.2, abs=0.01)

    def test_components_independent(self, rng):
        rounds = 50_000
        batch = MonteCarloSampler().sample({"a": 0.3, "b": 0.3}, rounds, rng)
        a, b = unpack(batch.matrix, rounds)
        joint = np.mean(a & b)
        assert joint == pytest.approx(0.09, abs=0.01)

    def test_deterministic_given_seed(self):
        b1 = MonteCarloSampler().sample({"a": 0.1}, 1_000, np.random.default_rng(4))
        b2 = MonteCarloSampler().sample({"a": 0.1}, 1_000, np.random.default_rng(4))
        assert np.array_equal(b1.matrix, b2.matrix)


class TestSampleBatch:
    """The batch every sampler returns: a bit-packed ``PackedBatch``."""

    def test_rejects_non_positive_rounds(self):
        with pytest.raises(ConfigurationError):
            PackedBatch(rounds=0)

    def test_dense_roundtrip(self, rng):
        batch = MonteCarloSampler().sample({"c": 0.4}, 500, rng)
        dense = unpack(batch.matrix[0], 500)
        assert np.array_equal(np.nonzero(dense)[0], failed_rounds(batch)["c"])

    def test_dense_unknown_component_all_alive(self):
        batch = PackedBatch(rounds=10)
        assert batch.failed_rows() == {} and not batch.nonzero.any()

    def test_validate_probabilities(self):
        validate_probabilities({"a": 0.0, "b": 0.999})
        with pytest.raises(ConfigurationError):
            validate_probabilities({"a": -0.01})
