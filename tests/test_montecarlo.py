"""Unit tests for Monte-Carlo sampling (repro.sampling.montecarlo)."""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.kernel.packed import PackedBatch
from repro.sampling import montecarlo
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

    def test_a_draw_equal_to_p_is_alive(self):
        """``r < p`` fails a round (§3.2.1), so a draw of exactly ``p``,
        one in 2**53 at best, leaves it alive."""
        exact = SimpleNamespace(random=lambda shape: np.full(shape, 0.25))
        batch = MonteCarloSampler().sample({"c": 0.25, "d": 0.5}, 9, exact)
        assert batch.matrix.tolist() == [[0, 0], [255, 128]]

    def test_zero_rounds_are_refused(self, rng):
        with pytest.raises(ConfigurationError):
            MonteCarloSampler().sample({"c": 0.1}, 0, rng)

    def test_failed_rounds_sorted(self, rng):
        batch = MonteCarloSampler().sample({"c": 0.3}, 5_000, rng)
        failed = failed_rounds(batch)["c"]
        assert np.all(np.diff(failed) > 0)

    def test_chunking_handles_many_components(self, rng):
        # A budget of 64 rows at 100 rounds: 600 components cross nine
        # chunk boundaries, the last chunk part-full (one check a chunk).
        probabilities = {f"c{i}": 0.2 for i in range(600)}
        chunks = []
        cancel = SimpleNamespace(check=lambda: chunks.append(None))
        with mock.patch.object(
            montecarlo, "_CHUNK_BUDGET_BYTES", 64 * 100 * montecarlo._BYTES_PER_DRAW
        ):
            batch = MonteCarloSampler().sample(probabilities, 100, rng, cancel)
        assert len(chunks) == 10
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


class TestChunkBudget:
    """Components are drawn a chunk of rows at a time within
    ``_CHUNK_BUDGET_BYTES`` (a float64 draw and a bool a draw): the chunk
    size never changes a state, and a chunk never outgrows the budget."""

    PROBS = {f"c{i}": 0.01 * (1 + i % 7) for i in range(25)}

    @pytest.mark.parametrize("budget_rows", [0.5, 1, 3, 7, 10**6])
    def test_chunks_change_no_state(self, budget_rows):
        rounds = 100
        budget = int(budget_rows * rounds * montecarlo._BYTES_PER_DRAW)
        with mock.patch.object(montecarlo, "_CHUNK_BUDGET_BYTES", budget):
            batch = MonteCarloSampler().sample(self.PROBS, rounds, np.random.default_rng(3))
        p = np.array(list(self.PROBS.values()))
        failed = np.random.default_rng(3).random((len(p), rounds)) < p[:, None]
        assert batch.component_ids == tuple(self.PROBS)
        assert np.array_equal(batch.matrix, np.packbits(failed, axis=1))

    @pytest.mark.parametrize("budget_rows", [0.5, 4])
    def test_a_chunk_stays_within_the_budget(self, budget_rows):
        """At least one row a chunk, and no more rows than the budget
        holds: the peak is the matrix, one chunk and a few KiB."""
        rounds = 10_000
        row_bytes = rounds * montecarlo._BYTES_PER_DRAW
        probabilities = {f"c{i}": 0.1 for i in range(64)}
        with mock.patch.object(
            montecarlo, "_CHUNK_BUDGET_BYTES", int(budget_rows * row_bytes)
        ):
            tracemalloc.start()
            try:
                batch = MonteCarloSampler().sample(
                    probabilities, rounds, np.random.default_rng(5)
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        chunk = max(1, int(budget_rows)) * row_bytes
        assert peak <= batch.matrix.nbytes + chunk + 16_384


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
