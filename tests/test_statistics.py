"""Unit + property tests for reliability statistics (Eqs. 1-3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.statistics import (
    ReliabilityEstimate,
    estimate_from_pieces,
    estimate_from_results,
    exact_estimate,
    rounds_for_target_ci,
)
from repro.util.errors import ConfigurationError
from tests.percall_oracle import float_estimate


class TestEstimateFromResults:
    def test_score_is_mean(self):
        estimate = estimate_from_results([1, 1, 0, 1])
        assert estimate.score == pytest.approx(0.75)
        assert estimate.reliable_rounds == 3
        assert estimate.rounds == 4

    def test_all_reliable(self):
        estimate = estimate_from_results(np.ones(100))
        assert estimate.score == 1.0
        assert estimate.variance == 0.0
        assert estimate.confidence_interval_width == 0.0

    def test_all_unreliable(self):
        estimate = estimate_from_results(np.zeros(100))
        assert estimate.score == 0.0

    def test_eq2_variance(self):
        results = np.array([1, 0, 1, 1, 0, 1, 1, 1], dtype=float)
        estimate = estimate_from_results(results)
        assert estimate.variance == pytest.approx(results.var() / len(results))

    def test_eq3_ci_width(self):
        results = np.array([1, 0] * 50, dtype=float)
        estimate = estimate_from_results(results)
        assert estimate.confidence_interval_width == pytest.approx(
            4 * math.sqrt(estimate.variance)
        )

    def test_ci_bounds_clamped(self):
        estimate = estimate_from_results([1] * 9 + [0])
        assert 0.0 <= estimate.ci_lower <= estimate.ci_upper <= 1.0

    def test_ci_endpoints_are_two_standard_errors(self):
        """Eq. 3 by hand: R = 0.9 over 900 rounds has V = 0.09 / 900 =
        1e-4, so the interval is 0.9 -+ 2 * sqrt(1e-4) = [0.88, 0.92]."""
        estimate = estimate_from_results([1] * 810 + [0] * 90)
        assert estimate.score == pytest.approx(0.9, abs=1e-15)
        assert estimate.variance == pytest.approx(1e-4, rel=1e-12)
        assert estimate.ci_lower == pytest.approx(0.88, abs=1e-12)
        assert estimate.ci_upper == pytest.approx(0.92, abs=1e-12)

    def test_ci_endpoints_clamp_to_the_unit_interval(self):
        def interval(score):
            estimate = ReliabilityEstimate(
                score=score,
                variance=0.0025,
                confidence_interval_width=0.2,
                rounds=100,
                reliable_rounds=round(100 * score),
            )
            return estimate.ci_lower, estimate.ci_upper

        assert interval(0.95) == (pytest.approx(0.85), 1.0)
        assert interval(0.05) == (0.0, pytest.approx(0.15))
        assert interval(0.5) == (pytest.approx(0.4), pytest.approx(0.6))

    def test_contains(self):
        estimate = estimate_from_results([1, 0] * 500)
        assert estimate.ci_lower <= 0.5 <= estimate.ci_upper
        assert not estimate.ci_lower <= 0.9 <= estimate.ci_upper

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            estimate_from_results([])

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            estimate_from_results(np.ones((3, 3)))

    def test_boolean_input_accepted(self):
        estimate = estimate_from_results(np.array([True, False, True]))
        assert estimate.score == pytest.approx(2 / 3)

    def test_str_is_informative(self):
        text = str(estimate_from_results([1, 1, 0, 1]))
        assert "R=0.75" in text
        assert "3/4" in text

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_property_score_bounds_and_eq_consistency(self, results):
        estimate = estimate_from_results(results)
        assert 0.0 <= estimate.score <= 1.0
        assert estimate.reliable_rounds == sum(results)
        # Eq. 2/3 consistency.
        assert estimate.confidence_interval_width == pytest.approx(
            4 * math.sqrt(estimate.variance)
        )
        # Variance shrinks as 1/n for fixed composition.
        doubled = estimate_from_results(list(results) * 2)
        assert doubled.variance == pytest.approx(estimate.variance / 2)


class TestOnePassEstimate:
    """``k / n`` and one pass of ``np.var``'s squares: bit for bit the
    float mean, var and sum they replaced (``tests/percall_oracle.py``)."""

    @given(
        results=st.one_of(
            st.lists(st.booleans(), min_size=1, max_size=3_000),
            st.integers(1, 3_000).map(lambda n: [True] * n),
            st.integers(1, 3_000).map(lambda n: [False] * n),
        ),
        form=st.sampled_from(["bool", "int", "list"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_float_estimate(self, results, form):
        if form == "bool":
            results = np.array(results, dtype=bool)
        elif form == "int":
            results = np.array(results, dtype=np.int64)
        else:
            results = [int(r) for r in results]
        got, want = estimate_from_results(results), float_estimate(results)
        assert got == want
        assert type(got.score) is type(got.variance) is float
        assert type(got.reliable_rounds) is int

    @pytest.mark.parametrize("single", [True, False])
    def test_one_round(self, single):
        assert estimate_from_results([single]) == float_estimate([single])
        assert estimate_from_results([single]).variance == 0.0

    def test_a_nonzero_entry_is_one_reliable_round(self):
        """Only 0/1 entries are the paper's ``L``; any other nonzero entry
        counts as one reliable round (the float mean read it as its
        value: 2 of 4 here)."""
        estimate = estimate_from_results(np.array([2, 0, 0, 0]))
        assert (estimate.reliable_rounds, estimate.score) == (1, 0.25)
        assert estimate == estimate_from_results([True, False, False, False])


class TestCoverage:
    def test_ci_covers_truth_approximately_95_percent(self):
        """Empirical check of Eq. 3 on Bernoulli data."""
        truth = 0.97
        covered = 0
        trials = 400
        rng = np.random.default_rng(31)
        for _ in range(trials):
            results = rng.random(2_000) < truth
            estimate = estimate_from_results(results)
            if estimate.ci_lower <= truth <= estimate.ci_upper:
                covered += 1
        # Binomial(400, 0.95) -> stddev ~ 4.3; accept a generous band.
        assert covered / trials > 0.88


class TestEstimateFromPieces:
    """The one reduction every piecewise assessment ends in."""

    SIZES = (700, 300, 512, 1)

    def _pieces(self):
        rng = np.random.default_rng(11)
        return [rng.random(size) < 0.9 for size in self.SIZES]

    def test_every_subset_widens_by_the_missing_coverage(self):
        pieces = self._pieces()
        requested = sum(self.SIZES)
        for mask in range(1, 2 ** len(pieces) - 1):  # non-empty, incomplete
            done = [p for i, p in enumerate(pieces) if mask >> i & 1]
            per_round, estimate, dropped = estimate_from_pieces(done, requested)
            assert np.array_equal(per_round, np.concatenate(done))
            plain = estimate_from_results(per_round)
            coverage = requested / per_round.size
            assert dropped == requested - per_round.size > 0
            assert estimate.score == plain.score
            assert estimate.rounds == per_round.size
            assert estimate.variance == plain.variance * coverage
            assert estimate.confidence_interval_width == (
                plain.confidence_interval_width * math.sqrt(coverage)
            )

    @pytest.mark.parametrize("requested", [sum(SIZES), None])
    def test_nothing_widened_when_everything_completed(self, requested):
        pieces = self._pieces()
        per_round, estimate, dropped = estimate_from_pieces(pieces, requested)
        assert dropped == 0
        assert estimate == estimate_from_results(np.concatenate(pieces))
        assert per_round.size == sum(self.SIZES)

    def test_single_piece_is_not_copied(self):
        piece = self._pieces()[0]
        per_round, _, _ = estimate_from_pieces([piece], piece.size)
        assert per_round is piece

    def test_zero_pieces_raises(self):
        with pytest.raises(ConfigurationError):
            estimate_from_pieces([], 100)


class TestRoundsForTargetCi:
    def test_inverts_eq3(self):
        variance_per_round = 0.25  # worst case Bernoulli
        n = rounds_for_target_ci(0.01, variance_per_round)
        # CI width at n rounds should be at most the target.
        assert 4 * math.sqrt(variance_per_round / n) <= 0.01 + 1e-12

    def test_tighter_target_needs_more_rounds(self):
        assert rounds_for_target_ci(0.001, 0.1) > rounds_for_target_ci(0.01, 0.1)

    def test_zero_variance(self):
        assert rounds_for_target_ci(0.01, 0.0) == 1

    def test_pinned_round_counts(self):
        """n = 16 * Var[L] / width^2, exactly, for the worst-case
        Bernoulli variance; at least one round even when the quotient
        underflows to zero."""
        assert rounds_for_target_ci(0.01, 0.25) == 40_000
        assert rounds_for_target_ci(0.02, 0.25) == 10_000
        assert rounds_for_target_ci(0.5, 0.25) == 16
        assert rounds_for_target_ci(1e10, 5e-324) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            rounds_for_target_ci(0.0, 0.1)
        with pytest.raises(ConfigurationError):
            rounds_for_target_ci(0.01, -1.0)


class TestExactEstimate:
    def test_accepts_the_closed_unit_interval(self):
        for score in (0.0, 0.25, 1.0):
            estimate = exact_estimate(score)
            assert estimate.score == score and estimate.exact
            assert estimate.ci_lower == estimate.ci_upper == score
            # No sampling backs it.
            assert estimate.rounds == estimate.reliable_rounds == 0

    def test_rejects_scores_just_outside(self):
        for score in (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)):
            with pytest.raises(ConfigurationError):
                exact_estimate(score)
