"""Reliability-score statistics: Eqs. 1-3 of the paper (§3.2.2).

An assessment over ``n`` rounds yields a result list ``L = {d_1..d_n}``
with ``d_i = 1`` when the deployment was reliable in round ``i``. The
reliability score is the mean of ``L`` (Eq. 1); its variance is
conservatively estimated as ``Var[L] / n`` (Eq. 2, valid for dagger
sampling thanks to its variance-reduction effect); and by the central limit
theorem the 95 % confidence interval width is ``4 * sqrt(V)`` (Eq. 3 —
two standard errors on each side, the 68-95-99.7 rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.util.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class ReliabilityEstimate:
    """A reliability score with its rigorous error bound.

    Attributes:
        score: Estimated reliability R (Eq. 1).
        variance: Conservative variance V of the estimate (Eq. 2).
        confidence_interval_width: 95 % CI width (Eq. 3); the ground-truth
            reliability lies within ``score +/- width / 2`` with ~95 %
            probability.
        rounds: Number of sampling rounds n behind the estimate.
        reliable_rounds: Number of rounds in which the plan was reliable.
        exact: True for analytically computed scores
            (:mod:`repro.kernel.exact`): the score is the ground-truth
            probability, the CI has zero width, and no sampling rounds
            back the estimate (``rounds == reliable_rounds == 0``).
    """

    score: float
    variance: float
    confidence_interval_width: float
    rounds: int
    reliable_rounds: int
    exact: bool = False

    @property
    def ci_lower(self) -> float:
        """Lower end of the 95 % confidence interval, clamped to [0, 1]."""
        return max(0.0, self.score - self.confidence_interval_width / 2.0)

    @property
    def ci_upper(self) -> float:
        """Upper end of the 95 % confidence interval, clamped to [0, 1]."""
        return min(1.0, self.score + self.confidence_interval_width / 2.0)

    def __str__(self) -> str:
        if self.exact:
            return f"R={self.score:.6f} (exact, zero-width CI)"
        return (
            f"R={self.score:.6f} (95% CI width {self.confidence_interval_width:.2e}, "
            f"{self.reliable_rounds}/{self.rounds} rounds reliable)"
        )


def estimate_from_results(result_list: np.ndarray) -> ReliabilityEstimate:
    """Build a :class:`ReliabilityEstimate` from a per-round result list.

    ``result_list`` is the paper's ``L``: one entry per round, truthy when
    the deployment plan was reliable in that round (any nonzero entry is
    one reliable round). ``k`` of ``n`` give the score ``k / n``; ``Var[L]``
    sums ``(1 - k/n)**2`` and ``(k/n)**2`` in round order, as ``np.var``
    does, so the bits are ``np.var``'s without a float copy of ``L``.
    """
    results = np.asarray(result_list)
    if results.ndim != 1 or results.size == 0:
        raise ConfigurationError("result list must be a non-empty 1-D sequence")
    n = results.size
    reliable_rounds = int(np.count_nonzero(results))
    score = reliable_rounds / n
    miss = 1.0 - score
    squares = np.where(results, miss * miss, score * score)
    variance = float(np.add.reduce(squares)) / n / n  # Eq. 2: V = Var[L] / n
    ci_width = 4.0 * math.sqrt(variance)  # Eq. 3
    return ReliabilityEstimate(
        score=score,
        variance=variance,
        confidence_interval_width=ci_width,
        rounds=n,
        reliable_rounds=reliable_rounds,
    )


def estimate_from_pieces(
    pieces: Sequence[np.ndarray], requested_rounds: int | None = None
) -> tuple[np.ndarray, ReliabilityEstimate, int]:
    """Reduce the completed pieces of one assessment.

    Independent sampling rounds concatenate freely, so an assessment run
    in pieces (anytime chunks, worker portions, CI-driven extensions)
    reduces to ``(per_round, estimate, dropped_rounds)`` over the pieces
    that finished, in the order given. When fewer than
    ``requested_rounds`` rounds completed, the dropped rounds are missing
    data, not sampled data: the statistical CI already reflects the
    smaller sample, and the variance is additionally inflated by the
    coverage ratio ``requested / completed`` (the CI width by its square
    root) so the reported interval cannot understate uncertainty.
    """
    if not pieces:
        raise ConfigurationError("cannot estimate from zero completed pieces")
    per_round = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    estimate = estimate_from_results(per_round)
    dropped_rounds = (
        0 if requested_rounds is None else requested_rounds - per_round.size
    )
    if dropped_rounds > 0:
        coverage = requested_rounds / per_round.size
        estimate = replace(
            estimate,
            variance=estimate.variance * coverage,
            confidence_interval_width=(
                estimate.confidence_interval_width * math.sqrt(coverage)
            ),
        )
    return per_round, estimate, dropped_rounds


def exact_estimate(score: float) -> ReliabilityEstimate:
    """An analytically computed estimate: zero variance, zero-width CI.

    Built by the analytic assessor (:mod:`repro.core.analytic`) when the
    exact evaluator succeeds; ``rounds == 0`` records that no sampling
    backs the number (it needs none).
    """
    if not 0.0 <= score <= 1.0:
        raise ConfigurationError(f"exact score must be in [0, 1], got {score}")
    return ReliabilityEstimate(
        score=float(score),
        variance=0.0,
        confidence_interval_width=0.0,
        rounds=0,
        reliable_rounds=0,
        exact=True,
    )


def rounds_for_target_ci(
    target_ci_width: float, pilot_variance_per_round: float
) -> int:
    """Rounds needed so the 95 % CI width reaches ``target_ci_width``.

    ``pilot_variance_per_round`` is ``Var[L]`` from a pilot run. Inverting
    Eq. 3: ``n = 16 * Var[L] / width^2``.
    """
    if target_ci_width <= 0:
        raise ConfigurationError(f"target width must be positive, got {target_ci_width}")
    if pilot_variance_per_round < 0:
        raise ConfigurationError("variance must be non-negative")
    return max(1, math.ceil(16.0 * pilot_variance_per_round / target_ci_width**2))
