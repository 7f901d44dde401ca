"""Failure-probability models and assignment policies.

The paper measures each component's failure probability as
``p = downtime / window_length`` (§2.1) and, in the evaluation (§4.1), draws
switch probabilities from N(0.008, 0.001) and every other component's from
N(0.01, 0.001), rounded to 4 decimal places. This module implements that
setting, the bathtub-curve lifetime adjustment (§3.2.2), and the
limited-information policies of §3.4 (default value, or weights from an
analytic hierarchy process).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.faults.component import ComponentType
from repro.util.errors import ConfigurationError

#: Decimal places the paper rounds failure probabilities to (§4.1).
PROBABILITY_DECIMALS = 4

#: Hours in a (non-leap) year; used to convert reliability to annual downtime.
HOURS_PER_YEAR = 365 * 24


def annual_downtime_hours(reliability: float) -> float:
    """Translate a reliability score into annual downtime hours.

    The paper reports, e.g., 99.62 % reliability as 33.3 hours of downtime
    per year and 99.97 % as 2.6 hours (§4.2.2).
    """
    if not 0.0 <= reliability <= 1.0:
        raise ConfigurationError(f"reliability must be in [0, 1], got {reliability}")
    return (1.0 - reliability) * HOURS_PER_YEAR


@dataclass(frozen=True, slots=True)
class NormalProbabilityModel:
    """Per-type normal distributions for failure probabilities (§4.1).

    Draws are clipped into ``(minimum, maximum)`` and rounded to
    ``PROBABILITY_DECIMALS`` places, exactly as the paper describes. The
    clip floor is strictly positive so dagger cycle lengths stay finite.
    """

    mean: float
    stddev: float
    minimum: float = 1e-4
    maximum: float = 0.5

    def __post_init__(self) -> None:
        if self.stddev < 0:
            raise ConfigurationError(f"stddev must be >= 0, got {self.stddev}")
        if not 0 < self.minimum <= self.maximum < 1:
            raise ConfigurationError(
                f"need 0 < minimum <= maximum < 1, got [{self.minimum}, {self.maximum}]"
            )

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw one probability (or ``size`` of them) from the model."""
        draws = _clip_and_round(
            rng.normal(self.mean, self.stddev, size=size), self.minimum, self.maximum
        )
        if size is None:
            return float(draws)
        return draws


def _clip_and_round(draws, minimum, maximum):
    draws = np.round(np.clip(draws, minimum, maximum), PROBABILITY_DECIMALS)
    # Rounding can push a draw below the positive floor; re-clip.
    return np.maximum(draws, 10.0**-PROBABILITY_DECIMALS)


def sample_each(
    models: Sequence[NormalProbabilityModel], rng: np.random.Generator
) -> np.ndarray:
    """One draw from each of ``models``, in order, in one ``rng.normal``
    call: bit for bit ``[model.sample(rng) for model in models]``, and it
    leaves ``rng`` in the same state."""
    mean, stddev, minimum, maximum = np.array(
        [(m.mean, m.stddev, m.minimum, m.maximum) for m in models], dtype=float
    ).reshape(-1, 4).T
    return _clip_and_round(rng.normal(mean, stddev), minimum, maximum)


#: The evaluation setting of §4.1: switches ~ N(0.008, 0.001), all other
#: components ~ N(0.01, 0.001).
PAPER_SWITCH_MODEL = NormalProbabilityModel(mean=0.008, stddev=0.001)
PAPER_DEFAULT_MODEL = NormalProbabilityModel(mean=0.01, stddev=0.001)


class ProbabilityPolicy:
    """Assigns failure probabilities to the components a topology builds.

    Policies let the same topology builder produce the paper's evaluation
    setting, a no-information default setting (§3.4), or anything custom.
    """

    def probabilities(
        self, types: Sequence[ComponentType], rng: np.random.Generator
    ) -> np.ndarray:
        """One failure probability per entry of ``types`` (the components
        being built, in insertion order); any draws are taken in that
        order."""
        raise NotImplementedError


@dataclass(frozen=True)
class PaperProbabilityPolicy(ProbabilityPolicy):
    """The §4.1 evaluation setting, optionally overridden per type."""

    switch_model: NormalProbabilityModel = PAPER_SWITCH_MODEL
    default_model: NormalProbabilityModel = PAPER_DEFAULT_MODEL
    link_probability: float = 0.0

    def probabilities(
        self, types: Sequence[ComponentType], rng: np.random.Generator
    ) -> np.ndarray:
        drawn = [i for i, ctype in enumerate(types) if ctype is not ComponentType.LINK]
        models = [
            self.switch_model if types[i].is_switch else self.default_model
            for i in drawn
        ]
        result = np.full(len(types), float(self.link_probability))
        result[drawn] = sample_each(models, rng)
        return result


@dataclass(frozen=True)
class DefaultProbabilityPolicy(ProbabilityPolicy):
    """Limited-information mode: one default probability for everything.

    §3.4: with no measured failure probabilities, reCloud assigns each
    component a default value and still avoids shared dependencies, though
    the resulting score is no longer a quantitative reliability estimate.
    """

    default_probability: float = 0.01
    link_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.default_probability < 1:
            raise ConfigurationError(
                f"default probability must be in (0, 1), got {self.default_probability}"
            )

    def probabilities(
        self, types: Sequence[ComponentType], rng: np.random.Generator
    ) -> np.ndarray:
        links = np.array([ctype is ComponentType.LINK for ctype in types], dtype=bool)
        return np.where(links, self.link_probability, self.default_probability)


@dataclass(frozen=True)
class AhpProbabilityPolicy(ProbabilityPolicy):
    """Limited-information mode using analytic-hierarchy-process weights.

    §3.4 suggests deciding relative failure likelihoods with an AHP [65]:
    the operator supplies a pairwise-comparison judgement of how
    failure-prone each component type is relative to the others; the
    principal eigenvector of that matrix yields per-type weights, which are
    scaled so their mean matches ``base_probability``.
    """

    type_weights: Mapping[ComponentType, float]
    base_probability: float = 0.01
    link_probability: float = 0.0

    def __post_init__(self) -> None:
        if not self.type_weights:
            raise ConfigurationError("type_weights must not be empty")
        for ctype, weight in self.type_weights.items():
            if weight <= 0:
                raise ConfigurationError(f"weight for {ctype} must be positive")
        if not 0 < self.base_probability < 1:
            raise ConfigurationError(
                f"base probability must be in (0, 1), got {self.base_probability}"
            )

    @classmethod
    def from_pairwise_matrix(
        cls,
        types: list[ComponentType],
        matrix,
        base_probability: float = 0.01,
        link_probability: float = 0.0,
    ) -> "AhpProbabilityPolicy":
        """Build the policy from an AHP pairwise-comparison matrix.

        ``matrix[i][j]`` expresses how much more failure-prone ``types[i]``
        is than ``types[j]`` (Saaty's 1-9 scale). The weight vector is the
        principal right eigenvector, normalised to sum to 1.
        """
        m = np.asarray(matrix, dtype=float)
        if m.shape != (len(types), len(types)):
            raise ConfigurationError(
                f"matrix shape {m.shape} does not match {len(types)} types"
            )
        if np.any(m <= 0):
            raise ConfigurationError("pairwise comparisons must be positive")
        eigenvalues, eigenvectors = np.linalg.eig(m)
        principal = np.argmax(eigenvalues.real)
        weights = np.abs(eigenvectors[:, principal].real)
        weights = weights / weights.sum()
        return cls(
            type_weights=dict(zip(types, (float(w) for w in weights))),
            base_probability=base_probability,
            link_probability=link_probability,
        )

    def probabilities(
        self, types: Sequence[ComponentType], rng: np.random.Generator
    ) -> np.ndarray:
        weights = self.type_weights
        mean_weight = sum(weights.values()) / len(weights)
        by_type = {
            ctype: min(self.base_probability * weight / mean_weight, 0.99)
            for ctype, weight in weights.items()
        }
        by_type[ComponentType.LINK] = self.link_probability
        return np.array(
            [by_type.get(ctype, self.base_probability) for ctype in types], dtype=float
        )


@dataclass(frozen=True, slots=True)
class BathtubCurve:
    """Lifetime-dependent failure probability (§3.2.2, [66, 79]).

    Components follow a "bathtub" shape: elevated infant-mortality failures
    early in life, a flat useful-life plateau, and rising wear-out failures
    near end of life. Modelled as the sum of a decaying exponential, a
    constant, and a growing exponential, expressed as a multiplier on the
    plateau probability.

    ``multiplier(0) == 1 + infant_factor`` and the curve approaches
    ``1 + wearout_factor`` at ``lifetime``.
    """

    plateau_probability: float
    lifetime: float = 1.0
    infant_factor: float = 2.0
    wearout_factor: float = 3.0
    infant_decay: float = 10.0
    wearout_growth: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.plateau_probability < 1:
            raise ConfigurationError(
                f"plateau probability must be in (0, 1), got {self.plateau_probability}"
            )
        if self.lifetime <= 0:
            raise ConfigurationError(f"lifetime must be positive, got {self.lifetime}")

    def probability_at(self, age: float) -> float:
        """Failure probability at ``age`` (clamped into the lifetime)."""
        x = min(max(age, 0.0), self.lifetime) / self.lifetime
        infant = self.infant_factor * math.exp(-self.infant_decay * x)
        wearout = self.wearout_factor * math.exp(-self.wearout_growth * (1.0 - x))
        p = self.plateau_probability * (1.0 + infant + wearout)
        return min(p, 0.999999)
