"""Estimating software failure probabilities from CVSS-style scores.

The paper notes (§2.1) that software components' failure probabilities are
hard to measure directly, and can instead be estimated from the
publicly-available CVSS scores of their known vulnerabilities, as done in
prior work [38, 58, 81]. This module implements that estimator: each
vulnerability's CVSS base score (0-10) is mapped to an exploitation/failure
likelihood, and the software package fails if any of its vulnerabilities is
triggered (independence across vulnerabilities).

It also ships a small synthetic vulnerability-database generator so the
estimator can be exercised without the (external) National Vulnerability
Database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.util.errors import ConfigurationError

@dataclass(frozen=True, slots=True)
class Vulnerability:
    """One CVSS-scored vulnerability of a software package."""

    identifier: str
    base_score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_score <= 10.0:
            raise ConfigurationError(
                f"CVSS base score must be in [0, 10], got {self.base_score}"
            )


def vulnerability_trigger_probability(
    vulnerability: Vulnerability, scale: float = 0.002
) -> float:
    """Probability that one vulnerability causes a failure in a window.

    Follows the common CVSS-to-likelihood mapping used by attack-graph work
    [38, 58]: likelihood grows super-linearly with the base score,
    ``scale * (score / 10)^2``, so a critical 10.0 contributes ``scale``
    while a low 2.0 contributes only 4 % of it.
    """
    if scale <= 0 or scale >= 1:
        raise ConfigurationError(f"scale must be in (0, 1), got {scale}")
    return scale * (vulnerability.base_score / 10.0) ** 2


def software_failure_probability(
    vulnerabilities: Iterable[Vulnerability], scale: float = 0.002
) -> float:
    """Failure probability of a package from its vulnerability list.

    The package fails if at least one vulnerability triggers; triggers are
    treated as independent, so ``p = 1 - prod(1 - p_i)``.
    """
    survive = 1.0
    for vulnerability in vulnerabilities:
        survive *= 1.0 - vulnerability_trigger_probability(vulnerability, scale)
    return 1.0 - survive


@dataclass(frozen=True)
class SyntheticVulnerabilityDatabase:
    """Generates plausible per-package vulnerability lists.

    Substitutes for the NVD feed: the count of vulnerabilities per package
    is Poisson-distributed and base scores follow a right-skewed Beta
    distribution (most scores medium, few critical), matching the empirical
    shape of published CVSS data.
    """

    mean_vulnerabilities: float = 3.0
    score_alpha: float = 4.0
    score_beta: float = 3.0

    def vulnerabilities_for(
        self, package_name: str, rng: np.random.Generator
    ) -> list[Vulnerability]:
        """Draw a synthetic vulnerability list for ``package_name``."""
        count = int(rng.poisson(self.mean_vulnerabilities))
        scores = rng.beta(self.score_alpha, self.score_beta, size=count) * 10.0
        return [
            Vulnerability(identifier=f"CVE-SYN-{package_name}-{i}", base_score=float(s))
            for i, s in enumerate(np.round(scores, 1))
        ]

    def failure_probability_for(
        self, package_name: str, rng: np.random.Generator, scale: float = 0.002
    ) -> float:
        """Convenience: synthesise vulnerabilities and estimate p."""
        return software_failure_probability(
            self.vulnerabilities_for(package_name, rng), scale
        )
