"""Unit tests for CVSS-based software failure estimation (repro.faults.cvss)."""

import pytest

from repro.faults.cvss import (
    SyntheticVulnerabilityDatabase,
    Vulnerability,
    software_failure_probability,
    vulnerability_trigger_probability,
)
from repro.util.errors import ConfigurationError


class TestVulnerability:
    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ConfigurationError):
            Vulnerability("x", -1.0)
        with pytest.raises(ConfigurationError):
            Vulnerability("x", 10.5)


class TestTriggerProbability:
    def test_grows_with_score(self):
        low = vulnerability_trigger_probability(Vulnerability("a", 2.0))
        high = vulnerability_trigger_probability(Vulnerability("b", 9.0))
        assert high > low

    def test_superlinear(self):
        p5 = vulnerability_trigger_probability(Vulnerability("a", 5.0))
        p10 = vulnerability_trigger_probability(Vulnerability("b", 10.0))
        assert p10 == pytest.approx(4 * p5)

    def test_critical_equals_scale(self):
        assert vulnerability_trigger_probability(
            Vulnerability("a", 10.0), scale=0.01
        ) == pytest.approx(0.01)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            vulnerability_trigger_probability(Vulnerability("a", 5.0), scale=0.0)


class TestSoftwareFailureProbability:
    def test_no_vulnerabilities_never_fails(self):
        assert software_failure_probability([]) == 0.0

    def test_single_vulnerability(self):
        v = Vulnerability("a", 10.0)
        assert software_failure_probability([v], scale=0.01) == pytest.approx(0.01)

    def test_independence_composition(self):
        vulns = [Vulnerability("a", 10.0), Vulnerability("b", 10.0)]
        p = software_failure_probability(vulns, scale=0.1)
        assert p == pytest.approx(1 - 0.9 * 0.9)

    def test_monotone_in_vulnerability_count(self):
        vulns = [Vulnerability(f"v{i}", 7.0) for i in range(5)]
        probs = [software_failure_probability(vulns[:n]) for n in range(6)]
        assert probs == sorted(probs)


class TestSyntheticDatabase:
    def test_deterministic_given_seed(self, rng):
        import numpy as np

        db = SyntheticVulnerabilityDatabase()
        a = db.vulnerabilities_for("pkg", np.random.default_rng(1))
        b = db.vulnerabilities_for("pkg", np.random.default_rng(1))
        assert [(v.identifier, v.base_score) for v in a] == [
            (v.identifier, v.base_score) for v in b
        ]

    def test_scores_in_range(self, rng):
        db = SyntheticVulnerabilityDatabase(mean_vulnerabilities=10)
        for v in db.vulnerabilities_for("pkg", rng):
            assert 0.0 <= v.base_score <= 10.0

    def test_failure_probability_in_range(self, rng):
        db = SyntheticVulnerabilityDatabase()
        for i in range(20):
            p = db.failure_probability_for(f"pkg{i}", rng)
            assert 0.0 <= p < 1.0
