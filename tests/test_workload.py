"""Tests for the host workload model (repro.workload.model)."""

import pytest

from repro.util.errors import ConfigurationError
from repro.workload.model import HostWorkloadModel


class TestConstruction:
    def test_paper_default_distribution(self, fattree8):
        model = HostWorkloadModel.paper_default(fattree8, seed=1)
        loads = [model.workload_of(h) for h in fattree8.hosts]
        mean = sum(loads) / len(loads)
        assert 0.17 < mean < 0.23  # N(0.2, 0.05)
        assert all(0.0 <= load <= 1.0 for load in loads)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            HostWorkloadModel({"h": 1.5})

    def test_deterministic_given_seed(self, fattree4):
        a = HostWorkloadModel.paper_default(fattree4, seed=4)
        b = HostWorkloadModel.paper_default(fattree4, seed=4)
        assert [a.workload_of(h) for h in fattree4.hosts] == [
            b.workload_of(h) for h in fattree4.hosts
        ]


class TestQueries:
    def test_average(self):
        model = HostWorkloadModel({"a": 0.2, "b": 0.4})
        assert model.average(["a", "b"]) == pytest.approx(0.3)

    def test_average_empty_rejected(self):
        model = HostWorkloadModel({"a": 0.2})
        with pytest.raises(ConfigurationError):
            model.average([])

    def test_unknown_host_rejected(self):
        model = HostWorkloadModel({"a": 0.2})
        with pytest.raises(ConfigurationError):
            model.workload_of("ghost")

    def test_rank_least_loaded(self):
        model = HostWorkloadModel({"a": 0.5, "b": 0.1, "c": 0.3})
        assert model.rank_least_loaded() == ["b", "c", "a"]

    def test_rank_subset(self):
        model = HostWorkloadModel({"a": 0.5, "b": 0.1, "c": 0.3})
        assert model.rank_least_loaded(["a", "c"]) == ["c", "a"]

    def test_rank_ties_deterministic(self):
        model = HostWorkloadModel({"b": 0.2, "a": 0.2})
        assert model.rank_least_loaded() == ["a", "b"]

    def test_len(self, fattree4):
        model = HostWorkloadModel(dict.fromkeys(fattree4.hosts, 0.0))
        assert len(model) == len(fattree4.hosts)


class TestUpdates:
    def test_drift_stays_in_bounds(self, fattree4):
        model = HostWorkloadModel(dict.fromkeys(fattree4.hosts, 0.02))
        for _ in range(10):
            model.drift(stddev=0.1, seed=1)
        assert all(0.0 <= model.workload_of(h) <= 1.0 for h in fattree4.hosts)

    def test_drift_changes_loads(self, fattree4):
        model = HostWorkloadModel(dict.fromkeys(fattree4.hosts, 0.5))
        model.drift(stddev=0.05, seed=2)
        assert any(model.workload_of(h) != 0.5 for h in fattree4.hosts)
