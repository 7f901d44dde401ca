"""Tests for shared utilities (repro.util)."""

import numpy as np
import pytest

from repro.util.errors import AdmissionRejected, OperationCancelled, ReproError
from repro.util.rng import make_rng
from repro.util.timing import Deadline, Stopwatch


class TestRng:
    def test_make_rng_from_int(self):
        a, b = make_rng(5), make_rng(5)
        assert a.random() == b.random()

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng

    def test_make_rng_none(self):
        assert make_rng(None) is not None


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestStopwatch:
    def test_elapsed(self):
        clock = FakeClock()
        watch = Stopwatch(clock)
        clock.now += 2.5
        assert watch.elapsed() == pytest.approx(2.5)


class TestDeadline:
    def test_lifecycle(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock, elapsed_offset=1.5)
        assert deadline.budget_seconds == 10.0
        assert deadline.elapsed() == pytest.approx(1.5)
        clock.now += 5
        assert deadline.elapsed() == pytest.approx(6.5)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(OperationCancelled, ReproError)
        assert issubclass(AdmissionRejected, ReproError)
