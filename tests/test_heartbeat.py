"""Heartbeat tracking and restart policy, driven by a fake clock."""

from __future__ import annotations

import pytest

from repro.service.heartbeat import HeartbeatTracker, RestartPolicy


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestHeartbeatTracker:
    def test_age_tracks_the_last_beat(self, clock):
        tracker = HeartbeatTracker(clock=clock)
        tracker.beat("shard-0")
        clock.advance(1.5)
        assert tracker.age("shard-0") == pytest.approx(1.5)
        tracker.beat("shard-0")
        assert tracker.age("shard-0") == pytest.approx(0.0)

    def test_unknown_workers_have_no_age_and_are_not_missed(self, clock):
        tracker = HeartbeatTracker(clock=clock)
        assert tracker.age("ghost") is None
        # Never-beat workers are the caller's startup problem, not a
        # missed-heartbeat death.
        assert not tracker.missed("ghost", 0.1, 3)

    def test_missed_after_k_whole_intervals(self, clock):
        tracker = HeartbeatTracker(clock=clock)
        tracker.beat("shard-0")
        clock.advance(0.3 * 3)  # exactly K intervals: not yet missed
        assert not tracker.missed("shard-0", 0.3, 3)
        clock.advance(0.01)
        assert tracker.missed("shard-0", 0.3, 3)

    def test_beat_resets_missed(self, clock):
        tracker = HeartbeatTracker(clock=clock)
        tracker.beat("shard-0")
        clock.advance(10.0)
        assert tracker.missed("shard-0", 0.25, 8)
        tracker.beat("shard-0")
        assert not tracker.missed("shard-0", 0.25, 8)

    def test_snapshot_carries_busy_annotations_and_counts(self, clock):
        tracker = HeartbeatTracker(clock=clock)
        tracker.beat("shard-1", busy=True)
        tracker.beat("shard-0")
        tracker.annotate("shard-1", shard=1, pid=4242, status="alive")
        clock.advance(0.5)
        rows = tracker.snapshot()
        assert [row["name"] for row in rows] == ["shard-0", "shard-1"]
        busy = rows[1]
        assert busy["busy"] is True
        assert busy["beats"] == 1
        assert busy["pid"] == 4242
        assert busy["heartbeat_age_seconds"] == pytest.approx(0.5)

    def test_snapshot_age_counts_from_the_last_beat(self, clock):
        tracker = HeartbeatTracker(clock=clock)
        clock.advance(2.0)
        tracker.beat("shard-0")
        clock.advance(0.5)
        (row,) = tracker.snapshot()
        assert row["heartbeat_age_seconds"] == pytest.approx(0.5)


class TestRestartPolicy:
    def _policy(self, clock, **overrides):
        defaults = dict(
            backoff_seconds=0.25,
            backoff_cap_seconds=5.0,
            quarantine_restarts=3,
            quarantine_window_seconds=30.0,
            clock=clock,
        )
        defaults.update(overrides)
        return RestartPolicy(**defaults)

    def test_backoff_doubles_and_caps(self, clock):
        policy = self._policy(clock, quarantine_restarts=10)
        delays = [policy.record_failure("shard-0") for _ in range(6)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0]

    def test_flapping_worker_is_quarantined(self, clock):
        policy = self._policy(clock)
        for _ in range(3):
            assert policy.record_failure("shard-0") is not None
        assert policy.record_failure("shard-0") is None
        assert policy.is_quarantined("shard-0")
        # Quarantine is sticky: further failures never yield a delay.
        assert policy.record_failure("shard-0") is None

    def test_restart_history_ages_out_of_the_window(self, clock):
        policy = self._policy(clock)
        policy.record_failure("shard-0")
        policy.record_failure("shard-0")
        clock.advance(31.0)  # a full window of stability
        assert policy.restarts("shard-0") == 0
        # The next failure starts the backoff ladder from the bottom.
        assert policy.record_failure("shard-0") == 0.25

    def test_workers_are_tracked_independently(self, clock):
        policy = self._policy(clock)
        policy.record_failure("shard-0")
        assert policy.record_failure("shard-1") == 0.25
        assert policy.restarts("shard-0") == 1
        assert policy.restarts("shard-1") == 1

    def test_total_restarts_survive_the_window(self, clock):
        policy = self._policy(clock)
        policy.record_failure("shard-0")
        clock.advance(100.0)
        policy.record_failure("shard-0")
        assert policy.restarts("shard-0") == 1  # windowed
        assert policy.total_restarts("shard-0") == 2  # lifetime

    def test_a_restart_exactly_one_window_old_still_counts(self, clock):
        policy = self._policy(clock)
        policy.record_failure("shard-0")
        clock.advance(30.0)
        assert policy.restarts("shard-0") == 1
        assert policy.record_failure("shard-0") == 0.5  # the second rung

    def test_lifetime_counts_start_at_zero_and_a_quarantine_counts_once(
        self, clock
    ):
        policy = self._policy(clock)
        assert policy.total_restarts("shard-0") == 0
        assert policy.total_quarantines("shard-0") == 0
        for _ in range(6):  # quarantined at the fourth, sticky after
            policy.record_failure("shard-0")
        assert policy.total_restarts("shard-0") == 6
        assert policy.total_quarantines("shard-0") == 1
