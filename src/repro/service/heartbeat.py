"""Heartbeat failure detection and restart policy for the worker fleet.

Two small, independently testable state machines:

:class:`HeartbeatTracker` answers "when did worker X last prove it was
alive, and has it missed enough beats to be declared dead?". It never
declares anything by itself — the lifecycle core's ``tick`` asks it; a
worker that *exited* is reported at once by the fleet's event loop,
while one that is merely silent must miss ``misses`` consecutive
intervals first (a long GC pause or a busy CPU is not a crash).

:class:`RestartPolicy` answers "when may a dead worker be respawned, and
should we keep trying?". Respawns back off exponentially (base doubling
per consecutive restart, capped), and a worker that flaps — more than
``quarantine_restarts`` restarts within ``quarantine_window_seconds`` —
is quarantined: no further respawns, its shard's key range is served by
the survivors, and the operator sees it loudly in ``/healthz``. The
restart count resets once a worker stays alive for a full quarantine
window, so one bad afternoon does not poison the policy forever.

Both take an injectable clock so tests drive time instead of sleeping,
and neither takes a lock: one thread, the lifecycle core's, calls them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class _Beat:
    last: float
    busy: bool = False
    beats: int = 0


class HeartbeatTracker:
    """Last-heartbeat bookkeeping for a set of named workers."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._beats: dict[str, _Beat] = {}
        self._meta: dict[str, dict] = {}

    def beat(self, name: str, busy: bool | None = None) -> None:
        """Record a proof of life; ``busy`` optionally updates state."""
        now = self._clock()
        entry = self._beats.get(name)
        if entry is None:
            entry = self._beats[name] = _Beat(last=now)
        entry.last = now
        entry.beats += 1
        if busy is not None:
            entry.busy = busy

    def annotate(self, name: str, **meta) -> None:
        """Attach operator-facing metadata (shard, pid, ...) to a worker."""
        self._meta.setdefault(name, {}).update(meta)

    def age(self, name: str) -> float | None:
        """Seconds since the last beat; ``None`` for unknown workers."""
        entry = self._beats.get(name)
        return None if entry is None else max(0.0, self._clock() - entry.last)

    def missed(self, name: str, interval_seconds: float, misses: int) -> bool:
        """Has ``name`` been silent for ``misses`` whole intervals?

        A worker that never beat at all is *not* missed — the caller
        decides how long startup may take; this only judges workers that
        were alive once.
        """
        age = self.age(name)
        return age is not None and age > interval_seconds * misses

    def snapshot(self) -> list[dict]:
        """JSON-ready per-worker view, sorted by name."""
        now = self._clock()
        rows = []
        for name in sorted(self._beats):
            entry = self._beats[name]
            row = {
                "name": name,
                "heartbeat_age_seconds": max(0.0, now - entry.last),
                "busy": entry.busy,
                "beats": entry.beats,
            }
            row.update(self._meta.get(name, {}))
            rows.append(row)
        return rows


@dataclass
class RestartPolicy:
    """Exponential-backoff respawn with flap quarantine, per worker.

    Attributes:
        backoff_seconds: Delay before the first respawn; doubles per
            consecutive restart.
        backoff_cap_seconds: Upper bound on the delay.
        quarantine_restarts: Restarts within the window beyond which the
            worker is quarantined instead of respawned.
        quarantine_window_seconds: Sliding window for flap counting; a
            worker alive longer than this resets its restart history.
    """

    backoff_seconds: float = 0.25
    backoff_cap_seconds: float = 5.0
    quarantine_restarts: int = 5
    quarantine_window_seconds: float = 30.0
    clock: object = time.monotonic
    _restarts: dict[str, list[float]] = field(default_factory=dict)
    _lifetime: dict[str, int] = field(default_factory=dict)
    _quarantines: dict[str, int] = field(default_factory=dict)

    def record_failure(self, name: str) -> float | None:
        """Note a death; return the respawn delay, or ``None`` = quarantine.

        The delay grows ``backoff * 2**(recent_restarts - 1)`` capped at
        ``backoff_cap_seconds``; crossing ``quarantine_restarts`` recent
        restarts quarantines the worker instead.
        """
        now = self.clock()
        self._lifetime[name] = self._lifetime.get(name, 0) + 1
        if name in self._quarantines:
            return None
        history = self._restarts.setdefault(name, [])
        cutoff = now - self.quarantine_window_seconds
        history[:] = [t for t in history if t >= cutoff]
        history.append(now)
        if len(history) > self.quarantine_restarts:
            self._quarantines[name] = 1
            return None
        return min(
            self.backoff_cap_seconds,
            self.backoff_seconds * (2 ** (len(history) - 1)),
        )

    def is_quarantined(self, name: str) -> bool:
        return name in self._quarantines

    def restarts(self, name: str) -> int:
        """Restarts within the current flap window."""
        cutoff = self.clock() - self.quarantine_window_seconds
        return sum(1 for t in self._restarts.get(name, []) if t >= cutoff)

    def total_restarts(self, name: str) -> int:
        """Lifetime failures recorded for ``name`` (never pruned)."""
        return self._lifetime.get(name, 0)

    def total_quarantines(self, name: str) -> int:
        """Lifetime quarantine *events* for ``name``: how many times it
        crossed the flap threshold."""
        return self._quarantines.get(name, 0)
