"""Cooperative cancellation tokens for deadline-bounded work.

An assessment served to a client must be boundable: the client sets a
deadline or cancels, and the work stops *between* natural units (sampling
chunks, dispatched portions, annealing moves) rather than being killed
mid-write or orphaned. A :class:`CancellationToken` is the one object
threaded through those loops; each loop polls ``token.cancelled`` (cheap:
one clock read plus an event check) or calls ``token.check()`` to raise
:class:`~repro.util.errors.OperationCancelled`.

Tokens compose: a child token created with ``token.child()`` fires when
its parent fires (service shutdown cancels every in-flight request) or
when its own deadline passes, whichever comes first. All state is
thread-safe — a shard worker's pipe reader cancels tokens that its
executing thread polls.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.util.errors import OperationCancelled

Clock = Callable[[], float]


class CancellationToken:
    """A thread-safe cancel flag with an optional monotonic deadline.

    ``deadline_seconds`` is relative to construction time; ``None`` means
    "no deadline" (the token only fires on an explicit :meth:`cancel` or
    through its parent). The token is one-shot: once fired it stays
    fired, and the first reason observed wins.
    """

    def __init__(
        self,
        deadline_seconds: float | None = None,
        clock: Clock = time.monotonic,
        parent: "CancellationToken | None" = None,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            # A non-positive deadline means "already expired": fire now so
            # the first poll observes it instead of dividing by zero later.
            deadline_seconds = 0.0
        self._clock = clock
        self._parent = parent
        self._event = threading.Event()
        self._reason: str | None = None
        self._deadline_at: float | None = None
        if deadline_seconds is not None:
            self._deadline_at = clock() + deadline_seconds

    # ------------------------------------------------------------------

    def child(self, deadline_seconds: float | None = None) -> "CancellationToken":
        """A token that fires with this one, or on its own deadline."""
        return CancellationToken(
            deadline_seconds=deadline_seconds, clock=self._clock, parent=self
        )

    # ------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Fire the token explicitly. Idempotent; the first reason wins."""
        if not self._event.is_set():
            self._reason = self._reason or reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether the token has fired (explicitly, by deadline, or parent)."""
        if self._event.is_set():
            return True
        if self._deadline_at is not None and self._clock() >= self._deadline_at:
            self.cancel("deadline exceeded")
            return True
        if self._parent is not None and self._parent.cancelled:
            self.cancel(f"parent cancelled: {self._parent.reason}")
            return True
        return False

    @property
    def reason(self) -> str | None:
        """Why the token fired (``None`` while it has not)."""
        self.cancelled  # fold in deadline/parent state
        return self._reason

    def check(self) -> None:
        """Raise :class:`OperationCancelled` if the token has fired."""
        if self.cancelled:
            raise OperationCancelled(
                f"operation cancelled: {self._reason}", reason=self._reason
            )

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` without one, >= 0 with)."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    def __repr__(self) -> str:
        state = f"fired: {self._reason!r}" if self.cancelled else "live"
        if self._deadline_at is not None:
            state += f", {max(0.0, self._deadline_at - self._clock()):.3f}s left"
        return f"<CancellationToken {state}>"
