"""Wall-clock helpers used by the annealing search and the benchmarks.

The search loop needs two things: elapsed time since the search started (to
drive the temperature schedule of Eq. 6 in the paper) and a deadline check
(the developer-specified ``T_max``). Both are provided here, with an
injectable clock so tests can drive time deterministically.
"""

from __future__ import annotations

import math
import time
from typing import Callable

Clock = Callable[[], float]


class Stopwatch:
    """Measures elapsed wall-clock time from construction."""

    def __init__(self, clock: Clock = time.monotonic):
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        """Seconds elapsed since construction."""
        return self._clock() - self._start


class Deadline:
    """A fixed time budget, e.g. the paper's maximum search time ``T_max``.

    ``elapsed_offset`` credits time already spent before this deadline was
    constructed — a resumed search continues its budget where the
    interrupted run left off instead of restarting the clock.
    """

    def __init__(
        self,
        budget_seconds: float,
        clock: Clock = time.monotonic,
        elapsed_offset: float = 0.0,
    ):
        if not (math.isfinite(budget_seconds) and budget_seconds > 0):
            raise ValueError(
                f"budget must be positive and finite, got {budget_seconds}"
            )
        if elapsed_offset < 0:
            raise ValueError(f"elapsed offset must be non-negative, got {elapsed_offset}")
        self.budget_seconds = float(budget_seconds)
        self.elapsed_offset = float(elapsed_offset)
        self._watch = Stopwatch(clock)

    def elapsed(self) -> float:
        """Seconds spent so far (including any credited offset)."""
        return self.elapsed_offset + self._watch.elapsed()
