"""Sampler interface and the failure-state batch representation.

A sampler turns per-component failure probabilities into failure states
across many rounds — the table of §3.2.1 (Table 1 in the paper), with one
row per component and one column per round. Because components are highly
reliable, that table is extremely sparse, so batches store, per component,
the *sorted indices of failed rounds* rather than a dense boolean matrix.
Dense views are materialised on demand for the (small) closure of
components a particular route-and-check actually reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.util.cancel import CancellationToken

#: dtype used for failed-round indices.
ROUND_DTYPE = np.int64

#: The failed rounds of a component that never fails: one shared array,
#: read-only because every such component is handed the same object.
EMPTY_ROUNDS = np.empty(0, dtype=ROUND_DTYPE)
EMPTY_ROUNDS.flags.writeable = False


@dataclass
class SampleBatch:
    """Failure states of a component set across ``rounds`` sampling rounds.

    ``failed_rounds`` maps each component id to a sorted array of the round
    indices in which that component is failed. Components absent from the
    mapping never failed (equivalently: an empty array).
    """

    rounds: int
    failed_rounds: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {self.rounds}")

    def rounds_failed(self, component_id: str) -> np.ndarray:
        """Sorted failed-round indices for one component (possibly empty)."""
        return self.failed_rounds.get(component_id, EMPTY_ROUNDS)

    def dense(self, component_id: str) -> np.ndarray:
        """Boolean per-round failure vector for one component."""
        states = np.zeros(self.rounds, dtype=bool)
        failed = self.rounds_failed(component_id)
        if failed.size:
            states[failed] = True
        return states

    def failure_fraction(self, component_id: str) -> float:
        """Empirical fraction of rounds in which the component failed."""
        return self.rounds_failed(component_id).size / self.rounds

    def failed_components_in_round(self, round_index: int) -> frozenset[str]:
        """All components failed in one round (scalar/debug path)."""
        if not 0 <= round_index < self.rounds:
            raise ConfigurationError(
                f"round {round_index} out of range [0, {self.rounds})"
            )
        return frozenset(
            cid
            for cid, failed in self.failed_rounds.items()
            if failed.size and np.searchsorted(failed, round_index) < failed.size
            and failed[np.searchsorted(failed, round_index)] == round_index
        )

    def total_failure_events(self) -> int:
        """Total number of (component, round) failure events in the batch."""
        return int(sum(failed.size for failed in self.failed_rounds.values()))


class Sampler:
    """Generates failure states for components across sampling rounds."""

    #: Human-readable name used in benchmark output.
    name = "abstract"

    def sample(
        self,
        probabilities: Mapping[str, float],
        rounds: int,
        rng: np.random.Generator,
        cancel: "CancellationToken | None" = None,
    ) -> SampleBatch:
        """Produce a :class:`SampleBatch` for the given components.

        Args:
            probabilities: Failure probability per component id. Components
                with probability 0 are perfectly reliable and never appear
                in the result.
            rounds: Number of sampling rounds (columns of Table 1).
            rng: Source of randomness.
            cancel: Optional cooperative-cancellation token. Samplers poll
                it between vectorised chunks and raise
                :class:`~repro.util.errors.OperationCancelled` when it
                fires, so a deadline stops sampling within one chunk
                rather than after the full batch.
        """
        raise NotImplementedError


#: Test-only instrumentation: called (with no arguments) at the top of
#: every sampler entry. Forked worker processes inherit the hook set in
#: the parent before the pool was created, which lets tests gate
#: *deterministically* on "a worker is now inside a sampling pass" instead
#: of sleeping or inflating round counts. Never set in production code.
_sampling_started_hook = None


def set_sampling_started_hook(hook) -> None:
    """Install (or with ``None`` clear) the sampling-started test hook."""
    global _sampling_started_hook
    _sampling_started_hook = hook


def sampling_started() -> None:
    """The seam itself: every sampler entry calls this exactly once."""
    if _sampling_started_hook is not None:
        _sampling_started_hook()


def validate_probabilities(probabilities: Mapping[str, float]) -> np.ndarray:
    """Reject probabilities outside [0, 1); returns them in mapping order."""
    values = np.fromiter(
        probabilities.values(), dtype=np.float64, count=len(probabilities)
    )
    if not ((values >= 0.0) & (values < 1.0)).all():
        for cid, p in probabilities.items():
            if not 0.0 <= p < 1.0:
                raise ConfigurationError(
                    f"failure probability of {cid!r} must be in [0, 1), got {p}"
                )
    return values
