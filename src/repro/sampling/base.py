"""Sampler interface.

A sampler turns per-component failure probabilities into failure states
across many rounds — the table of §3.2.1 (Table 1 in the paper), with one
row per component and one column per round. Every sampler draws that table
once, straight into bit-packed rows
(:class:`~repro.kernel.packed.PackedBatch`, 8 rounds a byte): the form
fault-tree reasoning and route-and-check read. Every sampler entry passes
the ``sampling.start`` seam of :mod:`repro.util.faultpoints` once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.packed import PackedBatch
    from repro.util.cancel import CancellationToken


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
    ) -> "PackedBatch":
        """Produce a :class:`~repro.kernel.packed.PackedBatch` for the
        given components.

        Args:
            probabilities: Failure probability per component id. Components
                with probability 0 are perfectly reliable: they take no
                draw and get no row.
            rounds: Number of sampling rounds (columns of Table 1).
            rng: Source of randomness.
            cancel: Optional cooperative-cancellation token. Samplers poll
                it between vectorised chunks and raise
                :class:`~repro.util.errors.OperationCancelled` when it
                fires, so a deadline stops sampling within one chunk
                rather than after the full batch.
        """
        raise NotImplementedError


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
