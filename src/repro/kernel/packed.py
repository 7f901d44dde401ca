"""Bit-packed failure-state representation (8 rounds per byte).

The sampled failure table of §3.2.1 is boolean, so the kernel stores it
as ``np.packbits`` rows: one ``uint8`` vector of ``ceil(rounds / 8)``
bytes per component, MSB-first (numpy's default ``bitorder="big"``).
Every sampler draws straight into this form. Bitwise ``&`` / ``|`` / ``~``
on packed rows compute the per-round boolean algebra of dense vectors at
an eighth of the memory traffic; dense views are materialised only at the
estimate boundary via ``RoundStates.unpack``, whose ``count=rounds`` cut
discards the pad bits of the last byte, which is what makes round counts
that are not multiples of 8 safe everywhere. Samplers leave those pad bits
clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ConfigurationError

#: dtype of packed state rows.
PACK_DTYPE = np.uint8


def packed_width(rounds: int) -> int:
    """Bytes per packed row covering ``rounds`` sampling rounds."""
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")
    return (rounds + 7) // 8


@dataclass
class PackedBatch:
    """Failure states of sampled components as a bit-packed matrix.

    What every :meth:`~repro.sampling.base.Sampler.sample` returns:
    ``matrix[i]`` is the packed per-round failure row of
    ``component_ids[i]``. Components absent from ``component_ids`` never
    failed. ``nonzero`` flags rows
    with at least one failure, so downstream stages can skip the (vast)
    all-alive majority without touching row bytes again.
    """

    rounds: int
    component_ids: tuple[str, ...] = ()
    matrix: np.ndarray | None = None
    nonzero: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {self.rounds}")
        if self.matrix is None:
            self.matrix = np.zeros((0, packed_width(self.rounds)), dtype=PACK_DTYPE)
        if self.matrix.shape != (len(self.component_ids), packed_width(self.rounds)):
            raise ConfigurationError(
                f"packed matrix shape {self.matrix.shape} does not match "
                f"{len(self.component_ids)} components x "
                f"{packed_width(self.rounds)} bytes"
            )
        if self.nonzero is None:
            self.nonzero = self.matrix.any(axis=1)

    def failed_rows(self) -> dict[str, np.ndarray]:
        """Packed failure row of every component that failed in some round
        (the compiled forest's leaf states; anything absent never failed)."""
        ids, matrix = self.component_ids, self.matrix
        return {ids[i]: matrix[i] for i in np.flatnonzero(self.nonzero).tolist()}
