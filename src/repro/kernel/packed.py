"""Bit-packed failure-state representation (8 rounds per byte).

The sampled failure table of §3.2.1 is boolean, so the kernel stores it
as ``np.packbits`` rows: one ``uint8`` vector of ``ceil(rounds / 8)``
bytes per component, MSB-first (numpy's default ``bitorder="big"``).
Bitwise ``&`` / ``|`` / ``~`` on packed rows compute the same per-round
boolean algebra as the legacy dense vectors at an eighth of the memory
traffic; dense views are materialised only at the estimate boundary via
:func:`unpack_row`, whose ``count=rounds`` cut discards the pad bits of
the last byte, which is what makes round counts that are not multiples
of 8 safe everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.base import SampleBatch

#: dtype of packed state rows.
PACK_DTYPE = np.uint8


def packed_width(rounds: int) -> int:
    """Bytes per packed row covering ``rounds`` sampling rounds."""
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")
    return (rounds + 7) // 8


def pack_bool_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(components, rounds)`` boolean matrix row-wise."""
    return np.packbits(np.ascontiguousarray(matrix), axis=1)


def pack_indices(indices: np.ndarray, rounds: int) -> np.ndarray:
    """Packed row with the given (sorted or not) round indices set."""
    dense = np.zeros(rounds, dtype=bool)
    if len(indices):
        dense[indices] = True
    return np.packbits(dense)


def unpack_row(row: np.ndarray, rounds: int) -> np.ndarray:
    """Dense boolean per-round vector of one packed row (pads dropped)."""
    return np.unpackbits(row, count=rounds).view(bool)


def unpack_matrix(matrix: np.ndarray, rounds: int) -> np.ndarray:
    """Dense boolean ``(components, rounds)`` view of a packed matrix."""
    return np.unpackbits(matrix, axis=1, count=rounds).view(bool)


@dataclass
class PackedBatch:
    """Failure states of sampled components as a bit-packed matrix.

    The kernel-native sibling of
    :class:`~repro.sampling.base.SampleBatch`: ``matrix[i]`` is the
    packed per-round failure row of ``component_ids[i]``. Components
    absent from ``component_ids`` never failed. ``nonzero`` flags rows
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

    @property
    def width(self) -> int:
        """Bytes per row."""
        return packed_width(self.rounds)

    def failed_rows(self, only=None) -> dict[str, np.ndarray]:
        """Packed failure row of every component that failed in some round
        (the compiled forest's leaf states; anything absent never failed),
        of those in the set ``only`` when given: a plan reads its closure,
        a full-infrastructure batch holds the whole data center."""
        ids, matrix = self.component_ids, self.matrix
        failed = np.flatnonzero(self.nonzero).tolist()
        if only is not None:
            failed = [i for i in failed if ids[i] in only]
        return {ids[i]: matrix[i] for i in failed}

    # ------------------------------------------------------------------
    # Conversions to/from the legacy sparse-index representation
    # ------------------------------------------------------------------

    @classmethod
    def from_sample_batch(
        cls, batch: "SampleBatch", component_ids: Iterable[str] | None = None
    ) -> "PackedBatch":
        """Pack a legacy :class:`SampleBatch` (bit-identical by construction).

        This is the fallback for samplers without a matrix-native
        ``sample_packed`` fast path: the draws (and hence the rng stream)
        are exactly the legacy ones, only the storage changes.
        """
        ids = tuple(component_ids) if component_ids is not None else tuple(
            batch.failed_rounds
        )
        dense = np.zeros((len(ids), batch.rounds), dtype=bool)
        for i, cid in enumerate(ids):
            failed = batch.failed_rounds.get(cid)
            if failed is not None and failed.size:
                dense[i, failed] = True
        return cls(
            rounds=batch.rounds,
            component_ids=ids,
            matrix=pack_bool_matrix(dense) if len(ids) else None,
        )

    def to_sample_batch(self) -> "SampleBatch":
        """The equivalent legacy sparse-index batch (for tests/debugging)."""
        from repro.sampling.base import ROUND_DTYPE, SampleBatch

        batch = SampleBatch(rounds=self.rounds)
        for i, cid in enumerate(self.component_ids):
            if not self.nonzero[i]:
                continue
            failed = np.nonzero(unpack_row(self.matrix[i], self.rounds))[0]
            batch.failed_rounds[cid] = failed.astype(ROUND_DTYPE)
        return batch
