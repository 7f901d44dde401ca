"""Integer component arena: string ids interned to dense int32 indices.

Every per-assessment structure the compiled kernel touches — packed
state matrices, fault-tree leaf operands, closure sets — is indexed by a
dense integer instead of a string id. The id table is built once per
(topology, dependency model) pair, in the deterministic iteration order
of :meth:`~repro.faults.dependencies.DependencyModel.failure_probabilities`,
so indices are stable for the lifetime of an assessor and identical
across processes given the same substrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.dependencies import DependencyModel

#: Set bits up to which a mask is built or read bit by bit (a host's own,
#: a move's delta), at the cost of its bits; past it in one numpy pass.
FEW_BITS = 16


class ComponentArena:
    """Bidirectional component-id <-> dense-index interning table."""

    __slots__ = ("ids", "index", "probabilities", "rank")

    def __init__(
        self,
        ids: Iterable[str],
        probabilities: Iterable[float] | None = None,
        index: dict[str, int] | None = None,
        rank: np.ndarray | None = None,
    ):
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = (
            {cid: i for i, cid in enumerate(self.ids)} if index is None else index
        )
        # Each index's position in sorted id order (the inverse of the
        # sorting permutation): indices sorted by rank are their ids sorted.
        self.rank: np.ndarray = (
            np.argsort(sorted(range(len(self.ids)), key=self.ids.__getitem__))
            if rank is None
            else rank
        )
        if len(self.index) != len(self.ids):
            raise ConfigurationError("duplicate component ids in arena")
        self.probabilities: np.ndarray | None = (
            None
            if probabilities is None
            else np.fromiter(probabilities, dtype=np.float64)
        )
        if self.probabilities is not None and self.probabilities.shape != (
            len(self.ids),
        ):
            raise ConfigurationError(
                "probabilities length does not match component count"
            )

    @classmethod
    def for_model(
        cls, model: "DependencyModel", probabilities: Mapping[str, float] | None = None
    ) -> "ComponentArena":
        """Intern every network + dependency component of one substrate.

        The id table is a pure function of the model's component set, so
        it is built once per model and shared by every arena over it
        (every search request builds a kernel); the probability vector is
        read afresh from ``probabilities``, the caller's
        ``model.failure_probabilities()`` when it already holds one.
        """
        if probabilities is None:
            probabilities = model.failure_probabilities()
        interned = model._interned
        if interned is None or len(interned[0]) != len(probabilities):
            fresh = cls(probabilities, probabilities.values())
            model._interned = (fresh.ids, fresh.index, fresh.rank)
            return fresh
        ids, index, rank = interned
        return cls(ids, probabilities.values(), index=index, rank=rank)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, component_id: str) -> bool:
        return component_id in self.index

    def index_of(self, component_id: str) -> int:
        """Dense index of one component id."""
        try:
            return self.index[component_id]
        except KeyError:
            raise ConfigurationError(
                f"component {component_id!r} is not in the arena"
            ) from None

    # Component sets as Python ints, bit ``i`` the component at index ``i``:
    # union is ``|``, difference ``& ~``, size ``int.bit_count()``.

    def mask_of_indices(self, indices) -> int:
        """The bitmask with exactly the given dense indices set."""
        if len(indices) <= FEW_BITS:
            return sum(1 << i for i in set(map(int, indices)))
        flags = np.zeros(len(self.ids), dtype=bool)
        flags[indices] = True
        packed = np.packbits(flags, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def mask_of(self, component_ids: Iterable[str]) -> int:
        """The bitmask of several component ids (each one in the arena)."""
        index = self.index
        return self.mask_of_indices([index[cid] for cid in component_ids])

    def indices_in(self, mask: int) -> np.ndarray:
        """Ascending dense indices of the bits set in ``mask``."""
        if mask.bit_count() <= FEW_BITS:
            indices = []
            while mask:
                i = mask.bit_length() - 1
                indices.append(i)
                mask ^= 1 << i
            return np.array(indices[::-1], dtype=np.intp)
        raw = mask.to_bytes((len(self.ids) + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
        return np.flatnonzero(bits)

    def ids_in(self, mask: int) -> list[str]:
        """Component ids of the bits set in ``mask``, in index order."""
        ids = self.ids
        return [ids[i] for i in self.indices_in(mask).tolist()]

    def __repr__(self) -> str:
        return f"<ComponentArena: {len(self.ids)} components>"
