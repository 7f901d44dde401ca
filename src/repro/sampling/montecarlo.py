"""Monte-Carlo failure-state sampling — the strawman design (§3.2.1).

This is the sampler the state-of-the-art INDaaS system uses: every
component's state in every round is decided by its own uniform draw
(``r < p`` means failed), so generating states costs C x X random numbers
for C components and X rounds. That cost is exactly why the paper replaces
it with dagger sampling; we keep it both as the INDaaS baseline and as the
statistical reference the dagger sampler is validated against.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.kernel.packed import PACK_DTYPE, PackedBatch, packed_width
from repro.sampling.base import Sampler, validate_probabilities
from repro.util.faultpoints import fault_hit

#: Peak transient memory allowed per chunk, in bytes (~128 MiB). Each draw
#: materialises a float64 uniform plus a bool in the comparison matrix, so
#: the budget is divided by 9 bytes per draw — budgeting by draw *count*
#: (the old scheme) undercounted and let peak memory scale past the
#: documented ceiling.
_CHUNK_BUDGET_BYTES = 128 << 20

#: float64 uniform draw + bool entry of the failed matrix.
_BYTES_PER_DRAW = np.dtype(np.float64).itemsize + np.dtype(np.bool_).itemsize


class MonteCarloSampler(Sampler):
    """Independent per-round uniform sampling for every component."""

    name = "monte-carlo"

    def sample(
        self,
        probabilities: Mapping[str, float],
        rounds: int,
        rng: np.random.Generator,
        cancel=None,
    ) -> PackedBatch:
        fault_hit("sampling.start")
        validate_probabilities(probabilities)
        component_ids = [cid for cid, p in probabilities.items() if p > 0.0]
        if not component_ids:
            return PackedBatch(rounds=rounds)
        p_values = np.array([probabilities[cid] for cid in component_ids])

        # Components are drawn in chunks so the uniform-draw matrix plus its
        # boolean comparison stay within the byte budget even for
        # 1e5-round batches, and each chunk's rows are packed as they come,
        # in one statement so its draws die before the next chunk's. The
        # chunk size never changes the sampled states: consecutive
        # rng.random((a, n)) calls consume the stream exactly like one
        # rng.random((a + b, n)) call.
        matrix = np.zeros((len(component_ids), packed_width(rounds)), dtype=PACK_DTYPE)
        chunk_rows = max(1, _CHUNK_BUDGET_BYTES // (rounds * _BYTES_PER_DRAW))
        for start in range(0, len(component_ids), chunk_rows):
            if cancel is not None:
                cancel.check()
            stop = min(start + chunk_rows, len(component_ids))
            matrix[start:stop] = np.packbits(
                rng.random((stop - start, rounds)) < p_values[start:stop, np.newaxis],
                axis=1,
            )
        return PackedBatch(
            rounds=rounds, component_ids=tuple(component_ids), matrix=matrix
        )
