"""Dagger sampling and the extended variant reCloud uses (§3.2.2).

Dagger sampling [45] targets exactly our setting: two-state variables with
low failure probabilities. For a component with failure probability ``p``,
let ``s = floor(1/p)``. The unit interval is divided into ``s``
subintervals of length ``p`` plus a remainder; a *single* uniform draw
``r`` then fixes the component's states for ``s`` consecutive rounds (one
"dagger cycle"): if ``r`` lands in the i-th subinterval the component fails
in round ``i`` of the cycle and is alive in the rest; if ``r`` lands in the
remainder it is alive throughout. The expected per-round failure rate is
still exactly ``p`` — no bias — but each cycle costs one draw instead of
``s``, and the induced negative correlation within a cycle gives the
variance-reduction effect the paper leans on.

Components with different ``p`` have different cycle lengths, so the
*extended* variant (following [63]) resets every component's cycle at the
end of the longest cycle: time is cut into blocks of ``s_max`` rounds, each
component concatenates its own cycles inside a block and truncates the last
one at the block boundary. Truncation drops whole tail rounds of a cycle,
which leaves every surviving round's marginal failure probability at ``p``.

Implementation notes: probabilities in a data center are heavily repeated
(the paper rounds them to 4 decimals), so components are grouped by exact
probability and each group is sampled as one vectorised matrix of draws.
The original scheme is the extended one with each component's own cycle as
its block, so both samplers run one routine, :meth:`DaggerSampler.sample`,
and differ only in ``_block_length``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping, Sequence

import numpy as np

from repro.kernel.packed import PACK_DTYPE, PackedBatch, packed_width
from repro.sampling.base import Sampler, sampling_started, validate_probabilities

#: dtype of round-index arithmetic.
ROUND_DTYPE = np.int64


def dagger_cycle_length(probability: float) -> int:
    """Cycle length ``s = floor(1/p)`` for a failure probability ``p``."""
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability}")
    return int(math.floor(1.0 / probability))


def dagger_draw_count(probabilities: Mapping[str, float], rounds: int) -> int:
    """Number of uniform draws extended dagger sampling needs.

    The Monte-Carlo equivalent is ``len(probabilities) * rounds``; the ratio
    of the two is the headline efficiency gain of Fig. 7.
    """
    positive = [p for p in probabilities.values() if p > 0.0]
    if not positive or rounds <= 0:
        return 0
    longest = max(dagger_cycle_length(p) for p in positive)
    blocks = math.ceil(rounds / longest)
    total = 0
    for p in positive:
        cycles_per_block = math.ceil(longest / dagger_cycle_length(p))
        total += blocks * cycles_per_block
    return total


#: MSB-first bit of each round-within-byte position.
_BIT_OF = (0x80 >> np.arange(8)).astype(PACK_DTYPE)

#: Cached per-(probability, rounds, block_length) cycle geometry. The
#: arrays are rng-independent, so repeated assessments (the search loop
#: re-samples the same closure every move) skip rebuilding them.
_GEOMETRY_CACHE: dict[tuple[float, int, int], tuple[int, int, np.ndarray, np.ndarray]] = {}


def _cycle_geometry(
    probability: float, rounds: int, block_length: int
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """``(s, draws_per_component, cycle_start, limit)`` for one group.

    Cycles of length ``s = floor(1/p)`` are concatenated within blocks of
    ``block_length`` rounds and truncated at block boundaries. Draw ``d``
    of a component opens the cycle starting at round ``cycle_start[d]``,
    and its offset ``floor(r / p)`` fails round ``cycle_start[d] + offset``
    when it lands in a subinterval (``offset < s``), inside the block
    (``cycle_in_block * s + offset < block_length``) and inside the round
    range (``cycle_start + offset < rounds``) — all integers, so the
    conjunction is ``offset < limit[d]``, the smallest of the three bounds.
    """
    key = (probability, rounds, block_length)
    geometry = _GEOMETRY_CACHE.get(key)
    if geometry is None:
        s = dagger_cycle_length(probability)
        cycles_per_block = math.ceil(block_length / s)
        blocks = math.ceil(rounds / block_length)
        draws_per_component = blocks * cycles_per_block
        draw_index = np.arange(draws_per_component, dtype=ROUND_DTYPE)
        block_of_draw = draw_index // cycles_per_block
        cycle_in_block = draw_index % cycles_per_block
        cycle_start = block_of_draw * block_length + cycle_in_block * s
        limit = np.minimum(
            np.minimum(s, block_length - cycle_in_block * s),
            rounds - cycle_start,
        ).astype(ROUND_DTYPE)
        if len(_GEOMETRY_CACHE) >= 4096:
            _GEOMETRY_CACHE.clear()
        geometry = _GEOMETRY_CACHE[key] = (s, draws_per_component, cycle_start, limit)
    return geometry


class DaggerSampler(Sampler):
    """Original dagger sampling, without the cross-component cycle reset.

    Each component concatenates its own cycles independently (Fig. 3).
    Statistically this also has per-round marginal ``p``; the extended
    variant exists to align cycle boundaries across heterogeneous
    components. Kept for completeness and for ablation comparisons.
    """

    name = "dagger"

    @staticmethod
    def _block_length(probability: float, longest: int) -> int:
        """Rounds after which a group's cycles restart: its own cycle, so
        truncation never trims one — exactly the original scheme."""
        return dagger_cycle_length(probability)

    def sample(
        self,
        probabilities: Mapping[str, float],
        rounds: int,
        rng: np.random.Generator,
        cancel=None,
    ) -> PackedBatch:
        """Every group's uniforms from ONE ``rng.random`` call, straight
        into packed rows.

        Components are grouped by exact probability, groups in order of
        first appearance and components in mapping order inside a group;
        the flat draw is laid out group by group, component by component,
        cycle by cycle (block-major), so that order is the stream's. Each
        group is a ``(components, draws)`` view of that array, turned in
        place into the bit position ``row * 8 * width + round`` of every
        draw by broadcasting the group's :func:`_cycle_geometry` tables, so
        nothing is laid out per draw and nothing about a probability map
        outlives the call.
        """
        sampling_started()
        values = validate_probabilities(probabilities)
        positive = np.flatnonzero(values > 0.0)
        if not positive.size:
            return PackedBatch(rounds=rounds)
        if cancel is not None:
            cancel.check()

        levels, first, level_of, sizes = np.unique(
            values[positive],
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        by_appearance = np.argsort(first, kind="stable")
        group_of_level = np.empty_like(by_appearance)
        group_of_level[by_appearance] = np.arange(len(levels))
        order = np.argsort(group_of_level[level_of], kind="stable")
        all_ids = list(probabilities)
        ids = tuple(all_ids[i] for i in positive[order].tolist())

        # floor(1/p) never grows with p: the smallest level has the
        # longest cycle.
        longest = dagger_cycle_length(float(levels[0]))
        groups = [
            (p, count, *_cycle_geometry(p, rounds, self._block_length(p, longest))[1:])
            for p, count in zip(
                levels[by_appearance].tolist(), sizes[by_appearance].tolist()
            )
        ]
        width = packed_width(rounds)
        flat = rng.random(sum(count * dpc for _p, count, dpc, _start, _limit in groups))
        hit = np.empty(len(flat), dtype=bool)
        bit = np.empty(len(flat), dtype=np.intp)
        nonzero = np.empty(len(ids), dtype=bool)
        row_bit0 = np.arange(0, len(ids) * 8 * width, 8 * width)[:, None]
        lo = row = 0
        for p, count, dpc, cycle_start, limit in groups:
            hi = lo + count * dpc
            shape = (count, dpc)
            # A draw in the i-th subinterval fails round i of its cycle.
            # The quotient is below the (integer) limit exactly when its
            # floor is, so one bound check is every validity condition
            # (see _cycle_geometry), and truncation is floor for the
            # non-negative ratios.
            quotient = flat[lo:hi].reshape(shape)
            quotient /= p
            hits = hit[lo:hi].reshape(shape)
            np.less(quotient, limit, out=hits)
            hits.any(axis=1, out=nonzero[row : row + count])
            bits = bit[lo:hi].reshape(shape)
            bits[...] = quotient
            bits += cycle_start
            bits += row_bit0[row : row + count]
            lo, row = hi, row + count

        # Rows are in draw order and a row's hits in round order, so the
        # bytes are sorted; each (component, round) pair is unique, so
        # hits sharing a byte set distinct bits. Plain assignment keeps
        # the last hit of a byte, the rare earlier ones are OR-ed in.
        # (The per-draw arrays are megabytes for a whole data center:
        # dropped as they die, shifted in place, so the next one reuses
        # their pages.)
        del flat
        bit = bit[hit]
        del hit
        mask = _BIT_OF[bit & 7]
        byte = np.right_shift(bit, 3, out=bit)
        matrix = np.zeros((len(ids), width), dtype=PACK_DTYPE)
        cells = matrix.reshape(-1)
        cells[byte] = mask
        shared = np.flatnonzero(byte[1:] == byte[:-1])
        np.bitwise_or.at(cells, byte[shared], mask[shared])
        return PackedBatch(
            rounds=rounds, component_ids=ids, matrix=matrix, nonzero=nonzero
        )


class ExtendedDaggerSampler(DaggerSampler):
    """The paper's extended dagger sampling (Fig. 4).

    All components' cycles are reset at the end of the longest dagger cycle
    among them, so components with heterogeneous failure probabilities can
    be sampled together without bias [63].
    """

    name = "extended-dagger"

    @staticmethod
    def _block_length(probability: float, longest: int) -> int:
        """Every group's cycles restart at the end of the longest cycle."""
        return longest


def _component_stream(master_seed: int, component_id: str) -> np.random.Generator:
    """A component's private generator: same (master, id) -> same stream."""
    digest = hashlib.blake2b(
        component_id.encode("utf-8"), digest_size=8
    ).digest()
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, int.from_bytes(digest, "big")])
    )


class CommonRandomDaggerSampler(Sampler):
    """Extended dagger sampling with *common random numbers* across calls.

    Every component's failure states are drawn from a private stream keyed
    by ``(master_seed, component_id)``, so two sample calls — e.g. for the
    current plan and a neighbour sharing 4 of its 5 hosts — see *identical*
    states for every shared component. Score differences between such
    plans then reflect only the genuinely differing components, which
    turns the annealing comparison into a low-variance paired test.

    Marginally the distribution is the same extended dagger distribution
    (each stream is an ordinary dagger stream), so individual scores stay
    unbiased; only the coupling *between* assessments changes. Because the
    "best score observed" under a fixed master seed inherits that seed's
    noise, callers should re-assess a search's winning plan with
    independent randomness before reporting it (the search does this).

    Call :meth:`reseed` to move to a fresh master seed.
    """

    name = "common-random-dagger"

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def reseed(self, master_seed: int) -> None:
        """Switch every component stream to a new master seed."""
        self.master_seed = int(master_seed)

    def component_rows(
        self,
        component_ids: Sequence[str],
        probabilities: np.ndarray,
        rounds: int,
    ) -> dict[str, np.ndarray]:
        """Packed failure rows of several components, each from its private
        stream; a component that never failed has no entry.

        A row is a pure function of ``(master_seed, component_id,
        probability, rounds)`` — which is precisely what makes per-component
        failure states cacheable across assessments: the incremental engine
        draws only the closure *delta* of a move and reuses every
        previously drawn row verbatim. So each component runs its own
        cycle length (original dagger) rather than the extended
        cross-component reset: the reset aligns cycles of *jointly drawn*
        components, and a component's states must not depend on which
        other components happen to be in the call. What follows the draws
        is one ragged pass, component ``i`` owning one entry per cycle of
        its own length ``s_i``. Probabilities must be in (0, 1).
        """
        p = np.asarray(probabilities, dtype=np.float64)
        if not ((p > 0.0) & (p < 1.0)).all():
            raise ValueError(f"probabilities must be in (0, 1), got {p}")
        s = np.floor(1.0 / p).astype(ROUND_DTYPE)
        draws = -(-rounds // s)
        ends = np.cumsum(draws)
        quotient = np.empty(ends[-1])
        lo = 0
        for cid, hi in zip(component_ids, ends.tolist()):
            _component_stream(self.master_seed, cid).random(out=quotient[lo:hi])
            lo = hi
        component = np.repeat(np.arange(len(p)), draws)
        quotient /= p[component]
        # A draw in the i-th subinterval fails round i of its cycle; past
        # the last subinterval, or the last round, it fails nothing.
        offset = quotient.astype(ROUND_DTYPE)
        cycle_length = s[component]
        cycle = np.arange(len(offset)) - (ends - draws)[component]
        failed = cycle * cycle_length + offset
        hit = (offset < cycle_length) & (failed < rounds)
        component, failed = component[hit], failed[hit]
        counts = np.bincount(component, minlength=len(p))
        dense = np.zeros((len(p), rounds), dtype=bool)
        dense[component, failed] = True
        rows = np.packbits(dense, axis=1)
        return {component_ids[i]: rows[i] for i in np.flatnonzero(counts).tolist()}

    def sample(
        self,
        probabilities: Mapping[str, float],
        rounds: int,
        rng: np.random.Generator,  # unused: streams are component-addressed
        cancel=None,
    ) -> PackedBatch:
        """:meth:`component_rows` over the components that can fail, 64 at
        a time (the cancellation point), laid into one packed matrix."""
        sampling_started()
        values = validate_probabilities(probabilities)
        positive = np.flatnonzero(values > 0.0)
        all_ids = list(probabilities)
        ids = [all_ids[i] for i in positive.tolist()]
        matrix = np.zeros((len(ids), packed_width(rounds)), dtype=PACK_DTYPE)
        for start in range(0, len(ids), 64):
            if cancel is not None:
                cancel.check()
            chunk = ids[start : start + 64]
            chunk_p = values[positive[start : start + 64]]
            rows = self.component_rows(chunk, chunk_p, rounds)
            for offset, cid in enumerate(chunk):
                if cid in rows:
                    matrix[start + offset] = rows[cid]
        return PackedBatch(rounds=rounds, component_ids=tuple(ids), matrix=matrix)
