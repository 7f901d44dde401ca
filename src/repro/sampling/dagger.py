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
probability, each group's cycle geometry is computed once, and every
draw of every group is turned into a failed round in one ragged pass.
The original scheme is the extended one with each component's own cycle as
its block, and common random numbers are the original scheme with each
component's uniforms read from its own counter-based stream, so every
dagger row is made by one routine, :meth:`DaggerSampler._draw`, behind two
hooks: ``_block_length`` and ``_uniforms``. A component's key is the
little-endian 64-bit BLAKE2b of its id keyed by the master seed; its
``j``-th uniform (from 0) is the top 53 bits of SplitMix64's finaliser of
``key + (j + 1) * 0x9E3779B97F4A7C15 mod 2**64`` [Salmon et al., SC'11;
Steele et al., OOPSLA'14], so one uint64 pass draws every row of a call.
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping, Sequence

import numpy as np

from repro.kernel.packed import PACK_DTYPE, PackedBatch, packed_width
from repro.sampling.base import Sampler, validate_probabilities
from repro.util.faultpoints import fault_hit

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
    longest = dagger_cycle_length(min(positive))
    return sum(_cycle_geometry(p, rounds, longest)[1] for p in positive)


#: Fewest draws in one chunk of rows of :func:`_draw_bits` (or the rest).
CHUNK_DRAWS = 1 << 16

#: SplitMix64's increment (the golden gamma) and its finaliser's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))

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


def _draw_bits(flat, draws, ends, row_p, rows: list, row_bits: int):
    """``(hit, bit)`` of the flat draw ``flat``, row ``i`` of probability
    ``row_p[i]`` and cycle geometry ``rows[i]`` owning its ``draws[i]``
    uniforms up to ``ends[i]``: per draw, whether it fails a round and
    that round's bit ``i * row_bits + round``. One ragged pass over chunks
    of rows of at least :data:`CHUNK_DRAWS` draws concatenates each row's
    cached cycle starts and limits: the only per-draw scratch is a chunk's.
    """
    hit, bit = np.empty(len(flat), dtype=bool), np.empty(len(flat), dtype=np.intp)
    lo = first = 0
    while first < len(rows):
        last = min(int(ends.searchsorted(lo + CHUNK_DRAWS)) + 1, len(rows))
        hi, span, chunk = int(ends[last - 1]), draws[first:last], rows[first:last]
        # A draw in the i-th subinterval fails round i of its cycle. The
        # quotient is below the (integer) limit exactly when its floor
        # is, so one bound check is every validity condition (see
        # _cycle_geometry), and truncation is floor for the non-negative
        # ratios.
        quotient = flat[lo:hi]
        quotient /= row_p[first:last].repeat(span)
        np.less(quotient, np.concatenate([row[3] for row in chunk]), out=hit[lo:hi])
        bits = bit[lo:hi]
        bits[...] = quotient
        bits += np.concatenate([row[2] for row in chunk])
        bits += np.arange(first * row_bits, last * row_bits, row_bits).repeat(span)
        lo, first = hi, last
    return hit, bit


class DaggerSampler(Sampler):
    """Original dagger sampling, without the cross-component cycle reset.

    Each component concatenates its own cycles independently (Fig. 3).
    Statistically this also has per-round marginal ``p``; the extended
    variant exists to align cycle boundaries across heterogeneous
    components. Kept for completeness and for ablation comparisons.

    Every dagger row is made by :meth:`_draw`; subclasses differ in
    :meth:`_block_length` (where cycles restart) and :meth:`_uniforms`
    (where a row's draws come from, which also decides :meth:`_groups`).
    """

    name = "dagger"

    @staticmethod
    def _block_length(probability: float, longest: int) -> int:
        """Rounds after which a group's cycles restart: its own cycle, so
        truncation never trims one — exactly the original scheme."""
        return dagger_cycle_length(probability)

    def _uniforms(self, rng, ids: Sequence[str], ends: np.ndarray) -> np.ndarray:
        """The flat draw, row ``i`` ending at ``ends[i]``: one
        ``rng.random`` call, so the row layout is the stream's order."""
        return rng.random(int(ends[-1]))

    def _groups(self, values: np.ndarray) -> tuple:
        """``(order, levels, sizes)`` of the components that can fail:
        grouped by exact probability, groups in order of first appearance
        and components in mapping order inside a group, so each group's
        cycle geometry is looked up once."""
        levels, first, level_of, sizes = np.unique(
            values,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        by_appearance = np.argsort(first, kind="stable")
        group_of_level = np.empty_like(by_appearance)
        group_of_level[by_appearance] = np.arange(len(levels))
        order = np.argsort(group_of_level[level_of], kind="stable")
        return order, levels[by_appearance], sizes[by_appearance]

    def sample(
        self,
        probabilities: Mapping[str, float],
        rounds: int,
        rng: np.random.Generator,
        cancel=None,
    ) -> PackedBatch:
        """The components that can fail, laid out by :meth:`_groups`,
        straight into packed rows by :meth:`_draw`; nothing about a
        probability map outlives the call."""
        fault_hit("sampling.start")
        values = validate_probabilities(probabilities)
        positive = np.flatnonzero(values > 0.0)
        if not positive.size:
            return PackedBatch(rounds=rounds)
        if cancel is not None:
            cancel.check()
        order, levels, sizes = self._groups(values[positive])
        all_ids = list(probabilities)
        ids = tuple(all_ids[i] for i in positive[order].tolist())
        return self._draw(ids, levels, sizes, rounds, rng)

    def _draw(
        self, ids: tuple, levels: np.ndarray, sizes, rounds: int, rng
    ) -> PackedBatch:
        """Packed rows of ``ids``: ``sizes[g]`` rows (a scalar: every
        group's) of probability ``levels[g]`` in (0, 1) per group.

        The flat draw is laid out row by row, cycle by cycle (block-major);
        :func:`_draw_bits` turns it into the bit position of every draw.
        """
        # floor(1/p) never grows with p: the smallest level has the
        # longest cycle.
        plist = levels.tolist()
        longest = dagger_cycle_length(min(plist))
        # One geometry lookup per distinct probability: CRN's rows repeat them.
        geometry = {
            p: _cycle_geometry(p, rounds, self._block_length(p, longest)) for p in set(plist)
        }
        row_p = levels.repeat(sizes)
        rows = [geometry[p] for p in row_p.tolist()]
        draws = np.array([row[1] for row in rows], dtype=ROUND_DTYPE)
        ends = draws.cumsum()
        width = packed_width(rounds)
        flat = self._uniforms(rng, ids, ends)
        hit, bit = _draw_bits(flat, draws, ends, row_p, rows, 8 * width)
        del flat
        nonzero = np.logical_or.reduceat(hit, ends - draws)

        # Rows are in draw order and a row's hits in round order, so the
        # bytes are sorted; each (component, round) pair is unique, so
        # hits sharing a byte set distinct bits. Plain assignment keeps
        # the last hit of a byte, the rare earlier ones are OR-ed in.
        # (The per-draw arrays are megabytes for a whole data center:
        # dropped as they die, shifted in place, so the next one reuses
        # their pages.)
        bit = bit.compress(hit)
        del hit
        mask = _BIT_OF[bit & 7]
        byte = np.right_shift(bit, 3, out=bit)
        matrix = np.zeros((len(ids), width), dtype=PACK_DTYPE)
        cells = matrix.reshape(-1)
        cells[byte] = mask
        shared = (byte[1:] == byte[:-1]).nonzero()[0]
        if shared.size:
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


class CommonRandomDaggerSampler(DaggerSampler):
    """Dagger sampling with *common random numbers* across calls.

    Every component's failure states are drawn from a private counter-based
    stream keyed by ``(master_seed, component_id)`` (defined above; no
    per-component object is built), so two sample calls — e.g. for the
    current plan and a neighbour sharing 4 of its 5 hosts — see *identical*
    states for every shared component. Score differences between such
    plans then reflect only the genuinely differing components, which
    turns the annealing comparison into a low-variance paired test.

    A row is a pure function of ``(master_seed, component_id, probability,
    rounds)``, which is what lets the incremental engine draw only the
    closure *delta* of a move (:meth:`component_rows`) and reuse every
    other row verbatim. So a component's states must not depend on which
    others share the call: each keeps its own cycle (the original scheme's
    :meth:`_block_length`, not the extended reset) and rows keep mapping
    order, ungrouped. Marginally each stream is an ordinary dagger stream,
    so scores stay unbiased; only the coupling *between* assessments
    changes. The "best score observed" under one master seed inherits that
    seed's noise, so a search re-assesses its winner with independent
    randomness before reporting it. :meth:`reseed` moves to a fresh seed.
    """

    name = "common-random-dagger"

    def __init__(self, master_seed: int):
        self.reseed(master_seed)

    def reseed(self, master_seed: int) -> None:
        """Switch every component stream to a new master seed: the BLAKE2b
        key is its shortest little-endian bytes, hashed past 64 bytes."""
        self.master_seed = int(master_seed)
        size = max(1, -(-self.master_seed.bit_length() // 8))
        key = self.master_seed.to_bytes(size, "little")
        key = key if size <= 64 else hashlib.blake2b(key).digest()
        #: Keyed and empty: each id's digest is a copy of it, updated.
        self._keyed = hashlib.blake2b(digest_size=8, key=key)

    def _uniforms(self, rng, ids: Sequence[str], ends: np.ndarray) -> np.ndarray:
        """Row ``i``'s uniforms from component ``ids[i]``'s stream, every
        row in one uint64 pass (wrapping, as SplitMix64 is defined);
        ``rng`` is unused."""
        digests = []
        for cid in ids:
            digest = self._keyed.copy()
            digest.update(cid.encode())
            digests.append(digest.digest())
        keys = np.frombuffer(b"".join(digests), dtype="<u8")
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1]
        z = np.arange(1, int(ends[-1]) + 1, dtype=np.uint64)
        z *= _GAMMA
        # Each row counts from 1: its key less the gammas of the rows before.
        z += (keys - starts.astype(np.uint64) * _GAMMA).repeat(ends - starts)
        scratch = np.empty_like(z)
        for shift, multiplier in zip((30, 27), _MIX):
            z ^= np.right_shift(z, shift, out=scratch)
            z *= multiplier
        z ^= np.right_shift(z, 31, out=scratch)
        z >>= 11
        return np.multiply(z, 2.0**-53, out=scratch.view(np.float64))

    def _groups(self, values: np.ndarray) -> tuple:
        """Every row its own group, in mapping order."""
        return np.arange(len(values)), values, 1

    def component_rows(
        self, component_ids: Sequence[str], probabilities: np.ndarray, rounds: int
    ) -> dict[str, np.ndarray]:
        """Packed rows of components with probabilities in (0, 1), in the
        given order; a component that never failed has no entry."""
        levels = np.asarray(probabilities, dtype=np.float64)
        return self._draw(tuple(component_ids), levels, 1, rounds, None).failed_rows()
