"""Exact fault-tree probabilities compiled from the kernel program.

The dagger samplers estimate failure probabilities; this module computes
them *exactly* from the same flattened instruction program the compiled
kernel evaluates (:mod:`repro.kernel.compiler`), following the
analytic-availability line of Bibartiu et al. (PAPERS.md): availability
of redundant cloud structures is a closed-form computation as long as the
dependency structure stays tractable.

Two exact primitives are provided:

* :func:`compute_marginals` — exact per-node failure probabilities over a
  compiled sub-forest. Shared dependency roots (a power supply feeding a
  row, a zone's cooling plant) make subjects *correlated*, so they are
  **conditioned out**: every basic event reachable through a shared node
  becomes one bit of a conditioning assignment sigma, and all node
  probabilities are propagated as vectors over the ``2**C`` assignments
  at once. Given sigma the remaining leaves are disjoint per gate, so the
  bottom-up propagation is exact — OR multiplies survival, AND multiplies
  failure, and k-of-n runs the Poisson-binomial dynamic program (no
  ``2**n`` enumeration, which is how the fleet capacity planner gets
  exact availability for fleets of any size). The exact marginal is then
  the sigma-weighted average.

* :func:`enumeration_rows` — the bit-packed state enumeration used for
  exact *plan-level* reliability (see
  :class:`repro.core.analytic.AnalyticAssessor`): state ``s`` of
  ``2**bits`` fails component ``i`` iff bit ``i`` of ``s`` is set, laid
  out exactly like a sampled :class:`~repro.kernel.packed.PackedBatch`
  row, so the whole enumeration flows through the unchanged compiled
  forest + packed route-and-check as "rounds" and is weighted afterwards
  by each state's exact probability.

Everything is deterministic: orders derive from arena indices and sorted
component ids, never from set iteration, so exact results are bit-stable
across processes (the property the kernel already guarantees for sampled
results). Intractable inputs raise :class:`ExactDeclined` — callers fall
back to sampling, they never get a silently-truncated "exact" number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.kernel.arena import ComponentArena
from repro.kernel.compiler import OP_AND, OP_KOFN, OP_LEAF, OP_OR, CompiledForest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.faulttree import FaultTree

__all__ = [
    "ExactDeclined",
    "Marginals",
    "compute_marginals",
    "enumeration_rows",
    "enumeration_weights",
    "exact_tree_probability",
]


class ExactDeclined(Exception):
    """The closure exceeds the exact evaluator's tractability budget.

    Carries a human-readable reason; callers are expected to fall back to
    sampling (and say so), never to swallow the decline silently.
    """


#: Maximum conditioning bits (basic events under shared nodes)
#: :func:`compute_marginals` enumerates; cost and memory scale with
#: ``2**MAX_SHARED_BITS``. The plan-level enumeration's cutoff is
#: ``AssessmentConfig.analytic_state_bits``.
MAX_SHARED_BITS = 12


@dataclass(frozen=True)
class Marginals:
    """Exact conditioned node probabilities for one compiled sub-forest.

    Attributes:
        conditioned: Node ids of the conditioned basic events, in the
            (deterministic) arena-index order that defines sigma's bits.
        weights: ``(2**C,)`` probability of each conditioning assignment;
            sums to 1.
        values: Node id -> ``(2**C,)`` conditional failure probability.
            For nodes inside shared regions the entries are exactly 0.0
            or 1.0 (they are boolean functions of sigma).
    """

    conditioned: tuple[int, ...]
    weights: np.ndarray
    values: dict[int, np.ndarray]

    def marginal(self, node_id: int) -> float:
        """Unconditional exact failure probability of one node."""
        return float(np.dot(self.weights, self.values[node_id]))


def _sub_dag(forest: CompiledForest, roots: Iterable[int]) -> list[int]:
    """Ascending node ids reachable from ``roots`` (a valid eval order)."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(
            forest.children[forest.child_start[nid] : forest.child_end[nid]]
        )
    return sorted(seen)


def compute_marginals(
    forest: CompiledForest,
    probabilities: "np.ndarray | Sequence[float]",
    roots: Iterable[int],
    extra_refs: Iterable[int] = (),
) -> Marginals:
    """Exact conditional failure probabilities for a compiled sub-forest.

    ``probabilities`` maps arena index -> basic-event failure probability
    (the arena's own table). ``roots`` are the node ids whose joint
    distribution the caller needs — typically one per closure element.
    ``extra_refs`` names nodes referenced *outside* the forest (e.g. a
    basic event that is also sampled directly as a raw link element);
    each reference counts toward sharing exactly like a parent edge.

    Sharing analysis: a node is *shared* when its reference count —
    parent edges within the sub-DAG, plus one per appearance in
    ``roots``/``extra_refs`` — is at least 2, or when it lies under a
    shared node. Every basic event with ``0 < p < 1`` inside a shared
    region is conditioned out (one sigma bit); all remaining leaves then
    appear under exactly one root along exactly one path, which is what
    makes the bottom-up product/DP propagation exact.

    Raises :class:`ExactDeclined` when more than :data:`MAX_SHARED_BITS`
    events would need conditioning.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    roots = list(roots)
    order = _sub_dag(forest, roots)
    in_dag = set(order)

    refs: dict[int, int] = {nid: 0 for nid in order}
    for nid in order:
        for child in forest.children[
            forest.child_start[nid] : forest.child_end[nid]
        ]:
            refs[child] += 1
    for nid in roots:
        refs[nid] += 1
    for nid in extra_refs:
        if nid in in_dag:
            refs[nid] += 1

    # Top-down shared marking: parents have larger node ids than their
    # children (postorder interning), so descending order visits every
    # node before its descendants.
    shared: set[int] = set()
    for nid in reversed(order):
        if refs[nid] >= 2:
            shared.add(nid)
        if nid in shared:
            shared.update(
                forest.children[forest.child_start[nid] : forest.child_end[nid]]
            )

    ops, operands = forest.ops, forest.operands
    conditioned = [
        nid
        for nid in order
        if ops[nid] == OP_LEAF
        and nid in shared
        and 0.0 < probabilities[operands[nid]] < 1.0
    ]
    # Sigma bit order follows arena indices, which are identical across
    # processes for the same substrate — node ids depend on compile order
    # and are not.
    conditioned.sort(key=lambda nid: operands[nid])
    if len(conditioned) > MAX_SHARED_BITS:
        raise ExactDeclined(
            f"{len(conditioned)} shared basic events need conditioning, "
            f"budget allows {MAX_SHARED_BITS} (2**C assignments)"
        )

    n_sigma = 1 << len(conditioned)
    sigma = np.arange(n_sigma, dtype=np.int64)
    weights = np.ones(n_sigma, dtype=np.float64)
    patterns: dict[int, np.ndarray] = {}
    for bit, nid in enumerate(conditioned):
        fired = ((sigma >> bit) & 1).astype(np.float64)
        p = float(probabilities[operands[nid]])
        weights *= np.where(fired == 1.0, p, 1.0 - p)
        patterns[nid] = fired

    values: dict[int, np.ndarray] = {}
    for nid in order:
        op = ops[nid]
        if op == OP_LEAF:
            pattern = patterns.get(nid)
            if pattern is not None:
                values[nid] = pattern
            else:
                values[nid] = np.full(
                    n_sigma, float(probabilities[operands[nid]])
                )
            continue
        child_values = [
            values[child]
            for child in forest.children[
                forest.child_start[nid] : forest.child_end[nid]
            ]
        ]
        if op == OP_OR:
            alive = np.ones(n_sigma, dtype=np.float64)
            for q in child_values:
                alive *= 1.0 - q
            values[nid] = 1.0 - alive
        elif op == OP_AND:
            down = np.ones(n_sigma, dtype=np.float64)
            for q in child_values:
                down *= q
            values[nid] = down
        else:  # OP_KOFN: Poisson-binomial DP, threshold t, O(n * t).
            threshold = operands[nid]
            # dp[j] = P(exactly j of the children seen so far fired),
            # j < threshold; probability mass reaching the threshold is
            # accumulated in ``fired`` and never re-enters the DP.
            dp = np.zeros((threshold, n_sigma), dtype=np.float64)
            dp[0] = 1.0
            fired = np.zeros(n_sigma, dtype=np.float64)
            for q in child_values:
                fired += dp[threshold - 1] * q
                for j in range(threshold - 1, 0, -1):
                    dp[j] = dp[j] * (1.0 - q) + dp[j - 1] * q
                dp[0] = dp[0] * (1.0 - q)
            values[nid] = fired
    return Marginals(
        conditioned=tuple(conditioned), weights=weights, values=values
    )


#: Enumerations depend only on the bit count and the rows are immutable,
#: so one set per count serves every closure of that size (the plan-level
#: hot loop asks for the same few counts hundreds of times per search).
_ROWS_CACHE: dict[int, list[np.ndarray]] = {}


def enumeration_rows(bits: int) -> list[np.ndarray]:
    """Bit-packed failure rows enumerating every state of ``bits`` events.

    Row ``i`` (one per event) marks the "rounds" — all ``2**bits`` states,
    state ``s`` being round ``s`` — in which event ``i`` is failed:
    exactly those with bit ``i`` of ``s`` set. Rows use the
    ``np.packbits`` MSB-first layout of :class:`PackedBatch`, so they are
    drop-in leaf rows for :meth:`CompiledForest.evaluate` and
    :class:`~repro.routing.base.RoundStates`. The returned rows are
    read-only and shared across calls; do not mutate them.
    """
    cached = _ROWS_CACHE.get(bits)
    if cached is not None:
        return cached
    states = np.arange(1 << bits, dtype=np.int64)
    dense = ((states[np.newaxis, :] >> np.arange(bits)[:, np.newaxis]) & 1)
    packed = np.packbits(dense.astype(bool), axis=1)
    rows = []
    for i in range(bits):
        row = packed[i]
        row.flags.writeable = False
        rows.append(row)
    if len(_ROWS_CACHE) >= 32:
        _ROWS_CACHE.clear()
    _ROWS_CACHE[bits] = rows
    return rows


def enumeration_weights(probabilities: Sequence[float]) -> np.ndarray:
    """Exact probability of every enumerated state (same bit layout).

    ``probabilities[i]`` is event ``i``'s failure probability; the result
    has ``2**len(probabilities)`` entries summing to 1, entry ``s`` being
    the product of ``p_i`` over set bits and ``1 - p_i`` over clear bits
    — the independence factorisation the dagger samplers draw from.

    Built as the tensor product of per-event ``(1 - p, p)`` factors,
    doubling the vector once per event: bit ``i`` selects the high or low
    half of each ``2**(i+1)`` block, so appending event ``i``'s factor is
    one concatenate — total work O(2**n), not O(n * 2**n).
    """
    weights = np.ones(1, dtype=np.float64)
    for p in probabilities:
        p = float(p)
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    return weights


def exact_tree_probability(
    tree: "FaultTree",
    probabilities: Mapping[str, float],
) -> float:
    """Exact top-event probability of one fault tree.

    Compiles the tree into a throwaway single-subject forest and runs
    :func:`compute_marginals`. Unlike the ``2**n`` enumeration of
    ``tests/interpreted_oracle.py::exact_failure_probability``,
    repeated-free trees of any size are polynomial —
    a k-of-n fleet over hundreds of workers is exact via the
    Poisson-binomial DP — and trees with shared events stay exact up to
    :data:`MAX_SHARED_BITS` conditioning bits (:class:`ExactDeclined`
    beyond that).
    """
    events = sorted(tree.basic_events())
    arena = ComponentArena(events, (float(probabilities[e]) for e in events))
    forest = CompiledForest(arena)
    root = forest.ensure_subject(tree.subject_id, tree.root)
    marginals = compute_marginals(forest, arena.probabilities, [root])
    return marginals.marginal(root)
