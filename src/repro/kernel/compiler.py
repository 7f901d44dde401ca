"""Flattening fault-tree forests into non-recursive instruction programs.

The legacy evaluator walks one :class:`~repro.faults.faulttree.Gate`
object graph per subject per assessment — a recursive Python interpreter
re-dispatching on node types. The compiler replaces that with a flat
*program*: every distinct node of the whole forest becomes one
instruction ``(op, operand, child-span)`` in postorder (children always
precede parents), with child node-ids stored in one CSR-style table.

Structural hashing deduplicates common subtrees *across* subjects: the
shared dependency branches of Fig. 5 (a power supply feeding a whole
row, a cooling unit shared by racks) compile to a single node evaluated
once per assessment, no matter how many subjects' trees reference them.
Single-child gates collapse to their child and ``k``-of-``n`` gates with
``k == 1`` / ``k == n`` canonicalise to OR / AND at compile time — all
boolean-algebra identities, so evaluation results are unchanged.

Evaluation (:meth:`CompiledForest.evaluate`) is a single non-recursive
loop over the needed instructions, operating on bit-packed state rows.
``None`` is used as the canonical all-zero row: a leaf whose component
never failed is ``None``, and gates propagate it algebraically (OR skips
it, AND short-circuits to ``None``, k-of-n counts it as zero), so the
usual case — almost nothing failed — touches almost no bytes. This
mirrors exactly the legacy pipeline's "skip subjects whose events never
failed" and ``ZeroFill`` semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.faults.faulttree import BasicEvent, FaultTreeNode, Gate, GateKind
from repro.kernel.arena import ComponentArena
from repro.util.errors import ConfigurationError

#: Instruction opcodes.
OP_LEAF = 0
OP_OR = 1
OP_AND = 2
OP_KOFN = 3

OP_NAMES = {OP_LEAF: "leaf", OP_OR: "or", OP_AND: "and", OP_KOFN: "kofn"}


@dataclass(frozen=True)
class ForestStats:
    """Compile-time accounting, surfaced in benchmarks and ``repr``."""

    subjects: int
    nodes: int
    leaves: int
    gates: int
    dedup_hits: int


class CompiledForest:
    """A compiled fault-tree forest plus its non-recursive evaluator.

    Mutable: new subjects can be interned at any time via
    :meth:`ensure_subject` (node ids only ever grow, so values cached
    against old ids stay valid — the incremental engine leans on this).
    """

    def __init__(self, arena: ComponentArena):
        self.arena = arena
        # One instruction per node, parallel lists (plain Python lists:
        # the evaluator indexes them far more cheaply than 0-d numpy
        # scalars, and growth is O(1) appends).
        self.ops: list[int] = []
        self.operands: list[int] = []  # leaf: arena index; kofn: threshold
        self.child_start: list[int] = []
        self.child_end: list[int] = []
        self.children: list[int] = []  # CSR child table
        self.roots: dict[str, int] = {}  # subject id -> root node id
        self.subject_nodes: dict[str, list[int]] = {}  # ascending node ids
        self._interned: dict[tuple, int] = {}
        self._dedup_hits = 0

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def ensure_subject(self, subject_id: str, tree_root: FaultTreeNode) -> int:
        """Intern one subject's tree; idempotent per subject id.

        Not thread-safe (the kernel's lock serialises callers), but safe
        to read concurrently: ``roots[subject_id]``, what readers test,
        is published last, once everything it names is in place.
        """
        root = self.roots.get(subject_id)
        if root is not None:
            return root
        root = self._intern(tree_root)
        self.subject_nodes[subject_id] = self._descendants(root)
        self.roots[subject_id] = root
        return root

    def _intern(self, node: FaultTreeNode) -> int:
        if isinstance(node, BasicEvent):
            key = (OP_LEAF, self.arena.index_of(node.component_id))
            return self._emit(key, OP_LEAF, key[1], ())
        child_ids = tuple(self._intern(child) for child in node.children)
        if node.kind is GateKind.OR:
            op, operand = OP_OR, 0
        elif node.kind is GateKind.AND:
            op, operand = OP_AND, 0
        elif node.threshold == 1:
            # Canonicalise degenerate k-of-n gates to plain OR / AND.
            op, operand = OP_OR, 0
        elif node.threshold == len(child_ids):
            op, operand = OP_AND, 0
        else:
            op, operand = OP_KOFN, node.threshold
        if len(child_ids) == 1 and op != OP_KOFN:
            # or(x) == and(x) == 1-of-1(x) == x
            self._dedup_hits += 1
            return child_ids[0]
        # Child order does not change OR/AND/k-of-n semantics, but keep
        # it in the key so the program mirrors the source trees exactly.
        key = (op, operand, child_ids)
        return self._emit(key, op, operand, child_ids)

    def _emit(self, key: tuple, op: int, operand: int, child_ids: tuple) -> int:
        existing = self._interned.get(key)
        if existing is not None:
            self._dedup_hits += 1
            return existing
        node_id = len(self.ops)
        self.ops.append(op)
        self.operands.append(operand)
        self.child_start.append(len(self.children))
        self.children.extend(child_ids)
        self.child_end.append(len(self.children))
        self._interned[key] = node_id
        return node_id

    def _descendants(self, root: int) -> list[int]:
        """Ascending, deduplicated node ids needed to evaluate ``root``.

        Postorder interning guarantees every child id is smaller than its
        parent's, so ascending id order *is* a valid evaluation order.
        """
        seen: set[int] = set()
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.children[self.child_start[nid] : self.child_end[nid]])
        return sorted(seen)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluation_order(self, subject_ids: Iterable[str]) -> list[int]:
        """Ascending node ids needed to evaluate the given subjects.

        A pure function of the (compiled) subjects — callers that
        evaluate the same subject set every assessment cache this list
        and pass it to :meth:`evaluate` to skip the set algebra.
        """
        needed: set[int] = set()
        for subject in subject_ids:
            if subject not in self.roots:
                raise ConfigurationError(
                    f"subject {subject!r} was not compiled into the forest"
                )
            needed.update(self.subject_nodes[subject])
        return sorted(needed)

    def evaluate(
        self,
        subject_ids: Iterable[str],
        leaf_row: Callable[[int], np.ndarray | None],
        values: dict[int, np.ndarray | None] | None = None,
        order: list[int] | None = None,
    ) -> dict[str, np.ndarray | None]:
        """Evaluate several subjects' trees in one pass over the program.

        ``leaf_row`` maps an arena component index to that component's
        bit-packed failure row, or ``None`` when it never failed.
        ``values`` is the node-value cache; pass a persistent dict to
        reuse shared-subtree results across calls (the incremental
        engine does), or leave it ``None`` for a per-call scratch dict.
        ``order`` optionally supplies a precomputed
        :meth:`evaluation_order` for the same subjects. Returns, per
        subject, the packed effective-failure row or ``None`` for
        never-fails.
        """
        if values is None:
            values = {}
        subjects = list(subject_ids)
        if order is None:
            needed: set[int] = set()
            for subject in subjects:
                root = self.roots.get(subject)
                if root is None:
                    raise ConfigurationError(
                        f"subject {subject!r} was not compiled into the forest"
                    )
                if root not in values:
                    needed.update(
                        nid
                        for nid in self.subject_nodes[subject]
                        if nid not in values
                    )
            order = sorted(needed)

        ops, operands = self.ops, self.operands
        child_start, child_end, children = (
            self.child_start,
            self.child_end,
            self.children,
        )
        for nid in order:
            if nid in values:
                continue
            op = ops[nid]
            if op == OP_LEAF:
                values[nid] = leaf_row(operands[nid])
                continue
            rows = [
                values[child]
                for child in children[child_start[nid] : child_end[nid]]
            ]
            if op == OP_OR:
                # Copy-on-write: alias the first firing child, allocate a
                # fresh row only when a second one must be merged in.
                # Stored values are never mutated afterwards (every gate
                # that combines further allocates the same way), so the
                # aliasing is safe; rows are read-only by convention.
                result = None
                owned = False
                for row in rows:
                    if row is None:
                        continue
                    if result is None:
                        result = row
                    elif owned:
                        np.bitwise_or(result, row, out=result)
                    else:
                        result = np.bitwise_or(result, row)
                        owned = True
                values[nid] = result
            elif op == OP_AND:
                result = None
                owned = False
                for row in rows:
                    if row is None:
                        result = None
                        break
                    if result is None:
                        result = row
                    elif owned:
                        np.bitwise_and(result, row, out=result)
                    else:
                        result = np.bitwise_and(result, row)
                        owned = True
                values[nid] = result
            else:  # OP_KOFN
                threshold = operands[nid]
                firing = [row for row in rows if row is not None]
                if len(firing) < threshold:
                    values[nid] = None
                    continue
                counts = np.zeros(self._eval_rounds(firing[0]), dtype=np.int16)
                for row in firing:
                    counts += np.unpackbits(row, count=counts.size)
                dense = counts >= threshold
                values[nid] = np.packbits(dense) if dense.any() else None
        return {subject: values[self.roots[subject]] for subject in subjects}

    @staticmethod
    def _eval_rounds(row: np.ndarray) -> int:
        """Upper bound on rounds from a packed row's byte width.

        Pad bits of a failure row are always 0, so counting over the
        padded tail only appends rounds in which nothing fires — they are
        discarded whenever the row is unpacked with ``count=rounds``.
        """
        return row.size * 8

    # ------------------------------------------------------------------

    def stats(self) -> ForestStats:
        leaves = sum(1 for op in self.ops if op == OP_LEAF)
        return ForestStats(
            subjects=len(self.roots),
            nodes=len(self.ops),
            leaves=leaves,
            gates=len(self.ops) - leaves,
            dedup_hits=self._dedup_hits,
        )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<CompiledForest: {s.subjects} subjects, {s.nodes} nodes "
            f"({s.leaves} leaves), {s.dedup_hits} dedup hits>"
        )
