"""Compiled assessment kernel: integer arenas, packed states, flat programs.

The per-assessment hot path — sample, fault-tree reasoning, route and
check — runs on integer-indexed numpy kernels, the one representation
every assessor uses:

* :class:`~repro.kernel.arena.ComponentArena` interns component ids to
  dense ``int32`` indices, built once per (topology, dependency model);
* every sampler draws the paper's Table 1 once, straight into a
  bit-packed ``(components x rounds)`` state matrix
  (:class:`~repro.kernel.packed.PackedBatch`), through its one
  ``Sampler.sample``;
* :class:`~repro.kernel.compiler.CompiledForest` flattens the whole
  forest into one postorder instruction program with shared subtrees
  deduplicated, evaluated by a non-recursive loop;
* the packed states flow into routing and structure evaluation as
  bitwise AND/OR on ``uint8`` rows
  (:class:`~repro.routing.base.RoundStates`), unpacking only at the
  estimate boundary.

The reference it is held to is ``tests/interpreted_oracle.py``: its own
per-component reference samplers, recursive ``FaultTree.evaluate``, a
per-round union-find and a per-round structure check, bit for bit.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.kernel.arena import ComponentArena
from repro.kernel.compiler import CompiledForest, ForestStats
from repro.kernel.exact import (
    ExactDeclined,
    Marginals,
    compute_marginals,
    enumeration_rows,
    enumeration_weights,
    exact_tree_probability,
)
from repro.kernel.packed import PACK_DTYPE, PackedBatch, packed_width

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.dependencies import DependencyModel
    from repro.routing.base import ReachabilityEngine
    from repro.topology.base import Topology
    from repro.util.metrics import MetricsRegistry

__all__ = [
    "PACK_DTYPE",
    "AssessmentKernel",
    "ComponentArena",
    "CompiledForest",
    "ExactDeclined",
    "ForestStats",
    "Marginals",
    "PackedBatch",
    "compute_marginals",
    "enumeration_rows",
    "enumeration_weights",
    "exact_tree_probability",
    "packed_width",
]


#: The kernels' lock: held to grow a forest or a symmetry table and to
#: build a substrate's kernel. One for every kernel in the process (a warm
#: substrate compiles nothing), and held across ``fork``, so a forked pool
#: worker never inherits a forest half-way through an append.
_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_LOCK.acquire, after_in_parent=_LOCK.release, after_in_child=_LOCK.release
    )


class AssessmentKernel:
    """Compiled state for one (topology, dependency model) substrate at one
    :attr:`~repro.faults.dependencies.DependencyModel.generation`.

    Owns the component arena with its ``probabilities`` (read once; the
    samplers only read them), the growing compiled forest, the closure
    layer memo (weak by engine, so a caller's own engine dies with its
    assessor), the evaluation order memo and ``symmetry_tables``, the
    :class:`~repro.core.transforms.BatchSymmetryFilter` interned ids,
    host-group table and group labels. Every entry is a pure function of the
    substrate, so the one kernel :meth:`of` returns is shared by every
    assessor and search on it, in any order and from any thread;
    per-assessment scratch lives in the caller.
    """

    def __init__(self, topology: "Topology", dependency_model: "DependencyModel"):
        self.topology = topology
        self.dependency_model = dependency_model
        self.generation = dependency_model.generation
        self.probabilities = dependency_model.failure_probabilities()
        self.arena = ComponentArena.for_model(dependency_model, self.probabilities)
        #: The mask of the components that can fail: nothing else is drawn.
        self.positive = self.arena.mask_of_indices(
            np.flatnonzero(self.arena.probabilities > 0.0)
        )
        self.forest = CompiledForest(self.arena)
        self.lock = _LOCK
        # engine -> layer key -> (subjects, sampled) masks; weak by engine
        self._layer_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # frozenset(subjects) -> evaluation order, for the last few
        # subject sets: what repeats is one plan's closure assessed piece
        # by piece; the incremental universe hands in deltas that never
        # do, and a ~10 KiB order per cold plan is memory that grows.
        self._order_by_content: dict[frozenset, list[int]] = {}
        self.symmetry_tables: tuple[dict, dict, dict] = ({}, {}, {})

    @classmethod
    def of(
        cls, dependency_model: "DependencyModel", metrics: "MetricsRegistry | None" = None
    ) -> "AssessmentKernel":
        """The substrate's kernel at its current generation: the one way
        an assessor gets a kernel. Built on the first call after the
        generation moved, returned as is on every other."""
        kernel = dependency_model._kernel
        hit = kernel is not None and kernel.generation == dependency_model.generation
        if not hit:
            with _LOCK:
                kernel = dependency_model._kernel
                if kernel is None or kernel.generation != dependency_model.generation:
                    kernel = cls(dependency_model.topology, dependency_model)
                    dependency_model._kernel = kernel
        if metrics is not None:
            metrics.incr("kernel/substrate/hit" if hit else "kernel/substrate/miss")
        return kernel

    # ------------------------------------------------------------------
    # Relevant closure
    # ------------------------------------------------------------------

    def closure_masks(
        self,
        engine: "ReachabilityEngine",
        hosts: Sequence[str],
        metrics: "MetricsRegistry | None" = None,
        host_memo: dict[str, tuple[int, int]] | None = None,
    ) -> tuple[int, int]:
        """The hosts' (subjects, sampled) closure as arena bitmasks: the
        subjects whose trees get evaluated, and with them the links and
        every event those trees read. Both halves distribute over hosts
        and over ``engine.relevant_layers``, so a closure is an OR of
        layer masks. Shared layers are built once per engine and kept; a
        host's own few bits are not (random plans reach every host), and
        ``host_memo`` keeps whole hosts for a caller that revisits them.
        """
        layers = self._layer_memo.setdefault(engine, {})
        memo = {} if host_memo is None else host_memo
        known = len(memo)
        subjects = sampled = lookups = misses = 0
        for host in hosts:
            masks = memo.get(host)
            if masks is None:
                masks = (0, 0)
                for key, ids in engine.relevant_layers(host):
                    if key == host:
                        layer = self._masks_of(ids)
                    else:
                        lookups += 1
                        layer = layers.get(key)
                        if layer is None:
                            misses += 1
                            layer = layers[key] = self._masks_of(ids)
                    masks = (masks[0] | layer[0], masks[1] | layer[1])
                memo[host] = masks
            subjects |= masks[0]
            sampled |= masks[1]
        if metrics is not None:
            metrics.incr("closure/layer/hit", lookups - misses)
            metrics.incr("closure/layer/miss", misses)
            if host_memo is not None:
                built = len(memo) - known
                metrics.incr("closure/host/hit", len(hosts) - built)
                metrics.incr("closure/host/miss", built)
        return subjects, sampled

    def _masks_of(self, ids: Iterable[str]) -> tuple[int, int]:
        """(subjects, sampled) masks of one closure layer's element ids."""
        subjects = self.topology.elements.intersection(ids)
        sampled = self.dependency_model.basic_events_for(subjects).union(
            cid for cid in ids if cid not in subjects
        )
        return self.arena.mask_of(subjects), self.arena.mask_of(sampled)

    # ------------------------------------------------------------------
    # Fault-tree reasoning
    # ------------------------------------------------------------------

    def compile_subjects(
        self, subject_ids: Collection[str], metrics: "MetricsRegistry | None" = None
    ) -> None:
        """Intern any new subjects' trees into the shared forest, under
        :attr:`lock`: readers never take it (a subject is published only
        once compiled, see :meth:`CompiledForest.ensure_subject`)."""
        roots = self.forest.roots
        new = [subject for subject in subject_ids if subject not in roots]
        if new:
            with self.lock:
                for subject in new:
                    tree = self.dependency_model.tree_for(subject)
                    self.forest.ensure_subject(subject, tree.root)
        if metrics is not None:
            metrics.incr("kernel/subject/miss", len(new))
            metrics.incr("kernel/subject/hit", len(subject_ids) - len(new))

    def effective_states(
        self,
        subjects: Iterable[str],
        links: Iterable[str],
        rows: Mapping[str, np.ndarray | None],
        values: dict[int, np.ndarray | None] | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> dict[str, np.ndarray]:
        """Packed effective per-round failure rows after fault-tree reasoning.

        The "reason over each subject's tree, then register failing raw
        elements" stage (§3.2.3), for every backend:
        ``rows`` maps a component id to its packed failure row (absent or
        ``None`` = never failed) — a sampled batch, the incremental
        universe's rows, an exact state enumeration — and ``values`` is an
        optional node-value cache to keep across calls over the same
        rows. ``links`` may name subjects and dependency events as well,
        so a caller can hand in ``rows`` itself: the filter skips events
        and subjects with a tree, and a subject without one fails exactly
        when its own event does. Returns a mapping from element id to
        packed failure row containing only elements that fail in at least
        one round (absent == always alive, the :class:`RoundStates`
        convention). ``metrics`` counts the subjects compiled.
        """
        content_key = frozenset(subjects)
        order = self._order_by_content.get(content_key)
        if order is None:
            self.compile_subjects(content_key, metrics)
            order = self.forest.evaluation_order(content_key)
            if len(self._order_by_content) >= 8:
                self._order_by_content.clear()
            self._order_by_content[content_key] = order
        row_of, ids = rows.get, self.arena.ids
        effective = self.forest.evaluate(
            content_key, lambda op: row_of(ids[op]), values, order=order
        )
        failed: dict[str, np.ndarray] = {
            subject: row for subject, row in effective.items() if row is not None
        }
        self.dependency_model.register_raw_elements(links, row_of, failed)
        return failed

    def __repr__(self) -> str:
        return (
            f"<AssessmentKernel on {self.topology.name!r}: "
            f"{len(self.arena)} components, {self.forest.stats()}>"
        )
