"""Shared-dependency model: fault trees attached to network elements.

A :class:`DependencyModel` pairs a topology's network elements with the
fault trees describing everything else they depend on — power supplies,
cooling systems, operating systems, libraries, firmware (§3.2.3). Trees of
different elements are connected simply by referencing the same dependency
component id, which is exactly how correlated failures arise: when a shared
dependency fails, every element whose tree references it fails together.

The model is additive: builders in :mod:`repro.faults.inventory` attach one
kind of dependency at a time, and the assessment layer only ever asks two
questions — "which components must be sampled for these subjects?" and
"given sampled failure states, in which rounds does each subject fail?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.faults.component import Component
from repro.faults.faulttree import (
    FaultTree,
    FaultTreeNode,
    Gate,
    GateKind,
    basic,
    merge_shared_events,
    or_gate,
    trivial_tree,
)
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology uses faults)
    from repro.topology.base import Topology


@dataclass
class DependencyModel:
    """Dependency components and per-subject fault trees for one topology.

    Attributes:
        topology: The topology the model annotates.
        dependency_components: Dependency components by id (power supplies,
            cooling units, software, ...). Disjoint from the topology's own
            components.
        trees: Fault tree per subject (host/switch) id. Subjects without an
            entry implicitly use the trivial tree "subject fails iff its own
            component fails" (§3.4's limited-information behaviour).
    """

    topology: Topology
    dependency_components: dict[str, Component] = field(default_factory=dict)
    trees: dict[str, FaultTree] = field(default_factory=dict)
    #: Per-subject basic-event memo. Closure computation is on the search
    #: hot path (every candidate plan reads the events of ~dozens of
    #: subjects), so the per-subject event sets are cached and invalidated
    #: whenever a branch is attached to the subject's tree.
    _events_memo: dict[str, frozenset[str]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: ``(ids, index)`` of the compiled kernel's component arena — a pure
    #: function of the component set, so interned once per model
    #: (:meth:`repro.kernel.arena.ComponentArena.for_model`).
    _interned: tuple | None = field(default=None, repr=False, compare=False)
    #: Moves on every change to the model's components, trees or
    #: probabilities; see :attr:`generation`.
    _generation = 0
    #: The substrate's compiled kernel (:meth:`repro.kernel.AssessmentKernel.of`).
    _kernel = None

    @property
    def generation(self) -> tuple[int, int]:
        """The substrate version: (topology's, model's own) generation.

        An O(1) key for everything compiled from (topology, dependency
        model, probabilities). It moves on
        :meth:`~repro.topology.base.Topology.override_probabilities`,
        :meth:`override_probabilities`, :meth:`add_dependency_component`
        and :meth:`attach_branch`, the only ways to change the substrate.
        """
        return (self.topology.generation, self._generation)

    @classmethod
    def empty(cls, topology: Topology) -> "DependencyModel":
        """A model with no dependency information at all (§3.4)."""
        return cls(topology=topology)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_dependency_component(self, component: Component) -> None:
        """Register a dependency component, rejecting id collisions."""
        cid = component.component_id
        if cid in self.topology:
            raise ConfigurationError(
                f"{cid!r} is already a network component of the topology"
            )
        existing = self.dependency_components.get(cid)
        if existing is not None and existing != component:
            raise ConfigurationError(f"conflicting definitions for dependency {cid!r}")
        self.dependency_components[cid] = component
        self._interned = None
        self._generation += 1

    def attach_branch(self, subject_id: str, branch: FaultTreeNode) -> None:
        """OR a new dependency branch into ``subject_id``'s fault tree.

        The subject's tree always contains its own basic event (the element
        can fail by itself); each attached branch adds one more way for the
        subject to fail, mirroring the OR gate at the top of Fig. 5.
        """
        if subject_id not in self.topology:
            raise ConfigurationError(f"unknown subject {subject_id!r}")
        current = self.trees.get(subject_id)
        if current is None:
            root = or_gate(basic(subject_id), branch, label=f"{subject_id} fails")
        elif isinstance(current.root, Gate) and current.root.kind is GateKind.OR:
            children = tuple(current.root.children) + (branch,)
            root = Gate(GateKind.OR, children, label=f"{subject_id} fails")
        else:
            root = or_gate(current.root, branch, label=f"{subject_id} fails")
        self.trees[subject_id] = FaultTree(subject_id=subject_id, root=root)
        self._events_memo.pop(subject_id, None)
        self._generation += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tree_for(self, subject_id: str) -> FaultTree:
        """The subject's fault tree (trivial when nothing was attached)."""
        tree = self.trees.get(subject_id)
        if tree is not None:
            return tree
        if subject_id not in self.topology:
            raise ConfigurationError(f"unknown subject {subject_id!r}")
        return trivial_tree(subject_id)

    def component(self, component_id: str) -> Component:
        """Look up a component in the model or the underlying topology."""
        dependency = self.dependency_components.get(component_id)
        if dependency is not None:
            return dependency
        return self.topology.component(component_id)

    def failure_probabilities(self) -> dict[str, float]:
        """Probabilities for every network + dependency component."""
        probabilities = self.topology.failure_probabilities()
        for cid, component in self.dependency_components.items():
            probabilities[cid] = component.failure_probability
        return probabilities

    def override_probabilities(self, overrides: Mapping[str, float]) -> None:
        """Replace failure probabilities of dependency and/or network
        components (degradation events, chaos injections, what-ifs).

        Structure is untouched, so attached trees stay valid. Moves
        :attr:`generation`: assessors built afterwards (every search's
        incremental assessor among them) get a kernel compiled against
        the new probabilities, and a live from-scratch assessor fetches
        it on ``refresh_probabilities()``. The search's symmetry screen
        follows on its own.
        """
        network = {}
        for cid, probability in overrides.items():
            existing = self.dependency_components.get(cid)
            if existing is not None:
                self.dependency_components[cid] = existing.with_probability(probability)
            else:
                network[cid] = probability
        if network:
            self.topology.override_probabilities(network)
        self._generation += 1

    def basic_events_for(self, subject_ids: Iterable[str]) -> frozenset[str]:
        """Every component id the given subjects' trees can read.

        This is the sampling *closure* for those subjects: restricting
        failure-state generation to this set leaves the joint distribution
        over everything route-and-check reads unchanged, because components
        fail independently.
        """
        events: set[str] = set()
        for subject_id in subject_ids:
            events.update(self.basic_events_of(subject_id))
        return frozenset(events)

    def basic_events_of(self, subject_id: str) -> frozenset[str]:
        """Memoized basic events of one subject's tree (O(delta) closures).

        The memo entry is dropped when :meth:`attach_branch` modifies the
        subject's tree, so builders can keep adding dependencies safely.
        """
        events = self._events_memo.get(subject_id)
        if events is None:
            events = self.tree_for(subject_id).basic_events()
            self._events_memo[subject_id] = events
        return events

    def shared_dependencies(self) -> frozenset[str]:
        """Components referenced by the trees of 2+ subjects.

        Failures of these produce correlated subject failures.
        """
        return merge_shared_events(list(self.trees.values()))

    def register_raw_elements(
        self, candidates: Iterable[str], state_of, failed: dict
    ) -> None:
        """Filter step for elements that have no fault tree (§3.2.3).

        A topology component without a tree — links, mostly — fails
        exactly when its own sampled event does, so its effective state is
        its sampled state: ``failed[cid] = state_of(cid)`` for every such
        candidate whose ``state_of`` is not ``None`` (``None`` = never
        failed), whatever the state representation.
        """
        trees = self.trees
        components = self.topology.components
        for cid in candidates:
            if cid in trees or cid not in components:
                continue
            state = state_of(cid)
            if state is not None:
                failed[cid] = state

    def dependency_count(self) -> int:
        """Number of dependency components registered with the model."""
        return len(self.dependency_components)

    def __repr__(self) -> str:
        return (
            f"<DependencyModel on {self.topology.name!r}: "
            f"{len(self.dependency_components)} dependencies, "
            f"{len(self.trees)} annotated subjects>"
        )
