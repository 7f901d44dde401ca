"""Fault trees with AND / OR / k-of-n gates (§3.2.3, Fig. 5).

reCloud builds a fault tree for each host's and switch's dependencies:
the element fails if its own hardware fails OR any of its single points of
failure fail OR all members of a redundant group fail (AND gate). Trees of
different elements are implicitly connected whenever they reference the
same underlying component (e.g. a power supply shared by a whole row).

This module only describes trees. Every evaluation runs compiled,
every round at once (:mod:`repro.kernel.compiler`): sampled rounds in an
assessment, enumerated states in the analytic assessor, and one round
per single-failure scenario in the risk analysis (:mod:`repro.core.risk`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.util.errors import ConfigurationError


class GateKind(enum.Enum):
    """Logical gate kinds supported in fault trees."""

    OR = "or"  # fails if ANY child fails
    AND = "and"  # fails only if ALL children fail (redundant group)
    K_OF_N = "k_of_n"  # fails if at least k children fail


@dataclass(frozen=True, slots=True)
class BasicEvent:
    """A leaf of a fault tree: the failure of one underlying component."""

    component_id: str

    def __str__(self) -> str:
        return self.component_id


@dataclass(frozen=True, slots=True)
class Gate:
    """An internal fault-tree node combining children with a logical gate.

    ``threshold`` is only meaningful for ``K_OF_N`` gates, where the gate
    fires when at least ``threshold`` children have fired.
    """

    kind: GateKind
    children: tuple["FaultTreeNode", ...]
    threshold: int = 0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.children:
            raise ConfigurationError("a gate must have at least one child")
        if self.kind is GateKind.K_OF_N:
            if not 1 <= self.threshold <= len(self.children):
                raise ConfigurationError(
                    f"k-of-n threshold {self.threshold} must be in "
                    f"[1, {len(self.children)}]"
                )

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.children)
        if self.kind is GateKind.K_OF_N:
            return f"{self.kind.value}({self.threshold}; {inner})"
        return f"{self.kind.value}({inner})"


FaultTreeNode = BasicEvent | Gate


def or_gate(*children: FaultTreeNode, label: str = "") -> Gate:
    """Gate that fires if any child fires (single points of failure)."""
    return Gate(GateKind.OR, tuple(children), label=label)


def and_gate(*children: FaultTreeNode, label: str = "") -> Gate:
    """Gate that fires only if every child fires (redundant group)."""
    return Gate(GateKind.AND, tuple(children), label=label)


def k_of_n_gate(threshold: int, *children: FaultTreeNode, label: str = "") -> Gate:
    """Gate that fires when at least ``threshold`` children fire."""
    return Gate(GateKind.K_OF_N, tuple(children), threshold=threshold, label=label)


def basic(component_id: str) -> BasicEvent:
    """Leaf referencing a component by id."""
    return BasicEvent(component_id)


@dataclass(frozen=True)
class FaultTree:
    """A complete fault tree for one network element.

    ``subject_id`` names the host/switch the tree belongs to; ``root`` is
    the top gate (typically an OR over the element's own hardware failure
    and its dependency branches, as in Fig. 5 of the paper).
    """

    subject_id: str
    root: FaultTreeNode

    def basic_events(self) -> frozenset[str]:
        """All component ids referenced by the tree's leaves."""
        return frozenset(event.component_id for event in iter_basic_events(self.root))

    def depth(self) -> int:
        """Height of the tree (a lone basic event has depth 1)."""
        return _node_depth(self.root)

    def __str__(self) -> str:
        return f"FaultTree({self.subject_id}: {self.root})"


def iter_basic_events(node: FaultTreeNode) -> Iterator[BasicEvent]:
    """Yield every basic event in the subtree rooted at ``node``."""
    stack: list[FaultTreeNode] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, BasicEvent):
            yield current
        else:
            stack.extend(current.children)


def _node_depth(node: FaultTreeNode) -> int:
    if isinstance(node, BasicEvent):
        return 1
    return 1 + max(_node_depth(child) for child in node.children)


def trivial_tree(subject_id: str) -> FaultTree:
    """The degenerate tree used when an element has no known dependencies.

    The element fails exactly when its own component fails — this is the
    limited-dependency-information mode of §3.4.
    """
    return FaultTree(subject_id=subject_id, root=basic(subject_id))


def merge_shared_events(trees: Sequence[FaultTree]) -> frozenset[str]:
    """Component ids referenced by more than one tree (shared dependencies).

    These are exactly the components whose failure produces *correlated*
    failures across subjects — the situation reCloud is built to avoid.
    """
    seen: dict[str, int] = {}
    for tree in trees:
        for event in tree.basic_events():
            seen[event] = seen.get(event, 0) + 1
    return frozenset(cid for cid, count in seen.items() if count > 1)
