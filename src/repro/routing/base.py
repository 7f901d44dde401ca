"""Route-and-check interfaces (§3.2.1, Fig. 2).

Given per-round failure states of every network element (after fault-tree
reasoning), a reachability engine answers, per round and vectorised over
all rounds at once:

* *external reachability* — is host ``h`` reachable from **any** alive
  border switch? (the K-of-N aliveness criterion), and
* *pairwise reachability* — can host ``a`` reach host ``b``? (needed for
  complex application structures, §3.2.4).

Reachability follows the deployment architecture's routing protocol; for
a fat-tree that means up-down (valley-free) paths. Swapping the data-center
architecture only swaps the engine, exactly as §3.2.1 prescribes.

States are passed as a :class:`RoundStates` wrapper over bit-packed failure
rows. Elements absent from the mapping never fail, which keeps the
common case (links with failure probability 0) free.

**Engine contract.** An engine receives packed rows and returns packed
rows; one that must read individual rounds calls ``states.unpack(row)`` on
what it reads and ``np.packbits`` on what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.topology.base import Topology
from repro.util.errors import ConfigurationError


@dataclass
class RoundStates:
    """Effective per-round failure states of network elements and links.

    ``failed`` maps element/link component ids to ``np.packbits`` rows
    (``uint8``, 8 rounds per byte, MSB-first; a set bit = failed in that
    round). Ids missing from the mapping are treated as always alive. For
    hosts and switches these are the *effective* states produced by
    fault-tree reasoning (§3.2.3), not the raw sampled states of the
    element's own hardware.

    Alive masks are bitwise complements, so the pad bits of the last byte
    read "alive" — harmless, because every consumer unpacks with
    ``count=rounds``, which drops them. Inverted alive rows are memoized
    per component: engines ask for the same few masks over and over while
    assembling path segments, which they keep in ``segments`` under
    their own keys: everything an engine caches per states lives there.
    The fat-tree engine keeps ``"core_block"`` (per group, its cells'
    failed rows and its dead row), ``("pod_block", pod)`` (per group, the
    failed rows OR-ing to its aggregation switch's dead row, and their AND
    over the groups) and ``("edge_row", edge)`` (the edge switch's dead
    row), each ``None`` where nothing fails; the leaf-spine engine one
    external row per spine and per leaf; the generic engine, under its own instance,
    ``(len(failed), {source: reach})``: the border switches' reach matrix
    (source ``None``) and one per pair source. The structure evaluator
    keeps ``"settled"``: per ``(host, needs external)``, an instance's
    settled row, packed and unpacked. Each entry is built when
    first needed and stays valid because ``failed`` only ever gains rows,
    never rewrites them.
    """

    rounds: int
    failed: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {self.rounds}")
        self._alive_cache: dict[str, np.ndarray] = {}
        self.segments: dict = {}

    # -- row geometry -----------------------------------------------------

    @property
    def width(self) -> int:
        """Length of one packed row in bytes."""
        return (self.rounds + 7) // 8

    def zeros(self) -> np.ndarray:
        """A fresh all-clear ("never alive" / "never failed") row."""
        return np.zeros(self.width, dtype=np.uint8)

    def materialize(self, mask: np.ndarray | None, alive: bool = True) -> np.ndarray:
        """Expand a possibly-``None`` mask into a concrete row."""
        if mask is None:
            return np.full(self.width, 0xFF if alive else 0x00, dtype=np.uint8)
        return mask

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """Dense boolean per-round view of one packed row, or of a matrix
        of them along its last axis."""
        return np.unpackbits(rows, axis=-1, count=self.rounds).view(bool)

    # -- state queries ---------------------------------------------------

    def alive_mask(self, component_id: str) -> np.ndarray | None:
        """Packed per-round alive row, or ``None`` when always alive."""
        cached = self._alive_cache.get(component_id)
        if cached is not None:
            return cached
        failed = self.failed.get(component_id)
        if failed is None:
            return None
        cached = np.invert(failed)
        cached.flags.writeable = False
        self._alive_cache[component_id] = cached
        return cached


def all_alive(states: RoundStates, component_ids: Iterable[str]) -> np.ndarray | None:
    """AND of the alive rows of several elements (None = always alive).

    Returned arrays may alias a mask owned by ``states`` — treat them as
    read-only (as :func:`any_path` and the engines' combine helpers do).
    """
    result: np.ndarray | None = None
    owned = False
    for cid in component_ids:
        mask = states.alive_mask(cid)
        if mask is None:
            continue
        if result is None:
            result = mask
        elif owned:
            np.bitwise_and(result, mask, out=result)
        else:
            result = np.bitwise_and(result, mask)
            owned = True
    return result


def any_path(
    paths: Sequence[np.ndarray | None], states: RoundStates
) -> np.ndarray | None:
    """OR of per-path alive rows of ``states``.

    ``None`` entries mean "that path is always available", so the result is
    also ``None`` (always reachable). An empty sequence means no path
    exists: an all-clear row.
    """
    if any(path is None for path in paths):
        return None
    if not paths:
        return states.zeros()
    result = paths[0]
    owned = False
    for path in paths[1:]:
        if owned:
            np.bitwise_or(result, path, out=result)
        else:
            result = np.bitwise_or(result, path)
            owned = True
    return result


class ReachabilityEngine:
    """Architecture-specific route-and-check."""

    def __init__(self, topology: Topology):
        self.topology = topology

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        """Per host: packed row, set in rounds where the host is alive and
        reachable from at least one alive border switch."""
        raise NotImplementedError

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        """Per host pair: packed row, set in rounds where both hosts are
        alive and a routed path exists between them."""
        raise NotImplementedError

    def relevant_layers(
        self, host: str
    ) -> tuple[tuple[object, Iterable[str]], ...]:
        """Every element/link id this engine may read for ``host``, as
        ``(key, ids)`` layers: the one closure API an engine implements.

        Components outside it cannot change a reachability answer for the
        host, so they need no failure states (components fail
        independently: sampling only the closure draws from the same
        joint distribution over what is read). Layers with equal keys, of
        any hosts, hold equal ids, so
        :meth:`~repro.kernel.AssessmentKernel.closure_masks` keeps a
        shared layer (a fabric's core, a pod; the whole data center) once
        per engine; the layer keyed by the host itself is not kept.
        """
        raise NotImplementedError

    def relevant_elements(self, hosts: Sequence[str]) -> set[str]:
        """Every element/link id this engine may read for these hosts: the
        union of their :meth:`relevant_layers`."""
        layers = {}
        for host in hosts:
            layers.update(self.relevant_layers(host))
        return set().union(*layers.values())


def engine_for(topology: Topology) -> ReachabilityEngine:
    """The topology's one engine, built on first need.

    Fat-trees and leaf-spines get their vectorised up-down engines; any
    other architecture falls back to the generic connectivity engine. An
    engine keeps id layouts of the frozen topology only (per-states
    caches live on :class:`RoundStates`), so every assessor, search and
    thread on the topology shares it, and with it the kernel's closure
    layers.
    """
    if "_engine" in topology.__dict__:
        return topology._engine
    # Imported here to avoid a routing <-> topology import cycle at load time.
    from repro.routing.fattree_fast import FatTreeReachabilityEngine
    from repro.routing.generic import GenericReachabilityEngine
    from repro.routing.leafspine_fast import LeafSpineReachabilityEngine
    from repro.topology.fattree import FatTreeTopology
    from repro.topology.leafspine import LeafSpineTopology

    if isinstance(topology, FatTreeTopology):
        engine = FatTreeReachabilityEngine(topology)
    elif isinstance(topology, LeafSpineTopology):
        engine = LeafSpineReachabilityEngine(topology)
    else:
        engine = GenericReachabilityEngine(topology)
    return topology.__dict__.setdefault("_engine", engine)
