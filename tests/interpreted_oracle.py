"""The interpreted assessment pipeline, kept as a differential oracle.

This is the dense column ``src/`` carried beside the compiled kernel until
it was deleted there: :class:`ZeroFill`, :func:`effective_states` and the
dense sample -> fault-tree -> route-and-check stages verbatim, with the
closure step of ``assess`` in front; ``forced`` pins components up or
down in place of their draws, the reference for a replaced row in
``repro.core.evaluation.scenario_states``. It is opened by reference samplers
and closed by a per-round, set-based §3.2.4 check, both written from the
paper's definitions rather than moved, so the whole reference shares no
stage with production: :func:`reference_sample`'s sparse draws ->
the recursive, vectorised fault-tree :func:`evaluate` -> the per-round
union-find's dense answers -> one fixed point per round. Its closure
step, :func:`string_closure`, is the set algebra the kernel's arena-mask
closure replaced; :func:`closure_ids` decodes an assessor's masks to the
same id sets. :func:`evaluate_round` is a tree's scalar, one-round
evaluation; :func:`exact_failure_probability` enumerates a tree's
basic-event states with it: the ground truth of the exact evaluator and
the samplers on small trees. :func:`reference_risk_report` and
:func:`reference_what_if` are the single-failure analysis the risk
module ran before its scenario batch: one fresh 1-round pipeline per
candidate. :func:`per_level_dagger_sample` and
:func:`dense_external_reachable` are the dense routines the one-pass
dagger draw and the failure-driven fat-tree blocks replaced.
"""

from __future__ import annotations

import copy
import hashlib
import math
from types import SimpleNamespace
from typing import AbstractSet, Callable, Iterable, Mapping

import numpy as np

from repro.app.structure import EXTERNAL
from repro.core.evaluation import StructureEvaluator
from repro.core.risk import RiskEntry
from repro.faults.component import link_id
from repro.faults.dependencies import DependencyModel
from repro.faults.faulttree import BasicEvent, FaultTree, FaultTreeNode, GateKind
from repro.routing.base import RoundStates, engine_for
from repro.sampling.statistics import estimate_from_results
from repro.util.errors import ConfigurationError
from tests.unionfind_oracle import UnionFindReachabilityEngine


# ---------------------------------------------------------------------------
# Reference samplers: Table 1 by the definitions of §3.2.1-§3.2.2
# ---------------------------------------------------------------------------


def monte_carlo_rounds(uniforms: np.ndarray, p: float) -> np.ndarray:
    """Monte-Carlo: one uniform per round, and ``r < p`` fails the round."""
    return np.flatnonzero(uniforms < p)


def dagger_rounds(uniforms: np.ndarray, p: float, rounds: int) -> np.ndarray:
    """Dagger (Fig. 3): cycles of ``s = floor(1/p)`` rounds back to back,
    one uniform per cycle. A uniform in the i-th subinterval of length
    ``p`` fails round i of its cycle; one in the remainder fails none."""
    s = math.floor(1.0 / p)
    start = np.arange(len(uniforms)) * s
    i = np.floor(uniforms / p).astype(np.int64)
    return (start + i)[(i < s) & (start + i < rounds)]


def extended_dagger_rounds(
    uniforms: np.ndarray, p: float, block: int, rounds: int
) -> np.ndarray:
    """Extended dagger (Fig. 4): time is cut into blocks of ``block`` rounds
    (the longest cycle in the call); inside a block the component's own
    cycles run back to back, the last one truncated at the block's end.
    Uniforms go block by block, cycle by cycle."""
    s = math.floor(1.0 / p)
    per_block = math.ceil(block / s)
    draw = np.arange(len(uniforms))
    in_block = draw % per_block * s
    start = draw // per_block * block + in_block
    i = np.floor(uniforms / p).astype(np.int64)
    return (start + i)[(i < s) & (in_block + i < block) & (start + i < rounds)]


def component_stream(master_seed: int, component_id: str, count: int) -> np.ndarray:
    """Common random numbers: the first ``count`` uniforms of a component's
    counter-based stream, in Python ints masked to 64 bits. The key is the
    little-endian 64-bit BLAKE2b of the id keyed by the master seed's
    shortest little-endian bytes (their BLAKE2b-512 past 64 bytes); the
    ``j``-th uniform (from 0) is the top 53 bits of SplitMix64's finaliser
    of ``key + (j + 1) * 0x9E3779B97F4A7C15``."""
    mask = (1 << 64) - 1
    seed = master_seed.to_bytes(max(1, (master_seed.bit_length() + 7) // 8), "little")
    if len(seed) > 64:
        seed = hashlib.blake2b(seed).digest()
    digest = hashlib.blake2b(component_id.encode("utf-8"), digest_size=8, key=seed)
    key = int.from_bytes(digest.digest(), "little")
    uniforms = []
    for j in range(count):
        z = (key + (j + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        uniforms.append((z >> 11) / (1 << 53))
    return np.array(uniforms, dtype=np.float64)


def reference_sample(
    sampler, probabilities: Mapping[str, float], rounds: int, rng
) -> dict[str, np.ndarray]:
    """Sorted failed rounds of every component that failed in some round,
    drawn by the reference of ``sampler``'s kind (only its name and
    master seed are read).

    Components with ``p = 0`` take no draw. Monte-Carlo draws components
    in mapping order; the dagger samplers group them by exact probability
    first (levels in order of first appearance, components in mapping
    order inside one), the order production lays a vectorised draw out
    in. CRN reads its private streams and leaves ``rng`` alone.
    """
    positive = {cid: p for cid, p in probabilities.items() if p > 0.0}
    failed = {}
    if sampler.name == "monte-carlo":
        for cid, p in positive.items():
            failed[cid] = monte_carlo_rounds(rng.random(rounds), p)
    elif sampler.name == "common-random-dagger":
        for cid, p in positive.items():
            cycles = math.ceil(rounds / math.floor(1.0 / p))
            uniforms = component_stream(sampler.master_seed, cid, cycles)
            failed[cid] = dagger_rounds(uniforms, p, rounds)
    else:
        levels: dict[float, list[str]] = {}
        for cid, p in positive.items():
            levels.setdefault(p, []).append(cid)
        longest = max((math.floor(1.0 / p) for p in levels), default=1)
        for p, ids in levels.items():
            for cid in ids:
                if sampler.name == "dagger":
                    cycles = math.ceil(rounds / math.floor(1.0 / p))
                    failed[cid] = dagger_rounds(rng.random(cycles), p, rounds)
                else:
                    assert sampler.name == "extended-dagger", sampler.name
                    draws = math.ceil(rounds / longest) * math.ceil(
                        longest / math.floor(1.0 / p)
                    )
                    failed[cid] = extended_dagger_rounds(
                        rng.random(draws), p, longest, rounds
                    )
    return {cid: hits for cid, hits in failed.items() if hits.size}


# ---------------------------------------------------------------------------
# Interpreted fault trees
# ---------------------------------------------------------------------------


def evaluate(tree: FaultTree, failed_states: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vectorised evaluation over rounds.

    ``failed_states`` maps component id -> boolean array (True where the
    component is failed). Returns a boolean array of the same length:
    True in rounds where the subject fails.
    """
    return _evaluate_node(tree.root, failed_states.__getitem__)


def _evaluate_node(
    node: FaultTreeNode, lookup: Callable[[str], np.ndarray]
) -> np.ndarray:
    if isinstance(node, BasicEvent):
        return np.asarray(lookup(node.component_id), dtype=bool)
    child_states = [_evaluate_node(child, lookup) for child in node.children]
    if node.kind is GateKind.OR:
        result = child_states[0].copy()
        for state in child_states[1:]:
            np.logical_or(result, state, out=result)
        return result
    if node.kind is GateKind.AND:
        result = child_states[0].copy()
        for state in child_states[1:]:
            np.logical_and(result, state, out=result)
        return result
    # K_OF_N: count firing children per round.
    counts = np.zeros_like(child_states[0], dtype=np.int32)
    for state in child_states:
        counts += state.astype(np.int32)
    return np.asarray(counts >= node.threshold)


def evaluate_round(tree: FaultTree, failed_components: AbstractSet[str]) -> bool:
    """Whether the subject fails in a round where exactly
    ``failed_components`` have failed (pure set/bool recursion)."""
    return _evaluate_node_scalar(tree.root, failed_components)


def _evaluate_node_scalar(node: FaultTreeNode, failed: AbstractSet[str]) -> bool:
    if isinstance(node, BasicEvent):
        return node.component_id in failed
    if node.kind is GateKind.OR:
        return any(_evaluate_node_scalar(child, failed) for child in node.children)
    if node.kind is GateKind.AND:
        return all(_evaluate_node_scalar(child, failed) for child in node.children)
    # K_OF_N: stop counting as soon as the threshold is reached.
    fired = 0
    for child in node.children:
        if _evaluate_node_scalar(child, failed):
            fired += 1
            if fired >= node.threshold:
                return True
    return False


def exact_failure_probability(
    tree: FaultTree, probabilities: Mapping[str, float]
) -> float:
    """Exact top-event probability by enumerating basic-event states.

    Exponential in the number of distinct basic events; intended for tests
    and micro-topologies only (the ground truth the samplers approximate).
    """
    events = sorted(tree.basic_events())
    if len(events) > 20:
        raise ConfigurationError(
            f"exact enumeration over {len(events)} events is intractable"
        )
    total = 0.0
    for mask in range(1 << len(events)):
        failed = {events[i] for i in range(len(events)) if mask >> i & 1}
        weight = 1.0
        for i, event in enumerate(events):
            p = probabilities[event]
            weight *= p if mask >> i & 1 else 1.0 - p
        if weight == 0.0:
            continue
        if evaluate_round(tree, failed):
            total += weight
    return total


# ---------------------------------------------------------------------------
# The dense pipeline
# ---------------------------------------------------------------------------


class ZeroFill(dict):
    """Dense-state mapping that treats absent components as never failed."""

    def __init__(self, rounds: int):
        super().__init__()
        self._zeros = np.zeros(rounds, dtype=bool)
        self._zeros.flags.writeable = False

    def __missing__(self, key: str) -> np.ndarray:
        return self._zeros


def effective_states(
    model: DependencyModel,
    subjects: Iterable[str],
    links: Iterable[str],
    dense: ZeroFill,
) -> dict[str, np.ndarray]:
    """Interpreted fault-tree reasoning and filtering (§3.2.3).

    ``dense`` holds the dense per-round failure vector of every sampled
    component that failed in some round (anything else reads as zeros).
    Returns the effective per-round failure vector of each subject, after
    reasoning over its fault tree, and of each raw element among
    ``links``, keeping only elements that fail in at least one round. The
    compiled counterpart is
    :meth:`repro.kernel.AssessmentKernel.effective_states`.
    """
    failed: dict[str, np.ndarray] = {}
    for subject in subjects:
        if dense.keys().isdisjoint(model.basic_events_of(subject)):
            continue  # nothing this subject depends on ever failed
        effective = evaluate(model.tree_for(subject), dense)
        if effective.any():
            failed[subject] = effective
    model.register_raw_elements(links, dense.get, failed)
    return failed


def _dense_answers(engine, rounds, failed, hosts, pairs):
    """Dense (external, pairwise) vectors: the union-find's own, or a
    production engine's through the pack/unpack door its contract names."""
    if isinstance(engine, UnionFindReachabilityEngine):
        states = SimpleNamespace(rounds=rounds, failed=failed)
        return engine.external_dense(states, hosts), engine.pairwise_dense(states, pairs)
    states = RoundStates(rounds, {cid: np.packbits(v) for cid, v in failed.items()})
    return tuple(
        {query: states.unpack(row) for query, row in answers.items()}
        for answers in (
            engine.external_reachable(states, hosts),
            engine.pairwise_reachable(states, pairs),
        )
    )


def reliable_rounds(structure, hosts, rounds, failed, external, pair) -> np.ndarray:
    """§3.2.4 by its definition, one round at a time; ``hosts`` maps each
    application component to its instances' hosts.

    An instance is active when its host is alive and every requirement of
    its component is served: an external one by a border switch reaching
    the host, an internal one by at least one active instance of the
    source that the host reaches (``pair`` holds a host's reach of itself
    too: its aliveness). Activity is the greatest such set — start from the alive instances and prune
    until nothing changes — and a round is reliable when every
    requirement ``(Ci, Cj, K)`` counts at least ``K`` active ``Ci``.
    """
    reliable = np.zeros(rounds, dtype=bool)
    for r in range(rounds):

        def served(host, requirement, active):
            if requirement.source == EXTERNAL:
                return bool(external[host][r])
            return any(
                (requirement.source, j) in active
                and pair[min(host, other), max(host, other)][r]
                for j, other in enumerate(hosts[requirement.source])
            )

        active = {
            (name, i)
            for name, placed in hosts.items()
            for i, host in enumerate(placed)
            if host not in failed or not failed[host][r]
        }
        while True:
            kept = {
                (name, i)
                for name, i in active
                if all(
                    served(hosts[name][i], requirement, active)
                    for requirement in structure.requirements_for(name)
                )
            }
            if kept == active:
                break
            active = kept
        reliable[r] = all(
            sum(name == requirement.component for name, _ in active)
            >= requirement.min_reachable
            for requirement in structure.requirements
        )
    return reliable


def string_closure(topology, model, engine, hosts) -> tuple[set[str], list[str]]:
    """``(subjects, sampled ids in sorted order)`` of some hosts: the
    closure as set algebra on component ids, the way the from-scratch
    assessor built it before the kernel's arena masks — the engine's
    relevant elements, plus every basic event their subjects' trees read
    — in the order it handed them to the sampler."""
    elements = set(engine.relevant_elements(hosts))
    subjects = elements & topology.elements
    sampled = set(model.basic_events_for(subjects)) | (elements - subjects)
    return subjects, sorted(sampled)


def closure_ids(assessor, plan) -> tuple[set[str], set[str]]:
    """``(subjects, sampled)`` of a plan's closure as id sets, decoded from
    a sampling assessor's arena masks."""
    subjects, sampled = assessor._closure_masks(plan)
    ids_in = assessor.kernel.arena.ids_in
    return set(ids_in(subjects)), set(ids_in(sampled))


def interpreted_assess(
    topology, model, plan, structure, rounds, sampler, rng,
    engine=None, sample_full_infrastructure=False, forced=None,
) -> tuple[np.ndarray, int]:
    """``(per-round reliable vector, sampled components)`` of one plan.

    ``engine`` names the closure and answers reachability: the per-round
    union-find by default, or a production engine to hold to this
    reference everything around it. ``sampler`` names the reference
    sampler (:func:`reference_sample`), which is handed the whole
    closure, never-failing components included, or with
    ``sample_full_infrastructure`` every component of the data center
    (Table 1's literal semantics). ``forced`` maps a component id to
    ``True`` (failed in every round) or ``False`` (in none), in place of
    its draws.
    """
    engine = engine or UnionFindReachabilityEngine(topology)
    all_probabilities = model.failure_probabilities()
    subjects, closure = string_closure(topology, model, engine, plan.hosts())
    sampled = set(closure)
    if sample_full_infrastructure:
        probabilities = all_probabilities
    else:
        probabilities = {cid: all_probabilities[cid] for cid in closure}

    drawn = reference_sample(sampler, probabilities, rounds, rng)
    dense = ZeroFill(rounds)
    for cid, failed_rounds in drawn.items():
        if cid in sampled:
            states = np.zeros(rounds, dtype=bool)
            states[failed_rounds] = True
            dense[cid] = states
    for cid, down in (forced or {}).items():
        if down:
            dense[cid] = np.ones(rounds, dtype=bool)
        else:
            dense.pop(cid, None)
    failed = effective_states(model, subjects, dense.keys() - subjects, dense)

    placed = {spec.name: plan.hosts_for(spec.name) for spec in structure.components}
    pairs = sorted(
        {
            (min(a, b), max(a, b))
            for requirement in structure.requirements
            if requirement.source != EXTERNAL
            for a in placed[requirement.component]
            for b in placed[requirement.source]
        }
    )
    hosts = sorted(set(plan.hosts()))
    external, pair = _dense_answers(engine, rounds, failed, hosts, pairs)
    per_round = reliable_rounds(structure, placed, rounds, failed, external, pair)
    return per_round, len(probabilities)


def assert_held_to_oracle(assessor, plans, structure) -> None:
    """Assess ``plans`` in order on a fresh production assessor and on its
    interpreted reference — same substrate, rounds, engine, sampler and
    seed: per-round vectors, estimates and
    ``sampled_components`` must be equal."""
    rng = copy.deepcopy(assessor.rng)
    for plan in plans:
        got = assessor.assess(plan, structure)
        per_round, sampled = interpreted_assess(
            assessor.topology, assessor.dependency_model, plan, structure,
            assessor.rounds, assessor.sampler, rng, assessor.engine,
        )
        assert np.array_equal(got.per_round, per_round), plan
        assert got.estimate == estimate_from_results(per_round), plan
        assert got.sampled_components == sampled, plan


# ---------------------------------------------------------------------------
# Single-failure risk, one candidate at a time
# ---------------------------------------------------------------------------


def _reference_active_counts(topology, model, plan, structure, subjects, failed):
    """Active instances per application component in the one round where
    exactly ``failed`` have failed: each closure subject's tree evaluated
    by :func:`evaluate_round`, anything else in the topology failing as
    itself."""
    failed_row = np.packbits([True])
    failed_states: dict[str, np.ndarray] = {}
    for subject in subjects:
        tree = model.tree_for(subject)
        if tree.basic_events() & failed:
            if evaluate_round(tree, failed):
                failed_states[subject] = failed_row
    for cid in failed:
        if cid in topology.components and cid not in failed_states:
            failed_states[cid] = failed_row
    states = RoundStates(1, failed_states)
    counts = StructureEvaluator(engine_for(topology)).counts(states, plan, structure)
    return {name: int(count[0]) for name, count in counts.items()}


def _reference_risk_closure(topology, model, plan) -> tuple[set[str], set[str]]:
    """(subjects, candidates) of a plan as id strings: the engine's
    relevant elements, plus every basic event their subjects' trees read."""
    elements = engine_for(topology).relevant_elements(plan.hosts())
    subjects = {cid for cid in elements if cid in topology.adjacency}
    return subjects, set(elements) | model.basic_events_for(subjects)


def reference_what_if(topology, model, plan, structure, failed_components):
    """``RiskAnalyzer.what_if`` as one fresh 1-round pipeline on one
    failure set."""
    subjects, _ = _reference_risk_closure(topology, model, plan)
    counts = _reference_active_counts(
        topology, model, plan, structure, subjects, frozenset(failed_components)
    )
    survives = all(
        counts[req.component] >= req.min_reachable for req in structure.requirements
    )
    return survives, counts


def reference_risk_report(topology, model, plan, structure) -> list[RiskEntry]:
    """``RiskAnalyzer.report`` as one fresh 1-round pipeline per candidate
    in sorted order, entries ranked the same way."""
    subjects, candidates = _reference_risk_closure(topology, model, plan)
    baseline = _reference_active_counts(
        topology, model, plan, structure, subjects, frozenset()
    )
    entries = []
    for cid in sorted(candidates):
        active = _reference_active_counts(
            topology, model, plan, structure, subjects, frozenset((cid,))
        )
        lost = 0
        degraded = []
        for name, count in active.items():
            delta = baseline[name] - count
            if delta > 0:
                degraded.append(name)
                lost += delta
        if lost == 0:
            continue
        down = any(
            active[req.component] < req.min_reachable for req in structure.requirements
        )
        component = model.component(cid)
        entries.append(
            RiskEntry(
                component_id=cid,
                component_type=component.component_type.value,
                failure_probability=component.failure_probability,
                instances_lost=lost,
                components_degraded=tuple(sorted(degraded)),
                application_down=down,
            )
        )
    entries.sort(
        key=lambda e: (e.application_down, e.expected_loss, e.instances_lost),
        reverse=True,
    )
    return entries


# ---------------------------------------------------------------------------
# The dense routines the failure-driven fast paths replaced
# ---------------------------------------------------------------------------


def per_level_dagger_sample(sampler, probabilities: Mapping[str, float], rounds: int, rng):
    """``DaggerSampler.sample`` as one loop over probability levels: each
    group a ``(components, draws)`` view of the one flat draw, turned into
    bit positions by broadcasting its cycle geometry. The one-pass
    production routine must give the same ids, matrix, ``nonzero`` and
    final rng state."""
    from repro.kernel.packed import PACK_DTYPE, PackedBatch, packed_width
    from repro.sampling.dagger import _BIT_OF, _cycle_geometry, dagger_cycle_length

    values = np.fromiter(probabilities.values(), dtype=np.float64, count=len(probabilities))
    positive = np.flatnonzero(values > 0.0)
    if not positive.size:
        return PackedBatch(rounds=rounds)
    levels, first, level_of, sizes = np.unique(
        values[positive], return_index=True, return_inverse=True, return_counts=True
    )
    by_appearance = np.argsort(first, kind="stable")
    group_of_level = np.empty_like(by_appearance)
    group_of_level[by_appearance] = np.arange(len(levels))
    order = np.argsort(group_of_level[level_of], kind="stable")
    all_ids = list(probabilities)
    ids = tuple(all_ids[i] for i in positive[order].tolist())
    longest = dagger_cycle_length(float(levels[0]))
    groups = [
        (p, count, *_cycle_geometry(p, rounds, sampler._block_length(p, longest))[1:])
        for p, count in zip(levels[by_appearance].tolist(), sizes[by_appearance].tolist())
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
    bit = bit[hit]
    mask = _BIT_OF[bit & 7]
    byte = bit >> 3
    matrix = np.zeros((len(ids), width), dtype=PACK_DTYPE)
    cells = matrix.reshape(-1)
    np.bitwise_or.at(cells, byte, mask)
    return PackedBatch(rounds=rounds, component_ids=ids, matrix=matrix, nonzero=nonzero)


def dense_external_reachable(engine, states: RoundStates, hosts) -> dict[str, np.ndarray]:
    """The fat-tree engine's external rows from dense blocks: every row of
    the core layer, of each host's pod and of its edge switch gathered
    into an alive matrix (absent = all ones) and AND / OR-reduced, whether
    anything in it fails or not. Reads ``engine``'s id layouts and caches
    nothing."""
    topo = engine.topology
    radix, width = topo.radix, states.width
    cells = radix * radix

    def alive_rows(ids):
        alive = np.zeros((len(ids), width), dtype=np.uint8)
        for i, cid in enumerate(ids):
            row = states.failed.get(cid)
            if row is not None:
                alive[i] = row
        return np.bitwise_not(alive, out=alive)

    alive = alive_rows(engine._core_layer)
    ext_core = (alive[:cells] & alive[cells : 2 * cells]).reshape(radix, radix, width)
    ext_core &= alive[2 * cells :, None, :]
    result = {}
    for host in hosts:
        edge = topo.edge_switch_of(host)
        alive = alive_rows(engine._pod_layer(topo.edge_pod[edge]))
        segments = alive[:cells].reshape(radix, radix, width) & ext_core
        agg_ext = np.bitwise_or.reduce(segments, axis=1) & alive[cells:]
        alive = alive_rows(engine._edge_layer(edge))
        row = np.bitwise_or.reduce(alive[:radix] & agg_ext, axis=0) & alive[radix]
        ends = alive_rows((host, link_id(host, edge)))
        result[host] = row & ends[0] & ends[1]
    return result
