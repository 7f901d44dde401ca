"""The per-call bodies a search candidate's lean kernels replaced, kept
verbatim as differential oracles; each production kernel must give the
same bits.

* :func:`int64_counts`: ``StructureEvaluator.counts``' reduction, the
  unpacked activity summed in int64 (production sums in the narrowest
  unsigned type that holds the instance count, then widens once).
* :func:`fixed_point_counts`: ``StructureEvaluator.counts`` before the
  settle step: every instance's alive row stacked per component, EXTERNAL
  rows ANDed in by the sweep, and the greatest fixed point run over every
  component (production settles each instance once, keeps the row on the
  states object, and iterates only over pairwise components).
* :func:`float_estimate`: ``estimate_from_results`` on ``L`` converted to
  floats, then ``mean``, ``var`` and ``sum`` (production counts the
  nonzero entries and sums ``np.var``'s squares in one pass).
* :func:`per_row_draw` and :func:`blake2b_uniforms`: ``DaggerSampler._draw``
  with one geometry lookup and one list entry per row, and CRN's
  ``_uniforms`` with a keyed BLAKE2b built per id, ``np.diff`` row sizes
  and a temporary per SplitMix64 shift.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.app.structure import EXTERNAL
from repro.kernel.packed import PACK_DTYPE, PackedBatch, packed_width
from repro.sampling.dagger import (
    _BIT_OF,
    _GAMMA,
    _MIX,
    CommonRandomDaggerSampler,
    _cycle_geometry,
    _draw_bits,
    dagger_cycle_length,
)
from repro.sampling.statistics import ReliabilityEstimate
from repro.util.errors import ConfigurationError


def int64_counts(states, active: np.ndarray) -> np.ndarray:
    """Active instances in each round of one packed activity matrix."""
    return states.unpack(active).sum(axis=0)


def fixed_point_counts(engine, states, plan, structure) -> dict[str, np.ndarray]:
    """Active instances per component in each round, from one greatest
    fixed point over every component's stacked alive rows."""
    hosts_by_component = {
        spec.name: plan.hosts_for(spec.name) for spec in structure.components
    }
    requirements_by_component = {
        spec.name: structure.requirements_for(spec.name)
        for spec in structure.components
    }
    hosts_needing_external: list[str] = []
    wanted: set[tuple[str, str]] = set()
    for requirement in structure.requirements:
        if requirement.source == EXTERNAL:
            hosts_needing_external.extend(hosts_by_component[requirement.component])
            continue
        for a in hosts_by_component[requirement.component]:
            for b in hosts_by_component[requirement.source]:
                if a != b:
                    wanted.add((a, b) if a < b else (b, a))
    external_by_host = (
        engine.external_reachable(states, hosts_needing_external)
        if hosts_needing_external
        else {}
    )
    pair_reachable = engine.pairwise_reachable(states, sorted(wanted)) if wanted else {}

    # Start optimistic: every alive instance is active.
    active: dict[str, np.ndarray] = {}
    for component, hosts in hosts_by_component.items():
        matrix = np.empty((len(hosts), states.width), dtype=np.uint8)
        for row, host in enumerate(hosts):
            matrix[row] = states.materialize(states.alive_mask(host))
        active[component] = matrix
    external_matrix: dict[str, np.ndarray] = {
        component: np.stack([external_by_host[host] for host in hosts])
        for component, hosts in hosts_by_component.items()
        if any(r.source == EXTERNAL for r in requirements_by_component[component])
    }
    changed = True
    while changed:
        changed = False
        for component, hosts in hosts_by_component.items():
            matrix = active[component]
            for requirement in requirements_by_component[component]:
                if requirement.source == EXTERNAL:
                    updated = matrix & external_matrix[component]
                    if not np.array_equal(updated, matrix):
                        active[component] = matrix = updated
                        changed = True
                    continue
                source_hosts = hosts_by_component[requirement.source]
                source_active = active[requirement.source]
                for row, host in enumerate(hosts):
                    can_reach = states.zeros()
                    for src_row, src_host in enumerate(source_hosts):
                        if src_host == host:
                            link = source_active[src_row]
                        else:
                            pair = (host, src_host) if host < src_host else (src_host, host)
                            link = pair_reachable[pair] & source_active[src_row]
                        np.bitwise_or(can_reach, link, out=can_reach)
                    updated = matrix[row] & can_reach
                    if not np.array_equal(updated, matrix[row]):
                        matrix[row] = updated
                        changed = True
    return {name: int64_counts(states, m) for name, m in active.items()}


def float_estimate(result_list) -> ReliabilityEstimate:
    """Eqs. 1-3 over ``L`` as floats."""
    results = np.asarray(result_list, dtype=float)
    if results.ndim != 1 or results.size == 0:
        raise ConfigurationError("result list must be a non-empty 1-D sequence")
    n = results.size
    score = float(results.mean())
    variance = float(results.var()) / n  # Eq. 2: V = Var[L] / n
    ci_width = 4.0 * math.sqrt(variance)  # Eq. 3
    return ReliabilityEstimate(
        score=score,
        variance=variance,
        confidence_interval_width=ci_width,
        rounds=n,
        reliable_rounds=int(results.sum()),
    )


def blake2b_uniforms(sampler, rng, ids, ends: np.ndarray) -> np.ndarray:
    """CRN's uniforms, row ``i`` from ``ids[i]``'s stream."""
    size = max(1, -(-sampler.master_seed.bit_length() // 8))
    key = sampler.master_seed.to_bytes(size, "little")
    key = key if size <= 64 else hashlib.blake2b(key).digest()
    digests = (hashlib.blake2b(cid.encode(), digest_size=8, key=key) for cid in ids)
    keys = np.frombuffer(b"".join(d.digest() for d in digests), dtype="<u8")
    draws = np.diff(ends, prepend=0)
    z = np.arange(1, int(ends[-1]) + 1, dtype=np.uint64)
    z *= _GAMMA
    z += (keys - (ends - draws).astype(np.uint64) * _GAMMA).repeat(draws)
    for shift, multiplier in zip((30, 27), _MIX):
        z ^= z >> shift
        z *= multiplier
    z ^= z >> 31
    z >>= 11
    return z * 2.0**-53


def per_row_draw(sampler, ids, levels, sizes, rounds, rng) -> PackedBatch:
    """``DaggerSampler._draw`` for ``sampler``, CRN's rows drawn by
    :func:`blake2b_uniforms`; usable as a patched ``_draw``."""
    plist = levels.tolist()
    longest = dagger_cycle_length(min(plist))
    geometry = [_cycle_geometry(p, rounds, sampler._block_length(p, longest)) for p in plist]
    group = np.arange(len(geometry)).repeat(sizes)
    rows = [geometry[g] for g in group.tolist()]
    draws = np.array([dpc for _s, dpc, _start, _limit in geometry])[group]
    ends = draws.cumsum()
    width = packed_width(rounds)
    if isinstance(sampler, CommonRandomDaggerSampler):
        flat = blake2b_uniforms(sampler, rng, ids, ends)
    else:
        flat = sampler._uniforms(rng, ids, ends)
    hit, bit = _draw_bits(flat, draws, ends, levels[group], rows, 8 * width)
    nonzero = np.logical_or.reduceat(hit, ends - draws)
    bit = bit.compress(hit)
    mask = _BIT_OF[bit & 7]
    byte = np.right_shift(bit, 3, out=bit)
    matrix = np.zeros((len(ids), width), dtype=PACK_DTYPE)
    cells = matrix.reshape(-1)
    cells[byte] = mask
    shared = (byte[1:] == byte[:-1]).nonzero()[0]
    if shared.size:
        np.bitwise_or.at(cells, byte[shared], mask[shared])
    return PackedBatch(rounds=rounds, component_ids=ids, matrix=matrix, nonzero=nonzero)
