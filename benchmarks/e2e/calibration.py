"""A fixed reference kernel, timed beside the measured ops, that turns what
the host did in a block into what it would have done at a reference speed.

The hosts this benchmark runs on (2 vCPUs of a shared VM) change speed by up to
1.5x in spells of seconds to hours, in CPU time per op as much as in wall time,
so no statistic of one half-minute run removes it. The kernel is timed before
and after every block of ops; the block's *host speed factor* is the median of
those timings over ``NOMINAL_MS``, and every time measured in the block is
divided by it. A reported time is therefore "ms on a host that runs the kernel
in 10 ms", and two commits are compared at the same reference speed.

The kernel must never change: a faster or slower kernel rescales every metric
of every workload. It imports nothing of the program under test. Its four parts
(interpreter arithmetic, numpy sort and scan, dict and list building, a
sample / gather / pack / bitwise pipeline plus a graph walk) were chosen
because their sum followed the four workloads' own slow-downs best on the
development host; see README.md, "How noise is controlled".
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Kernel time, in ms, at which the speed factor is 1.
NOMINAL_MS = 10.0
#: Timed kernel runs per CPU at each block boundary, and the untimed runs
#: before them: the first runs after a block of ops, or in a fresh process,
#: refill caches and touch fresh memory, which says something about what ran
#: before and nothing about the host. The third run is as fast as the tenth.
BURST = 3
WARM = 2

_GENERATOR = np.random.default_rng(1)
_VALUES = np.random.default_rng(0).random(100_000)
_COLUMNS = _GENERATOR.integers(0, 256, size=(96, 4))
_WORDS = _GENERATOR.integers(0, 2**63, size=(300, 160), dtype=np.uint64)
_ROWS = [int(row) for row in _GENERATOR.integers(0, 300, size=120)]
_GRAPH = {node: [(node * 7 + step) % 500 for step in range(4)] for node in range(500)}


def kernel() -> int:
    """About 10 ms of fixed work; the return value only keeps it from being
    optimised away."""
    total = 0
    for i in range(40_000):
        total += i * i

    ordered = np.sort(_VALUES)
    above = int((ordered > 0.5).sum())
    running = np.cumsum(_VALUES)

    table = {}
    for i in range(12_000):
        table[i * 7919 % 10_007] = i
    kept = [i for i in range(15_000) if i % 3]

    states = np.random.default_rng(7).random((3000, 256)) < 0.02
    failed = states[:, _COLUMNS].any(axis=2)
    packed = np.packbits(failed, axis=0)
    word = _WORDS[_ROWS[0]].copy()
    for row in _ROWS[1:]:
        word &= _WORDS[row]
        word |= _WORDS[(row * 3) % 300]
    seen = {0}
    stack = [0]
    while stack:
        for neighbour in _GRAPH[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)

    return total + above + len(table) + len(kept) + int(packed.sum()) + len(seen) + int(
        word[0] & 1
    ) + int(running[-1])


def burst(cpus: list[int]) -> list[float]:
    """``BURST`` kernel timings, in ms, on each of ``cpus`` in turn (the calling
    thread is pinned to it meanwhile): the host's vCPUs slow down one at a
    time, so a process pinned to one CPU times that one, and a workload spread
    over all of them times them all.

    Every CPU gets ``WARM`` untimed runs first.
    """
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            for run in range(WARM + BURST):
                start = time.perf_counter()
                kernel()
                if run >= WARM:
                    samples.append(1e3 * (time.perf_counter() - start))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def speed_factor(samples_ms: list[float]) -> float:
    """Host slowness against the reference: 1.2 means the kernel, and by
    assumption the ops beside it, took 1.2 times their reference time."""
    return statistics.median(samples_ms) / NOMINAL_MS
