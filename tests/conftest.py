"""Shared fixtures: small topologies, inventories and assessors.

Fixtures are deliberately tiny (k=4 fat-trees) so the whole suite runs in
seconds; scale-sensitive behaviour is covered by the benchmarks.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.assessment import ReliabilityAssessor
from repro.faults.dependencies import DependencyModel
from repro.faults.inventory import build_paper_inventory, build_rich_inventory
from repro.faults.probability import DefaultProbabilityPolicy
from repro.routing.base import RoundStates
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.core.api import AssessmentConfig


def packed_states(rounds, failed):
    """:class:`RoundStates` over a dense fixture ``{id: bool vector}``; read
    an engine's or evaluator's rows back through ``states.unpack``."""
    rows = {cid: np.packbits(np.asarray(v, dtype=bool)) for cid, v in failed.items()}
    return RoundStates(rounds, rows)


def unpack(rows, rounds):
    """Dense boolean view of a packed row (or matrix of rows), pads cut."""
    return RoundStates(rounds, {}).unpack(rows)


def failed_rounds(batch):
    """A sampled ``PackedBatch`` read as Table 1's sparse rows: each
    component that failed in some round -> its sorted failed rounds, in
    row order."""
    dense = unpack(batch.matrix, batch.rounds)
    rows = {cid: np.flatnonzero(row) for cid, row in zip(batch.component_ids, dense)}
    return {cid: failed for cid, failed in rows.items() if failed.size}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def no_fork(monkeypatch):
    """What a platform without fork gets: parallel assessors built under
    this fixture have no worker pool and run every portion on the master."""
    from repro.runtime import mapreduce

    monkeypatch.setattr(mapreduce, "_fork_available", lambda: False)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "the 'fork' start method", RuntimeWarning)
        yield


@pytest.fixture
def fattree4():
    """Smallest fat-tree: k=4, 3 host pods, 12 hosts."""
    return FatTreeTopology(4, seed=1)


@pytest.fixture
def fattree8():
    """The paper's tiny scale: k=8, 112 hosts."""
    return FatTreeTopology(8, seed=1)


@pytest.fixture
def lossy_fattree4():
    """k=4 fat-tree with aggressive failure probabilities (incl. links),
    used to stress routing corner cases."""
    return FatTreeTopology(
        4,
        probability_policy=DefaultProbabilityPolicy(
            default_probability=0.15, link_probability=0.05
        ),
        seed=7,
    )


@pytest.fixture
def leafspine():
    return LeafSpineTopology(spines=4, leaves=6, hosts_per_leaf=3, seed=2)


@pytest.fixture
def inventory(fattree4):
    """The paper-style inventory (5 shared power supplies) on fattree4."""
    return build_paper_inventory(fattree4, seed=3)


@pytest.fixture
def rich_inventory(fattree4):
    """Full Fig. 5-shaped inventory on fattree4."""
    return build_rich_inventory(fattree4, seed=4)


@pytest.fixture
def bare_model(fattree4):
    """No dependency information at all (§3.4 mode)."""
    return DependencyModel.empty(fattree4)


@pytest.fixture
def assessor(fattree4, inventory):
    return ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=4_000, rng=5))
