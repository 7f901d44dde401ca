"""The generator-per-component CRN source the counter-based streams replaced.

Each component's uniforms came from its own ``np.random.Generator``, seeded
by ``SeedSequence([master_seed, big-endian blake2b-64 of the id])``: about
24 us of seeding per component. It is kept as the baseline that
``benchmarks/bench_search.py``'s ``crn_quality`` rows judge the
counter-based source against: :func:`legacy_streams` swaps it in for every
:class:`~repro.sampling.dagger.CommonRandomDaggerSampler`, which then draws
the rows (and the search trajectories) the older code drew.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Sequence
from unittest import mock

import numpy as np

from repro.sampling.dagger import CommonRandomDaggerSampler


def component_stream(master_seed: int, component_id: str) -> np.random.Generator:
    """A component's private generator: same (master, id) -> same stream."""
    digest = hashlib.blake2b(component_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, int.from_bytes(digest, "big")])
    )


def legacy_uniforms(sampler, rng, ids: Sequence[str], ends: np.ndarray) -> np.ndarray:
    """Row ``i``'s uniforms from component ``ids[i]``'s private generator,
    one generator built per row; ``rng`` is unused."""
    flat = np.empty(int(ends[-1]))
    lo = 0
    for cid, hi in zip(ids, ends.tolist()):
        component_stream(sampler.master_seed, cid).random(out=flat[lo:hi])
        lo = hi
    return flat


@contextmanager
def legacy_streams():
    """Every CRN sampler draws from the generator-per-component source."""
    with mock.patch.object(CommonRandomDaggerSampler, "_uniforms", legacy_uniforms):
        yield
