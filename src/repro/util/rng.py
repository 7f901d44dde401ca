"""Deterministic random-number-generator plumbing.

Every stochastic piece of the library (samplers, searchers, workload models,
synthetic inventories) takes an explicit ``numpy.random.Generator`` so that
experiments are reproducible end to end. :func:`make_rng` accepts a
seed or a generator wherever either may be passed.
"""

from __future__ import annotations

import numpy as np

RandomState = int | np.random.Generator | None


def make_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``seed`` may be ``None`` (OS entropy), an integer, or an existing
    generator (returned unchanged, so call sites can accept either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
