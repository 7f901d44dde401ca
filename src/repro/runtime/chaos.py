"""Deterministic fault injection for the parallel runtime.

A reliability engine should be tested the way it tests others: by making
its own substrate fail. :class:`ChaosPolicy` decides — deterministically,
from ``(portion index, attempt number)`` — whether a worker handling a
portion should crash (die without a word, like an OOM-killed process),
hang (stop responding, like a livelocked worker), raise an error, or
merely return late. Tests and ``benchmarks/bench_runtime_faults.py`` use
it to measure how the supervised :class:`~repro.runtime.mapreduce.
ParallelAssessor` recovers.

Injection happens *inside worker processes only*: the master's inline
fallback path is never sabotaged, mirroring the real failure domain (the
master is the reliable coordinator; workers are the commodity substrate).

Determinism matters twice over. It makes failures reproducible (a test
seed always kills the same portions), and it lets ``max_attempts`` model
*transient* faults: a portion is only sabotaged while ``attempt <
max_attempts``, so a retried portion eventually goes through — the
crash-loop/recovery behaviour real clusters exhibit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.util.errors import ConfigurationError

#: Failure kinds a policy can inject.
KINDS = ("crash", "hang", "error", "delay")

#: Probability a zone's shared roots are driven to during an injected
#: outage. Just under 1 because components require p < 1; at 1e-6 odds of
#: survival the zone is down in essentially every sampled round.
ZONE_OUTAGE_PROBABILITY = 0.999999

#: How long a "hung" worker sleeps. Long enough that only supervision
#: (portion timeout + pool restart) can rescue the assessment; the pool's
#: terminate() kills the sleeper when the supervisor restarts it.
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class ChaosAction:
    """One injected fault: what to do to the worker, and for how long."""

    kind: str
    seconds: float = 0.0


@dataclass(frozen=True)
class ChaosPolicy:
    """Decides which (portion, attempt) executions are sabotaged.

    Two addressing modes, combinable:

    * **Explicit**: ``crash``/``hang``/``error`` name portion indices,
      ``delay`` maps portion indices to extra seconds of latency.
    * **Random-rate**: ``rate`` injects a failure into that fraction of
      (portion, attempt) executions, choosing uniformly among ``kinds``;
      the draw is a pure function of ``(seed, portion, attempt)``.

    Attributes:
        crash: Portions whose worker calls ``os._exit`` mid-portion.
        hang: Portions whose worker sleeps ~forever (must be reaped by a
            portion timeout + pool restart).
        error: Portions whose worker raises ``RuntimeError``.
        delay: Portion → seconds of added latency (a *late* worker: the
            result is correct but may miss a tight portion timeout).
        rate: Probability of injecting into any given (portion, attempt).
        kinds: Failure kinds the random mode draws from.
        seed: Seed for the random mode's deterministic draws.
        max_attempts: Inject only while ``attempt < max_attempts``; with
            the default 1, every fault is transient and the first retry
            of a portion succeeds.
    """

    crash: frozenset = frozenset()
    hang: frozenset = frozenset()
    error: frozenset = frozenset()
    delay: Mapping[int, float] = field(default_factory=dict)
    rate: float = 0.0
    kinds: tuple[str, ...] = ("crash", "error")
    seed: int = 0
    max_attempts: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "crash", frozenset(self.crash))
        object.__setattr__(self, "hang", frozenset(self.hang))
        object.__setattr__(self, "error", frozenset(self.error))
        object.__setattr__(self, "delay", dict(self.delay))
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {self.rate}")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ConfigurationError(
                    f"unknown chaos kind {kind!r}; expected one of {KINDS}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    # ------------------------------------------------------------------

    def action_for(self, portion: int, attempt: int) -> ChaosAction | None:
        """The fault to inject into this execution, or ``None``."""
        if attempt >= self.max_attempts:
            return None
        if portion in self.crash:
            return ChaosAction("crash")
        if portion in self.hang:
            return ChaosAction("hang", HANG_SECONDS)
        if portion in self.error:
            return ChaosAction("error")
        if portion in self.delay:
            return ChaosAction("delay", float(self.delay[portion]))
        if self.rate > 0.0:
            stream = np.random.default_rng(
                np.random.SeedSequence([self.seed, portion, attempt])
            )
            if stream.random() < self.rate:
                kind = self.kinds[int(stream.integers(0, len(self.kinds)))]
                seconds = HANG_SECONDS if kind == "hang" else 0.25
                return ChaosAction(kind, seconds)
        return None

    def execute(self, portion: int, attempt: int) -> None:
        """Apply the injected fault, if any. Runs inside the worker."""
        action = self.action_for(portion, attempt)
        if action is None:
            return
        if action.kind == "crash":
            # A real crash: no exception, no cleanup, no exit handlers —
            # the process is simply gone, as after a SIGKILL.
            os._exit(70)
        if action.kind == "hang":
            time.sleep(action.seconds)
            return
        if action.kind == "error":
            raise RuntimeError(
                f"chaos: injected worker error (portion {portion}, attempt {attempt})"
            )
        time.sleep(action.seconds)  # "delay": late but otherwise healthy


class ZoneOutage:
    """Take a whole availability zone down in one injection.

    Drives every shared root of the zone (power feed, cooling plant,
    control plane — see :func:`repro.faults.inventory.
    attach_zone_shared_roots`) to :data:`ZONE_OUTAGE_PROBABILITY` at
    once, which fails every element of the zone in essentially every
    sampled round — the correlated disaster the cross-zone placement
    constraints exist for. :meth:`revert` restores the exact original
    probabilities, and the class is a context manager (``with
    ZoneOutage(model, "zone0"): ...``).

    Only probabilities change, never structure, so attached fault trees
    and topology graphs stay valid. Each override moves the substrate's
    generation, so assessors built afterwards get a kernel compiled
    against the outage; a live assessor fetches it after
    :meth:`inject`/:meth:`revert` on ``refresh_probabilities()``
    (from-scratch) or ``clear_caches()`` (incremental) — the
    :class:`~repro.service.redeploy.RedeploymentController` does this
    automatically — and a search's symmetry screen follows on its own.
    """

    def __init__(self, dependency_model, zone: str, probability: float = ZONE_OUTAGE_PROBABILITY):
        from repro.faults.inventory import zone_shared_root_ids

        if not 0.0 < probability < 1.0:
            raise ConfigurationError(
                f"outage probability must be in (0, 1), got {probability}"
            )
        self.dependency_model = dependency_model
        self.zone = zone
        self.probability = probability
        self.root_ids = zone_shared_root_ids(dependency_model, zone)
        self._saved: dict[str, float] | None = None

    @property
    def active(self) -> bool:
        """True while the outage is injected."""
        return self._saved is not None

    def inject(self) -> list[str]:
        """Fail the zone's shared roots; returns the affected root ids.

        All-or-nothing: the roots are overridden one at a time, each
        original saved *before* its mutation, and any failure rolls back
        every override already applied before re-raising. Without that, a
        root that rejects its override would leak a half-failed zone —
        and ``with ZoneOutage(...)`` never reaches ``__exit__`` when
        ``__enter__`` raises, so nothing else would clean it up.
        """
        if self.active:
            return self.root_ids
        probabilities = self.dependency_model.failure_probabilities()
        saved: dict[str, float] = {}
        try:
            for rid in self.root_ids:
                saved[rid] = probabilities[rid]
                self.dependency_model.override_probabilities(
                    {rid: self.probability}
                )
        except BaseException:
            if saved:
                # The failing root may or may not have been applied;
                # restoring its saved original either way is harmless.
                self.dependency_model.override_probabilities(saved)
            raise
        self._saved = saved
        return self.root_ids

    def revert(self) -> None:
        """Restore the pre-outage probabilities (idempotent)."""
        if self._saved is None:
            return
        self.dependency_model.override_probabilities(self._saved)
        self._saved = None

    def __enter__(self) -> "ZoneOutage":
        self.inject()
        return self

    def __exit__(self, *exc_info) -> None:
        self.revert()
