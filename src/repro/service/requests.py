"""Request/response records crossing the assessment-service boundary.

Everything a client sends is validated before it costs a queue slot:
:func:`repro.serialization.decode` turns a JSON body into a request and
rejects malformed shapes, ``validate`` checks it against the topology,
and each raises one field-level
:class:`~repro.util.errors.ValidationError` listing every problem at
once, so only well-formed work is ticketed. A :class:`Ticket` pairs the
request with its cancellation token and a future the client waits on; the
service resolves the future with a :class:`ServiceResponse` — including
on deadline, where the response carries the *anytime* result rather than
an exception-shaped timeout.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

from repro.util.cancel import CancellationToken
from repro.util.errors import ValidationError, check_positive_finite

#: Response statuses. ``degraded`` means a usable anytime estimate with
#: honestly widened bounds (deadline hit or portions dropped); it is a
#: success shape, not an error shape.
STATUSES = ("ok", "degraded", "cancelled", "rejected", "invalid", "error")

#: Longest accepted idempotency key. Keys land in journal records and
#: (hashed) in result-store filenames, so they must stay bounded.
MAX_IDEMPOTENCY_KEY_LENGTH = 128


def _validate_idempotency_key(
    key: str | None, errors: list[tuple[str, str]]
) -> None:
    if key is None:
        return
    if not isinstance(key, str) or not key:
        errors.append(("idempotency_key", "must be a non-empty string"))
        return
    if len(key) > MAX_IDEMPOTENCY_KEY_LENGTH:
        errors.append(
            (
                "idempotency_key",
                f"must be at most {MAX_IDEMPOTENCY_KEY_LENGTH} characters, "
                f"got {len(key)}",
            )
        )
    if not key.isprintable():
        errors.append(
            ("idempotency_key", "must not contain control characters")
        )


def _hosts_from_json(value) -> tuple[str, ...]:
    """HTTP clients send ``hosts`` as a list or a comma-separated string."""
    if isinstance(value, str):
        value = [host.strip() for host in value.split(",") if host.strip()]
    if not isinstance(value, list) or not all(isinstance(h, str) for h in value):
        raise TypeError("must be a list of host ids")
    return tuple(value)


@dataclass(frozen=True)
class AssessRequest:
    """Assess one K-of-N plan on the service's data center.

    Attributes:
        hosts: Host component ids to deploy onto.
        k: Instances that must stay alive.
        rounds: Sampling rounds; ``None`` uses the service default.
        deadline_seconds: Per-request deadline. On expiry the service
            returns the anytime estimate built from the chunks/portions
            completed so far, flagged degraded.
        idempotency_key: Client-chosen retry handle. Requests sharing a
            key execute at most once: a resubmission while the original
            is queued or running joins its ticket, and a resubmission
            after completion returns the journaled/stored response
            without new work. The key also pins the request's random
            streams, so re-execution after a crash is bit-identical.
    """

    hosts: tuple[str, ...] = field(
        metadata={"json_codec": (list, _hosts_from_json)}
    )
    k: int
    rounds: int | None = None
    deadline_seconds: float | None = None
    idempotency_key: str | None = None

    def validate(self, topology) -> None:
        """Raise :class:`ValidationError` listing every field problem."""
        errors: list[tuple[str, str]] = []
        _validate_idempotency_key(self.idempotency_key, errors)
        if not self.hosts:
            errors.append(("hosts", "at least one host is required"))
        else:
            unknown = [h for h in self.hosts if h not in topology.components]
            for host in unknown[:5]:
                errors.append(("hosts", f"unknown host {host!r}"))
            if len(unknown) > 5:
                errors.append(
                    ("hosts", f"... and {len(unknown) - 5} more unknown hosts")
                )
            if len(set(self.hosts)) != len(self.hosts):
                errors.append(("hosts", "host ids must be distinct"))
        if self.k < 1:
            errors.append(("k", f"k must be >= 1, got {self.k}"))
        elif self.hosts and self.k > len(self.hosts):
            errors.append(
                ("k", f"k={self.k} exceeds the {len(self.hosts)} hosts given")
            )
        if self.rounds is not None and self.rounds < 1:
            errors.append(("rounds", f"rounds must be >= 1, got {self.rounds}"))
        check_positive_finite("deadline_seconds", self.deadline_seconds, errors)
        if errors:
            raise ValidationError(errors)


@dataclass(frozen=True)
class SearchRequest:
    """Search for a reliable K-of-N plan within a time budget.

    ``max_seconds`` is the annealing budget ``T_max``;
    ``deadline_seconds`` additionally bounds the whole request (queue
    wait included) and cuts the search off between moves, returning the
    best plan found so far.
    """

    k: int
    n: int
    max_seconds: float = 5.0
    desired_reliability: float = 1.0
    rounds: int | None = None
    deadline_seconds: float | None = None
    idempotency_key: str | None = None

    def validate(self, topology) -> None:
        errors: list[tuple[str, str]] = []
        _validate_idempotency_key(self.idempotency_key, errors)
        if self.k < 1:
            errors.append(("k", f"k must be >= 1, got {self.k}"))
        if self.n < 1:
            errors.append(("n", f"n must be >= 1, got {self.n}"))
        if self.k >= 1 and self.n >= 1 and self.k > self.n:
            errors.append(("k", f"k={self.k} exceeds n={self.n}"))
        host_count = sum(
            1 for cid in topology.components if cid.startswith("host")
        )
        if self.n >= 1 and self.n > host_count:
            errors.append(
                ("n", f"n={self.n} exceeds the {host_count} hosts available")
            )
        check_positive_finite("max_seconds", self.max_seconds, errors)
        if not 0.0 <= self.desired_reliability <= 1.0:  # NaN fails it too
            errors.append(
                (
                    "desired_reliability",
                    f"must be in [0, 1], got {self.desired_reliability}",
                )
            )
        if self.rounds is not None and self.rounds < 1:
            errors.append(("rounds", f"rounds must be >= 1, got {self.rounds}"))
        check_positive_finite("deadline_seconds", self.deadline_seconds, errors)
        if errors:
            raise ValidationError(errors)


@dataclass
class Ticket:
    """One admitted request travelling through the service.

    ``recovered`` marks a ticket rebuilt from the write-ahead journal
    after a crash: it was accepted by a previous process and is being
    re-executed, which the result's runtime metadata discloses.
    ``shard`` is the slot whose journal family holds the ticket's
    ``accepted`` record (:mod:`repro.service.lifecycle`); ``fingerprint``
    is the payload digest of a keyed request, computed once at admission.
    """

    id: str
    kind: str  # "assess" | "search"
    request: AssessRequest | SearchRequest
    token: CancellationToken
    future: concurrent.futures.Future = field(
        default_factory=concurrent.futures.Future
    )
    enqueued_at: float = 0.0
    recovered: bool = False
    shard: int | None = None
    fingerprint: str | None = None

    @property
    def idempotency_key(self) -> str | None:
        return self.request.idempotency_key

    def reject(self, response: "ServiceResponse") -> None:
        """Resolve the future with a terminal (non-executed) response."""
        if not self.future.done():
            self.future.set_result(response)


@dataclass(frozen=True)
class ServiceResponse:
    """What every request resolves to — errors included, typed, JSON-ready.

    ``replayed`` is set when the response was served from the durable
    result store for a previously-completed idempotency key, i.e. no new
    work ran for this submission.
    """

    request_id: str
    status: str
    result: dict | None = None
    error: dict | None = None
    elapsed_seconds: float = 0.0
    queue_seconds: float = 0.0
    backend: str | None = None
    replayed: bool = field(default=False, metadata={"json_omit": False})

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")
