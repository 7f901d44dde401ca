"""Request execution core of the service's shard workers.

The supervised fleet (:mod:`repro.service.fleet`) runs requests in shard
worker *processes*. Every worker must answer a given request with the
**same bits**, and so must an in-process call — that is the whole
failover guarantee: a request re-executed after a crash, on a different
worker, in a different process, yields the result the original execution
would have produced. The way to keep that property is to have exactly one
implementation of the execution path, parameterised only by values that
are a pure function of the request:

* :func:`request_seed` — the deterministic random stream, derived from
  ``(service seed, kind, idempotency key or journaled id)``, never from
  worker identity, shard placement or submission order.
* :func:`chunk_layout` / :func:`chunked_assess` — the anytime
  assessment loop (rounds cut into pieces by work, one seed per piece,
  cancellation checked between pieces, honest CI widening on partial
  completion), every piece on the worker that took the request.
* :class:`RequestExecutor` — one worker's view: a per-worker assessor
  plus ``run()`` mapping requests (and mid-run cancellation/errors) to
  :class:`~repro.service.requests.ServiceResponse`; shard worker
  processes execute through it and nothing else.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import replace

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult
from repro.core.search import DeploymentSearch, SearchSpec
from repro.runtime.mapreduce import even_split, run_portions
from repro.service.requests import (
    AssessRequest,
    SearchRequest,
    ServiceResponse,
)
from repro.util.cancel import CancellationToken
from repro.util.errors import OperationCancelled, ReproError
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch

logger = logging.getLogger("repro.service")


def request_seed(service_seed: int, kind: str, handle: str) -> int:
    """Deterministic per-request stream seed.

    Derived from the service seed and the idempotency key (or the
    journaled request id), never from worker identity or submission
    order — the property that makes a crash-replayed request
    bit-identical to what the crashed process would have answered, even
    when a *different* worker process replays it.
    """
    digest = hashlib.sha256(
        f"{service_seed}:{kind}:{handle}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


#: Fewest rounds worth a piece of their own in :func:`chunked_assess`.
#: Every piece is a full ``assess()`` call, and an ``assess()`` call has a
#: fixed cost that does not shrink with its round count: one numpy call per
#: sampled component group, fault-tree node and aggregation switch, whatever
#: the array length. Measured on the Table-2 ``small`` preset (4-of-5 plans,
#: default sampler): one ``assess()`` takes 3.0 ms at 1 250 rounds, 4.2 ms at
#: 8 192, 4.4 ms at 10 000 and 32 ms at 160 000, so about 2.7 ms a call is
#: fixed and a round costs 0.2 us; 10 000 rounds as 8 x 1 250 took 25 ms
#: against 5 ms in one piece. A piece under this size would take less than
#: 4 ms, most of it fixed cost: no deadline is met by a cancellation point
#: that close to the end, so a request that small runs whole (its sampler
#: loop still polls the token). Part of the re-execution contract: see
#: :func:`chunk_layout`.
MIN_CHUNK_ROUNDS = 8_192


def chunk_layout(rounds: int, chunks: int) -> tuple[int, ...]:
    """Piece sizes of the anytime loop: by work, at most ``chunks`` pieces.

    ``max(1, min(chunks, rounds // MIN_CHUNK_ROUNDS))`` pieces, sizes as
    even as possible (they differ by at most one, larger ones first) and
    summing to ``rounds``. A pure function of ``(rounds, chunks)`` and of
    nothing else: every piece draws from the request's one seeded stream
    in turn, so the layout decides which bits a request yields, and a
    crash-replayed request must be cut exactly like the original was.
    """
    return even_split(rounds, max(1, min(chunks, rounds // MIN_CHUNK_ROUNDS)))


def chunked_assess(
    assessor,
    plan: DeploymentPlan,
    structure: ApplicationStructure,
    rounds: int,
    chunks: int,
    token: CancellationToken,
) -> AssessmentResult:
    """The anytime loop: :func:`~repro.runtime.mapreduce.run_portions`
    over :func:`chunk_layout`, seeded from ``assessor.rng``.

    At most ``chunks`` pieces of at least :data:`MIN_CHUNK_ROUNDS`
    rounds; the token is checked between pieces and forwarded into each
    piece's sampler loop. On cancel the completed pieces become the
    anytime estimate with coverage-widened bounds; only a cancel before
    *any* piece finished raises :class:`OperationCancelled`.
    """
    layout = chunk_layout(rounds, chunks)
    return run_portions(assessor, plan, structure, layout, token)


class RequestExecutor:
    """One worker's execution engine for validated service requests.

    Owns a sequential assessor over the service's data center and turns
    an ``(kind, request)`` pair into a :class:`ServiceResponse` —
    including the cancelled/error response shapes, so a shard worker
    process needs no mapping layer around it.
    An assess request's pieces run on this worker's own assessor, which
    is reseeded from :func:`request_seed` before every request.
    """

    def __init__(
        self,
        topology,
        dependency_model,
        *,
        service_seed: int,
        default_rounds: int,
        chunks: int,
    ):
        self.topology = topology
        self.dependency_model = dependency_model
        self.service_seed = service_seed
        self.default_rounds = default_rounds
        self.chunks = chunks
        self.assessor = ReliabilityAssessor.from_config(
            topology, dependency_model, AssessmentConfig(rounds=default_rounds)
        )

    # ------------------------------------------------------------------

    def seed_for(self, kind: str, handle: str) -> int:
        return request_seed(self.service_seed, kind, handle)

    def run(
        self,
        kind: str,
        request,
        *,
        request_id: str,
        token: CancellationToken,
        queue_seconds: float = 0.0,
        recovered: bool = False,
    ) -> ServiceResponse:
        """Execute one request, mapping cancellation/errors to responses.

        Never raises: anything that is not a typed :class:`ReproError`
        (``MemoryError`` on an oversized request, a bug) becomes an
        ``error``/``internal`` response, which the lifecycle core treats
        as "not an answer" — journaled cancelled, retried on resubmission.
        """
        watch = Stopwatch()
        try:
            if token.cancelled:
                return ServiceResponse(
                    request_id=request_id,
                    status="cancelled",
                    error={
                        "error": "cancelled",
                        "reason": token.reason,
                        "message": "cancelled before execution started",
                    },
                    queue_seconds=queue_seconds,
                )
            if kind == "assess":
                return self.run_assess(
                    request,
                    request_id=request_id,
                    token=token,
                    queue_seconds=queue_seconds,
                    recovered=recovered,
                    watch=watch,
                )
            return self.run_search(
                request,
                request_id=request_id,
                token=token,
                queue_seconds=queue_seconds,
                recovered=recovered,
                watch=watch,
            )
        except OperationCancelled as exc:
            return ServiceResponse(
                request_id=request_id,
                status="cancelled",
                error={
                    "error": "cancelled",
                    "reason": exc.reason,
                    "message": str(exc),
                },
                elapsed_seconds=watch.elapsed(),
                queue_seconds=queue_seconds,
            )
        except ReproError as exc:
            return ServiceResponse(
                request_id=request_id,
                status="error",
                error={"error": type(exc).__name__, "message": str(exc)},
                elapsed_seconds=watch.elapsed(),
                queue_seconds=queue_seconds,
            )
        except Exception as exc:  # the worker must answer, not die
            logger.exception("request %s executor crash", request_id)
            return ServiceResponse(
                request_id=request_id,
                status="error",
                error={"error": "internal", "message": str(exc)},
                elapsed_seconds=watch.elapsed(),
                queue_seconds=queue_seconds,
            )

    # ------------------------------------------------------------------

    def run_assess(
        self,
        request: AssessRequest,
        *,
        request_id: str,
        token: CancellationToken,
        queue_seconds: float,
        recovered: bool,
        watch: Stopwatch,
    ) -> ServiceResponse:
        structure = ApplicationStructure.k_of_n(request.k, len(request.hosts))
        plan = DeploymentPlan.single_component(
            list(request.hosts), structure.components[0].name
        )
        rounds = request.rounds or self.default_rounds
        # The stream is a pure function of the request, not of which
        # worker runs it or what ran before.
        self.assessor.rng = make_rng(
            self.seed_for("assess", request.idempotency_key or request_id)
        )
        result = chunked_assess(
            self.assessor, plan, structure, rounds, self.chunks, token
        )
        if recovered and result.runtime is not None:
            result = replace(
                result, runtime=replace(result.runtime, recovered=True)
            )
        status = "degraded" if result.degraded else "ok"
        return ServiceResponse(
            request_id=request_id,
            status=status,
            result=serialization.encode(result),
            elapsed_seconds=watch.elapsed(),
            queue_seconds=queue_seconds,
            backend="chunked-sequential",
        )

    def run_search(
        self,
        request: SearchRequest,
        *,
        request_id: str,
        token: CancellationToken,
        queue_seconds: float,
        recovered: bool,
        watch: Stopwatch,
    ) -> ServiceResponse:
        return execute_search(
            self.topology,
            self.dependency_model,
            request,
            request_id=request_id,
            seed=self.seed_for("search", request.idempotency_key or request_id),
            default_rounds=self.default_rounds,
            token=token,
            queue_seconds=queue_seconds,
            recovered=recovered,
            watch=watch,
        )


def execute_search(
    topology,
    dependency_model,
    request: SearchRequest,
    *,
    request_id: str,
    seed: int,
    default_rounds: int,
    token: CancellationToken,
    queue_seconds: float,
    recovered: bool,
    watch: Stopwatch,
) -> ServiceResponse:
    """One search request, end to end, on the incremental engine.

    The seed must come from :func:`request_seed` — a recovered search
    then explores the same trajectory regardless of which worker process
    runs it.
    """
    structure = ApplicationStructure.k_of_n(request.k, request.n)
    search = DeploymentSearch.from_config(
        topology,
        dependency_model,
        AssessmentConfig(
            rounds=request.rounds or default_rounds,
            rng=seed,
            mode="incremental",
        ),
        rng=(seed + 1) % 2**63,
        cancel=token,
    )
    spec = SearchSpec(
        structure=structure,
        desired_reliability=request.desired_reliability,
        max_seconds=request.max_seconds,
        forbid_shared_rack=True,
    )
    result = search.search(spec)
    cut_short = token.cancelled
    status = "degraded" if cut_short else "ok"
    document = serialization.encode(result)
    if recovered:
        document["recovered"] = True
    if cut_short:
        document["cancelled"] = True
        document["cancel_reason"] = token.reason
    return ServiceResponse(
        request_id=request_id,
        status=status,
        result=document,
        elapsed_seconds=watch.elapsed(),
        queue_seconds=queue_seconds,
        backend="search",
    )
