"""Write-ahead request journal: the service's crash-durable memory.

The paper's provider runs the assessment service continuously (§2.1), so
accepted work must survive a process crash. Every admitted request is
journaled *before* it costs any assessment work, and every lifecycle
transition is appended afterwards:

``accepted``   the request was validated and admitted (full request
               payload, idempotency key and fingerprint ride along, so a
               restart can re-execute it verbatim)
``started``    a shard worker began executing it
``completed``  it reached a stored terminal response (``ok``,
               ``degraded`` or ``error``)
``cancelled``  it ended without a stored result (client cancel before
               any work, or a graceful drain stranding it unstarted)

On startup :meth:`RequestJournal.replay` folds the records into a
:class:`JournalState`: requests that were accepted (or started) but never
reached a terminal record are *pending* and get re-enqueued by the
service; terminal requests are left alone, and their idempotency keys
map to the durable result store.

Record framing is append-only, length-prefixed and checksummed::

    +----------------+----------------+------------------+
    | length (u32 BE)| crc32  (u32 BE)| payload (JSON)   |
    +----------------+----------------+------------------+

Appends are flushed and ``fsync``'d before the caller proceeds (the
write-ahead contract), and segment files are rotated at a byte threshold
so garbage collection can drop whole sealed segments instead of
rewriting. A fleet deployment gives every shard its own *segment family*
(``journal-sNN-*.waj``) in the shared directory: one single-writer file
per shard, a scan that can read only one shard's family, and
per-shard GC that never touches a survivor's live segment.

Every framed file is read through :func:`read_frames`, which makes the
one torn-vs-corrupt decision (the redeploy controller's decision log is
framed the same way). Opening the journal for writing truncates a *torn
tail* — a record half-written when the process died: a frame that runs
past the end of the file, or a bad last frame — back to the last intact
record. A bad frame with bytes after it, and corruption anywhere in a
sealed (fsync'd, rotated-away) segment, is loud
:class:`~repro.util.errors.ConfigurationError`, never silent; so is it
in a read-only :meth:`RequestJournal.scan`.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass, field

from repro.serialization import fsync_dir
from repro.util.errors import ConfigurationError
from repro.util.faultpoints import (
    fault_hit,
    raise_if_crash,
    raise_if_crash_after,
    raise_if_torn,
)

logger = logging.getLogger("repro.service")

#: Record header: payload length and payload crc32, both big-endian u32.
_HEADER = struct.Struct(">II")

#: Events a journal record may carry.
EVENTS = ("accepted", "started", "completed", "cancelled")

#: Terminal events — a request with one of these needs no recovery.
TERMINAL_EVENTS = ("completed", "cancelled")

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".waj"


def _segment_name(sequence: int, shard: int | None = None) -> str:
    """Segment filename; fleet shards get their own segment families.

    ``journal-00000001.waj`` (unsharded: a standalone journal, or one an
    earlier single-process service wrote, which a fleet reads but never
    appends to) or
    ``journal-s03-00000001.waj`` (shard 3 of a fleet). Per-shard segment
    families mean a worker failover replays *only the dead shard's*
    records, and shard GC never has to look at a survivor's live file.
    """
    if shard is None:
        return f"{_SEGMENT_PREFIX}{sequence:08d}{_SEGMENT_SUFFIX}"
    return f"{_SEGMENT_PREFIX}s{shard:02d}-{sequence:08d}{_SEGMENT_SUFFIX}"


def _segment_key(name: str) -> tuple[int | None, int] | None:
    """Parse a segment filename into ``(shard, sequence)``; None = not ours."""
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    body = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    shard: int | None = None
    if body.startswith("s") and "-" in body:
        shard_digits, _, body = body.partition("-")
        if not shard_digits[1:].isdigit():
            return None
        shard = int(shard_digits[1:])
    return (shard, int(body)) if body.isdigit() else None


def segment_families(directory) -> dict[int | None, list[str]]:
    """Every segment family in ``directory``: shard number (``None`` for
    the unsharded family) -> its segment paths in sequence order. The
    one listing rule; families come in the order of their names,
    unsharded first."""
    directory = os.fspath(directory)
    families: dict[int | None, list[tuple[int, str]]] = {}
    for name in sorted(os.listdir(directory)):
        key = _segment_key(name)
        if key is not None:
            families.setdefault(key[0], []).append((key[1], name))
    return {
        family: [os.path.join(directory, name) for _, name in sorted(entries)]
        for family, entries in families.items()
    }


def encode_record(record: dict) -> bytes:
    """Frame one record: length + crc32 + canonical JSON payload."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(
    path: str, sealed: bool = False, repair: bool = False
) -> tuple[list[dict], int]:
    """Read a framed file once: its intact records and the number of torn
    frames dropped (0 or 1).

    The one torn-vs-corrupt rule. An append is only ever torn at the end
    of a live file, so the first bad frame is a *torn tail* when it runs
    past the end of the bytes read, or is the last frame in them; with
    ``repair`` the file is truncated back to the intact records and
    fsync'd, so the next append starts on a frame boundary. A bad frame
    with bytes after it, and any bad frame in a ``sealed`` file (fsync'd
    whole, then rotated away), is corruption: loud
    :class:`~repro.util.errors.ConfigurationError` with the path, the
    defect and its byte offset.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            defect, end = "torn header", len(data)
            break
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            defect = "torn payload"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            defect = "checksum mismatch"
            break
        try:
            records.append(json.loads(payload))
        except ValueError:
            defect = "payload is not valid JSON"
            break
        offset = end
    else:
        return records, 0
    if sealed or end < len(data):
        raise ConfigurationError(
            f"{path!r} is corrupt mid-stream ({defect} at byte {offset}); "
            "an append is only ever torn at the end of a live file, so "
            "this is real corruption — refusing to guess"
        )
    if repair:
        logger.warning(
            "%s: truncating torn tail (%s) at byte %d", path, defect, offset
        )
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
    return records, 1


@dataclass
class PendingRequest:
    """One journaled request that never reached a terminal record.

    ``shard`` is the fleet shard whose journal last accepted the request
    (``None`` for the unsharded family); a takeover moves
    a request to a survivor's shard by re-accepting it there.
    """

    request_id: str
    kind: str
    request: dict
    idempotency_key: str | None
    fingerprint: str | None
    started: bool = False
    shard: int | None = None


@dataclass
class JournalState:
    """What a replay pass learned from the journal.

    Attributes:
        pending: Accepted-but-unfinished requests, in admission order —
            the service re-enqueues exactly these on startup.
        keys: ``idempotency_key -> (fingerprint, status)`` for every key
            that reached a terminal record (``status`` is the journaled
            response status, e.g. ``"ok"``); used to route resubmissions
            to the result store without re-execution.
        terminal_ids: Request ids that reached ``completed``/``cancelled``.
        max_request_number: Largest numeric suffix seen on ``req-N[-M]``
            ids, so a restarted service can keep ids unique per journal.
        segment_ids: Per segment path, the request ids whose ``accepted``
            record lives in it (drives segment GC).
        segment_ends: Per segment path, the request ids whose terminal
            record lives in it (keeps GC from resurrecting a request).
        records: Total records replayed.
        events: Per request id, the lifecycle records seen (event name,
            timestamp and the distinguishing fields), in fold order —
            what ``repro journal inspect`` prints for post-mortems.
    """

    pending: list[PendingRequest] = field(default_factory=list)
    keys: dict[str, tuple[str | None, str]] = field(default_factory=dict)
    terminal_ids: set[str] = field(default_factory=set)
    max_request_number: int = 0
    segment_ids: dict[str, set[str]] = field(default_factory=dict)
    segment_ends: dict[str, set[str]] = field(default_factory=dict)
    records: int = 0
    events: dict[str, list[dict]] = field(default_factory=dict)


def _fold(state: JournalState, record: dict, segment: str) -> None:
    event = record.get("event")
    request_id = record.get("id")
    if event not in EVENTS or not isinstance(request_id, str):
        raise ConfigurationError(
            f"journal segment {segment!r} holds a malformed record: {record!r}"
        )
    state.records += 1
    state.events.setdefault(request_id, []).append(
        {
            key: record[key]
            for key in ("event", "ts", "status", "reason", "shard", "kind")
            if key in record
        }
    )
    tail = request_id.rpartition("-")[2]
    if tail.isdigit():
        state.max_request_number = max(state.max_request_number, int(tail))
    if event == "accepted":
        state.segment_ids.setdefault(segment, set()).add(request_id)
        if request_id in state.terminal_ids:
            # A takeover re-acceptance whose terminal record folded first
            # (per-shard segment families are folded shard by shard, not
            # in global time order) — the request is done, stay done.
            return
        for entry in state.pending:
            if entry.request_id == request_id:
                # Same id accepted twice: a failover moved the request to
                # a surviving shard. One execution, latest ownership.
                entry.shard = record.get("shard")
                return
        state.pending.append(
            PendingRequest(
                request_id=request_id,
                kind=str(record.get("kind", "assess")),
                request=record.get("request") or {},
                idempotency_key=record.get("key"),
                fingerprint=record.get("fingerprint"),
                shard=record.get("shard"),
            )
        )
    elif event == "started":
        for entry in state.pending:
            if entry.request_id == request_id:
                entry.started = True
    else:  # terminal
        state.terminal_ids.add(request_id)
        state.segment_ends.setdefault(segment, set()).add(request_id)
        for entry in list(state.pending):
            if entry.request_id == request_id:
                state.pending.remove(entry)
                if entry.idempotency_key is not None and event == "completed":
                    state.keys[entry.idempotency_key] = (
                        entry.fingerprint,
                        str(record.get("status", "ok")),
                    )


class RequestJournal:
    """Append-only, segment-rotated, fsync'd write-ahead journal.

    One instance owns one segment family of a journal directory for
    writing, and one thread makes every call (the service's event loop,
    or the drill's driver); concurrent readers may :meth:`scan` the same
    directory read-only (the chaos harness does, while the service is
    live).
    """

    def __init__(
        self, directory, segment_bytes: int = 1 << 20, shard: int | None = None
    ):
        if segment_bytes < 1:
            raise ConfigurationError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        self.directory = os.fspath(directory)
        self.segment_bytes = segment_bytes
        self.shard = shard
        self._handle = None
        os.makedirs(self.directory, exist_ok=True)
        self._state = self._open()

    # ------------------------------------------------------------------
    # Opening and replay
    # ------------------------------------------------------------------

    def _open(self) -> JournalState:
        """Replay every segment, truncate a torn tail, open for append."""
        state = JournalState()
        segments = segment_families(self.directory).get(self.shard, [])
        for index, path in enumerate(segments):
            # Only the live (last) segment can hold a torn tail.
            records, _ = read_frames(
                path, sealed=index < len(segments) - 1, repair=True
            )
            for record in records:
                _fold(state, record, path)
        if segments:
            current = segments[-1]
            sequence = _segment_key(os.path.basename(current))[1]
        else:
            sequence = 1
            current = os.path.join(
                self.directory, _segment_name(sequence, self.shard)
            )
        self._current_path = current
        self._sequence = sequence
        self._handle = open(current, "ab")
        fsync_dir(self.directory)
        return state

    def replay(self) -> JournalState:
        """The state folded from the records present at open time."""
        return self._state

    @staticmethod
    def families(directory) -> set[int | None]:
        """The segment families present in ``directory``: shard numbers,
        ``None`` for the unsharded family."""
        return set(segment_families(directory))

    @staticmethod
    def scan(directory, shard=...) -> JournalState:
        """Read-only replay of a journal directory.

        Tolerates a torn tail (the writer may be mid-append) without
        truncating anything, and refuses corruption as open does; safe to
        call against a *live* journal from another process, e.g. the
        crash-recovery harness, because each file is read once. With the
        default ``shard=...`` every segment family in the directory is
        folded into one state (each family may carry its own torn live
        tail); ``shard=N`` (or ``shard=None`` for the unsharded family)
        restricts the scan to one family, e.g. to see what a dead worker's
        shard still owes.
        """
        state = JournalState()
        families = segment_families(directory)
        if shard is not ...:
            families = {shard: families.get(shard, [])}
        for paths in families.values():  # unsharded first
            for index, path in enumerate(paths):
                records, _ = read_frames(path, sealed=index < len(paths) - 1)
                for record in records:
                    _fold(state, record, path)
        return state

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self.shard is not None:
            record = dict(record, shard=self.shard)
        data = encode_record(record)
        handle = self._handle
        if handle is None:
            raise ConfigurationError("journal is closed")
        # Drill seams (no-op unless a fault registry is armed): a crash
        # before the write, a write torn at an arbitrary byte offset, a
        # skipped fsync, or a crash after the append.
        command = fault_hit(
            "journal.append",
            event=record.get("event"),
            path=self._current_path,
        )
        raise_if_crash(command, "journal.append")
        durable = handle.tell()
        raise_if_torn(command, "journal.append", handle, data)
        handle.write(data)
        handle.flush()
        fsync_command = fault_hit(
            "journal.fsync", path=self._current_path, durable=durable
        )
        if fsync_command is None:  # the seam's one command: skip_fsync
            os.fsync(handle.fileno())
        # Keep the segment->ids maps live for gc: this record lives in
        # the current segment until it is dropped.
        if record["event"] == "accepted":
            index = self._state.segment_ids
        elif record["event"] in TERMINAL_EVENTS:
            index = self._state.segment_ends
        else:
            index = None
        if index is not None:
            index.setdefault(self._current_path, set()).add(record["id"])
        if handle.tell() >= self.segment_bytes:
            self._rotate()
        raise_if_crash_after(command, "journal.append")

    def _rotate(self) -> None:
        """Seal the current segment and open the next."""
        self._handle.close()
        self._sequence += 1
        self._current_path = os.path.join(
            self.directory, _segment_name(self._sequence, self.shard)
        )
        self._handle = open(self._current_path, "ab")
        fsync_dir(self.directory)

    def accepted(
        self,
        request_id: str,
        kind: str,
        request: dict,
        idempotency_key: str | None = None,
        fingerprint: str | None = None,
    ) -> None:
        """Durably record an admission *before* the request is enqueued."""
        self._append(
            {
                "event": "accepted",
                "id": request_id,
                "kind": kind,
                "request": request,
                "key": idempotency_key,
                "fingerprint": fingerprint,
                "ts": time.time(),
            }
        )

    def started(self, request_id: str) -> None:
        self._append({"event": "started", "id": request_id, "ts": time.time()})

    def completed(self, request_id: str, status: str) -> None:
        self._append(
            {
                "event": "completed",
                "id": request_id,
                "status": status,
                "ts": time.time(),
            }
        )

    def cancelled(
        self, request_id: str, reason: str, started: bool = False
    ) -> None:
        self._append(
            {
                "event": "cancelled",
                "id": request_id,
                "reason": reason,
                "started": started,
                "ts": time.time(),
            }
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(
        self,
        ttl_seconds: float,
        terminal_ids: set[str],
        kept_ids: frozenset[str] = frozenset(),
    ) -> list[str]:
        """Drop sealed segments whose every request finished long ago.

        A segment is removable when it is not the live segment, every
        request whose ``accepted`` record lives in it is terminal, and the
        file has not been touched within ``ttl_seconds`` — the same TTL
        the result store compacts with, so a key's journal memory and its
        stored result age out together. A removable segment still stays
        while it holds the terminal record of a request whose ``accepted``
        record stays: in a segment of this family that is kept, or in
        another family (``kept_ids``; a takeover leaves one behind).
        Without its terminal record that request would replay as pending
        and run again. Returns the removed paths.
        """
        state = self._state
        now = time.time()
        removable = {
            path
            for path in state.segment_ids.keys() | state.segment_ends.keys()
            if path != self._current_path
            and os.path.exists(path)
            and not state.segment_ids.get(path, set()) - terminal_ids
            and now - os.path.getmtime(path) >= ttl_seconds
        }
        while True:
            accepted = set(kept_ids).union(
                *(
                    ids
                    for path, ids in state.segment_ids.items()
                    if path not in removable
                )
            )
            needed = {
                path
                for path in removable
                if state.segment_ends.get(path, set()) & accepted
            }
            if not needed:
                break
            removable -= needed
        removed = sorted(removable)
        for path in removed:
            os.unlink(path)
            state.segment_ids.pop(path, None)
            state.segment_ends.pop(path, None)
            logger.info("journal gc: removed sealed segment %s", path)
        if removed:
            fsync_dir(self.directory)
        return removed

    # ------------------------------------------------------------------

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
