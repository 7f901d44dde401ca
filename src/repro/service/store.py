"""Durable result store: one atomic, checksummed file per finished result.

The write-ahead journal remembers *that* a request finished; this store
remembers *what* it answered. Results are keyed by the client's
idempotency key, written with the same atomic checksummed writer the
search checkpoints use (:func:`repro.serialization.dump` — temp file,
fsync, rename, directory fsync), so a crash mid-write can never leave a
half-result behind and silent corruption is caught at read time.

Resubmitting a completed idempotency key is answered straight from here
without re-execution; entries older than the configured TTL are removed
by :meth:`compact`, which the service pairs with journal segment GC so
a key's stored answer and its journal memory age out together.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time

from repro import serialization
from repro.util.errors import ConfigurationError
from repro.util.faultpoints import (
    fault_hit,
    raise_if_crash,
    raise_if_crash_after,
)

logger = logging.getLogger("repro.service")

#: Artifact format stamped into every stored result file.
RESULT_FORMAT = "service-result"


def _filename_for(key: str) -> str:
    """Stable filesystem-safe name for an arbitrary idempotency key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40] + ".json"


class ResultStore:
    """Per-key durable storage of terminal service responses."""

    def __init__(self, directory):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, _filename_for(key))

    # ------------------------------------------------------------------

    def put(self, key: str, response: dict) -> None:
        """Durably store a terminal response document under ``key``."""
        # Drill seams: crash before/after the atomic write, or fail it
        # the way a full disk fails ``os.replace`` (no-op in production).
        command = fault_hit("store.put", key=key)
        raise_if_crash(command, "store.put")
        if command is not None and command.kind == "io_error":
            raise OSError(
                f"drill: simulated os.replace failure storing key {key!r}"
            )
        document = {
            "format": RESULT_FORMAT,
            "version": serialization.FORMAT_VERSION,
            "key": key,
            "stored_at": time.time(),
            "response": response,
        }
        serialization.dump(document, self._path(key), checksum=True)
        raise_if_crash_after(command, "store.put")

    def get(self, key: str) -> dict | None:
        """The stored response for ``key``, or ``None``.

        A corrupt or foreign file under the key's name is treated as
        absent (and logged): idempotent replay silently degrades to
        re-execution, which is always a correct answer.
        """
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            document = serialization.load(path)
        except ConfigurationError as exc:
            logger.warning("result store: dropping unreadable %s (%s)", path, exc)
            return None
        if (
            not isinstance(document, dict)
            or document.get("format") != RESULT_FORMAT
            or document.get("key") != key
        ):
            logger.warning("result store: %s does not hold key %r", path, key)
            return None
        response = document.get("response")
        return response if isinstance(response, dict) else None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------

    def compact(self, ttl_seconds: float) -> list[str]:
        """Remove results stored ``ttl_seconds`` ago or earlier.

        Unreadable files are removed too — they can never serve a replay,
        and leaving them would mask the corruption forever. Returns the
        removed paths.
        """
        removed: list[str] = []
        now = time.time()
        for name in os.listdir(self.directory):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                document = serialization.load(path)
                stored_at = float(document["stored_at"])
            except Exception:
                stored_at = None
            if stored_at is None or now - stored_at >= ttl_seconds:
                try:
                    os.unlink(path)
                    removed.append(path)
                except OSError:
                    pass
        if removed:
            serialization.fsync_dir(self.directory)
            logger.info("result store: compacted %d entries", len(removed))
        return removed
