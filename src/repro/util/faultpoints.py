"""Named fault-injection seams: one registry for every injected fault.

Production code exposes *named seams* — points where a real deployment
can crash, tear a write, lose an fsync, drop a message or lose a worker
— and a :class:`FaultPoints` registry decides, purely from ``(point
name, occurrence)``, what misfortune strikes there. The durability
modules (``journal``, ``store``, ``lifecycle``, ``redeploy``) and the
fleet carry the drill's seams, the worker pool carries ``pool.portion``
and every sampler entry carries ``sampling.start``. With no registry
armed every seam is a cheap no-op (one module-global ``is None``
check), so production code pays nothing; with a registry armed, the
same binary replays a fault schedule bit-for-bit. This module imports
nothing from the package but its errors, so any layer can host a seam.

Two kinds of injected misfortune exist and the distinction matters:

* **Faults** model the environment being hostile — process crashes,
  power loss, torn writes, worker kills/hangs, dropped messages, a
  failing ``os.replace``. A correct system must survive every schedule
  of these without violating its invariants.
* **Bugs** model the *code* misbehaving — today, skipping an fsync the
  write-ahead contract requires. The drill campaign injects these only
  when explicitly asked to (``--seed-bug``), as a self-test that the
  invariant checkers actually catch real defects.

Crashes are raised as :class:`SimulatedCrash`, deliberately derived from
``BaseException`` so they sail past the broad ``except Exception``
recovery handlers in the service — exactly like a SIGKILL would.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.util.errors import ValidationError

#: Command kinds a fault point can be told to execute.
KINDS = (
    "crash",        # raise SimulatedCrash *before* the guarded operation
    "crash_after",  # complete the operation, then raise SimulatedCrash
    "power_crash",  # crash + power loss: un-fsync'd bytes are truncated
    "torn",         # write only the first ``arg`` bytes, then crash
    "skip_fsync",   # (bug) complete the write but skip its fsync
    "io_error",     # raise OSError at the seam (e.g. os.replace failing)
    "drop",         # drop the message/heartbeat crossing the seam
    "kill",         # the worker dies at the seam (a process: os._exit(70))
    "hang",         # worker stops beating and stops progressing
)

#: Every seam, with the command kinds it honours. ``supervisor.`` points
#: are the drill's own; the rest are threaded into production code,
#: ``worker.`` into the fleet's one worker class. ``sampling.start``
#: honours nothing: its hit counter is the record of sampler entries.
CATALOG = {
    "journal.append": ("crash", "crash_after", "torn", "power_crash"),
    "journal.fsync": ("skip_fsync",),
    "store.put": ("crash", "crash_after", "io_error", "power_crash"),
    "redeploy.journal": ("crash", "crash_after", "torn", "power_crash"),
    "redeploy.persist": ("crash", "crash_after", "power_crash"),
    "fleet.route.accepted": ("crash",),
    "fleet.record_terminal": ("crash",),
    "worker.task.started": ("kill", "hang", "drop"),
    "worker.task.compute": ("kill", "hang"),
    "worker.task.respond": ("kill", "hang"),
    "worker.heartbeat": ("drop", "hang"),
    "supervisor.admit": ("crash", "power_crash"),
    "supervisor.tick": ("crash", "power_crash"),
    "pool.portion": ("kill",),
    "sampling.start": (),
}


class SimulatedCrash(BaseException):
    """A process death injected at a fault point.

    Derives from ``BaseException`` so it is *not* swallowed by the
    service's ``except Exception`` recovery paths — a crash must kill
    the process model the way SIGKILL kills a real one. ``power_loss``
    marks crashes that also lose every byte written since the last
    fsync (the registry tracks those bytes; see
    :meth:`FaultPoints.apply_power_loss`).
    """

    def __init__(self, point: str, power_loss: bool = False):
        super().__init__(f"drill: simulated crash at fault point {point!r}")
        self.point = point
        self.power_loss = power_loss


@dataclass(frozen=True)
class FaultCommand:
    """What to do at one seam hit: a kind plus an optional argument
    (``torn`` uses ``arg`` as the byte offset to tear the write at)."""

    kind: str
    arg: int | None = None


class FaultPoints:
    """Occurrence-addressed registry of fault commands.

    Commands are keyed ``(point, occurrence)`` — "the 3rd time the
    journal appends, tear the write at byte 17" — or ``(point, None)``
    for every occurrence. The occurrence is the point's hit count unless
    the seam names the hit itself: a forked pool worker counts its hits
    alone, so ``pool.portion`` hits are named by the portion's index.
    Either way the schedule addresses nothing else, so a drill is
    bit-reproducible from ``(seed, schedule)``.

    The registry also does the durability bookkeeping faults need:
    ``*.fsync`` hits with a ``skip_fsync`` command record the file's
    last-durable byte offset, and :meth:`apply_power_loss` truncates
    those files back to it — the worst-case outcome of losing power
    with dirty pages in the OS cache.
    """

    def __init__(self):
        self._exact: dict[tuple[str, object], FaultCommand] = {}
        self._always: dict[str, FaultCommand] = {}
        self.counters: dict[str, int] = {}
        self.fired: list[dict] = []
        self.unsynced: dict[str, int] = {}
        self.enabled = True

    def add(
        self, point: str, command: FaultCommand, occurrence=None
    ) -> "FaultPoints":
        """Strike ``point`` with ``command`` at ``occurrence`` (a hit
        count, a seam-named identity, or ``None`` for every hit).

        Raises :class:`~repro.util.errors.ValidationError` naming the
        field for an unknown point, a command the point does not honour
        or a negative hit count: none of them could ever fire.
        """
        if point not in CATALOG:
            raise ValidationError([("point", f"unknown fault point {point!r}")])
        if command.kind not in CATALOG[point]:
            raise ValidationError([(
                "command",
                f"fault point {point!r} does not honour {command.kind!r}; "
                f"allowed: {CATALOG[point]}",
            )])
        if isinstance(occurrence, int) and occurrence < 0:
            raise ValidationError(
                [("occurrence", f"must be >= 0 or null, got {occurrence}")]
            )
        if occurrence is None:
            self._always[point] = command
        else:
            self._exact[(point, occurrence)] = command
        return self

    # ------------------------------------------------------------------

    def hit(
        self, point: str, occurrence=None, **context
    ) -> FaultCommand | None:
        """Count one pass through ``point`` and return its command, if any.
        ``occurrence`` names the hit; by default it is the hit count."""
        index = self.counters.get(point, 0)
        self.counters[point] = index + 1
        if occurrence is None:
            occurrence = index
        command = None
        if self.enabled:
            command = self._exact.get((point, occurrence)) or self._always.get(point)
        path = context.get("path")
        if point.endswith(".fsync") and path is not None:
            if command is not None and command.kind == "skip_fsync":
                # Remember the last byte known durable; later skipped
                # fsyncs must not raise the low-water mark.
                self.unsynced.setdefault(path, int(context.get("durable", 0)))
            else:
                self.unsynced.pop(path, None)
        if command is not None:
            self.fired.append(
                {"point": point, "occurrence": occurrence, "kind": command.kind}
            )
        return command

    def apply_power_loss(self) -> list[tuple[str, int]]:
        """Truncate every file with un-fsync'd bytes back to its durable
        length — what the disk looks like after the power comes back."""
        lost: list[tuple[str, int]] = []
        for path, durable in sorted(self.unsynced.items()):
            if os.path.exists(path):
                with open(path, "r+b") as handle:
                    handle.truncate(durable)
                    handle.flush()
                    os.fsync(handle.fileno())
            lost.append((path, durable))
        self.unsynced.clear()
        return lost

    def disable(self) -> None:
        """Stop injecting (hit counting continues). The drill engine
        disables a registry after a crash-count cap so a pathological
        schedule cannot livelock the run in an eternal restart loop."""
        self.enabled = False


# ----------------------------------------------------------------------
# The armed registry. Production seams call :func:`fault_hit`; with no
# registry armed it is a single None check.
# ----------------------------------------------------------------------

_ACTIVE: FaultPoints | None = None


def arm(registry: FaultPoints) -> FaultPoints:
    global _ACTIVE
    _ACTIVE = registry
    return registry


def disarm() -> None:
    global _ACTIVE
    _ACTIVE = None


class armed:
    """``with armed(registry): ...`` — arm for a scope, always disarm."""

    def __init__(self, registry: FaultPoints):
        self.registry = registry

    def __enter__(self) -> FaultPoints:
        return arm(self.registry)

    def __exit__(self, *exc_info) -> None:
        disarm()


def fault_hit(point: str, occurrence=None, **context) -> FaultCommand | None:
    """The seam call threaded into production code. No-op when disarmed."""
    registry = _ACTIVE
    if registry is None:
        return None
    return registry.hit(point, occurrence, **context)


def raise_if_crash(command: FaultCommand | None, point: str) -> None:
    """Honour a before-the-operation crash command at ``point``."""
    if command is None:
        return
    if command.kind == "crash":
        raise SimulatedCrash(point)
    if command.kind == "power_crash":
        raise SimulatedCrash(point, power_loss=True)


def raise_if_crash_after(command: FaultCommand | None, point: str) -> None:
    """Honour an after-the-operation crash command at ``point``."""
    if command is not None and command.kind == "crash_after":
        raise SimulatedCrash(point)


def raise_if_torn(command: FaultCommand | None, point: str, handle, data: bytes) -> None:
    """Honour a ``torn`` command at ``point``: write the first ``arg``
    bytes of ``data`` (half of it by default; at least one byte, never
    all of them) durably to ``handle``, then crash."""
    if command is None or command.kind != "torn":
        return
    cut = len(data) // 2 if command.arg is None else command.arg
    cut = max(1, min(int(cut), len(data) - 1))
    handle.write(data[:cut])
    handle.flush()
    os.fsync(handle.fileno())
    raise SimulatedCrash(point)
