"""Fault schedules: the serializable "what goes wrong when" of a drill.

A schedule is an ordered list of :class:`FaultEvent` — each names a seam
from the :data:`~repro.util.faultpoints.CATALOG`, the occurrence index
it strikes at (``None`` = every occurrence) and the command kind. A
drill is bit-reproducible from ``(seed, schedule)`` alone, so schedules
round-trip through JSON: the campaign serializes every failing
(shrunken) schedule to a reproducer file that ``repro drill --replay``
re-runs verbatim.

:func:`random_schedule` draws campaign schedules from the catalog
minus :data:`_UNDRAWN_POINTS` — environment misfortune a correct system
must tolerate, on the seams the simulation drives. Deliberate bugs
(``skip_fsync``) never appear in random schedules; they are injected
explicitly via :data:`SEEDED_BUGS` to prove the invariant checkers have
teeth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.serialization import decode
from repro.util.errors import ValidationError
from repro.util.faultpoints import CATALOG, FaultCommand, FaultPoints

#: Roughly how many times each seam fires in a default drill — the
#: occurrence range random schedules draw from, per point. Too-large
#: occurrences simply never fire, which wastes campaign coverage.
_OCCURRENCE_RANGE = {
    "journal.append": 36,
    "store.put": 10,
    "redeploy.journal": 16,
    "redeploy.persist": 3,
    "fleet.route.accepted": 6,
    "fleet.record_terminal": 8,
    "worker.task.started": 12,
    "worker.task.compute": 12,
    "worker.task.respond": 12,
    "worker.heartbeat": 96,
    "supervisor.admit": 12,
    "supervisor.tick": 40,
}

#: Points random schedules never draw: ``journal.fsync`` carries only
#: the deliberate skip-fsync bug, and ``pool.portion`` and
#: ``sampling.start`` sit in the assessment runtime, outside the drill.
_UNDRAWN_POINTS = ("journal.fsync", "pool.portion", "sampling.start")

#: Named deliberate bugs for campaign self-tests: each is the list of
#: events that recreate the defect. ``no-journal-fsync`` disables the
#: write-ahead journal's fsync wholesale and then cuts the power — the
#: canonical lost-acknowledged-write defect.
SEEDED_BUGS = {
    "no-journal-fsync": (
        ("journal.fsync", None, "skip_fsync", None),
        ("supervisor.tick", 24, "power_crash", None),
    ),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled misfortune: strike ``point`` at its ``occurrence``-th
    hit (``None`` = every hit) with ``command`` (``arg`` = byte offset
    for ``torn``)."""

    point: str
    command: str
    occurrence: int | None = None
    arg: int | None = None


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable ordered set of fault events; its JSON form is the
    list of events (:func:`schedule_from_json` reads it back)."""

    events: tuple[FaultEvent, ...] = ()

    def build(self) -> FaultPoints:
        """The armed-registry form of this schedule. Raises one
        :class:`~repro.util.errors.ValidationError` naming
        ``<index>.<field>`` of every event that could never fire."""
        registry = FaultPoints()
        errors: list = []
        for index, event in enumerate(self.events):
            try:
                registry.add(
                    event.point,
                    FaultCommand(event.command, event.arg),
                    occurrence=event.occurrence,
                )
            except ValidationError as exc:
                errors += [(f"{index}.{name}", why) for name, why in exc.errors]
        if errors:
            raise ValidationError(errors)
        return registry

    def with_bug(self, bug: str) -> "FaultSchedule":
        """This schedule plus the events of a named seeded bug."""
        extra = tuple(
            FaultEvent(point, command, occurrence, arg)
            for point, occurrence, command, arg in SEEDED_BUGS[bug]
        )
        return FaultSchedule(extra + self.events)

    def __len__(self) -> int:
        return len(self.events)


def schedule_from_json(events: list) -> FaultSchedule:
    """The schedule whose JSON form (a list of events) is ``events``."""
    return FaultSchedule(decode(tuple[FaultEvent, ...], events))


def random_schedule(
    rng: random.Random, max_events: int = 5, points: tuple[str, ...] | None = None
) -> FaultSchedule:
    """Draw a seeded fault schedule from the drawable catalog.

    Every command is addressed at an explicit occurrence (never ``None``)
    so a schedule is a *finite* amount of misfortune — a wildcard crash
    would restart the stack forever and no campaign round could quiesce.
    """
    if points is None:
        points = tuple(
            point
            for point in sorted(CATALOG)
            if point not in _UNDRAWN_POINTS
        )
    count = rng.randint(1, max_events)
    events = []
    for _ in range(count):
        point = rng.choice(points)
        command = rng.choice(CATALOG[point])
        occurrence = rng.randrange(_OCCURRENCE_RANGE.get(point, 20))
        arg = rng.randrange(96) if command == "torn" else None
        events.append(FaultEvent(point, command, occurrence, arg))
    return FaultSchedule(tuple(events))
