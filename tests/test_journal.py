"""The write-ahead request journal and the durable result store.

Covers the on-disk contract the durability layer stands on: checksummed
record framing, torn-tail truncation (crash mid-append), loud corruption
detection in sealed segments, segment rotation + TTL garbage collection,
replay folding, and the result store's atomic write / corrupt-read /
compaction behaviour.
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from types import SimpleNamespace

import pytest

from repro.service import journal as journal_module
from repro.service.journal import (
    JournalState,
    PendingRequest,
    RequestJournal,
    encode_record,
    read_frames,
)
from repro.service.store import ResultStore
from repro.util.errors import ConfigurationError
from repro.util.faultpoints import FaultCommand, FaultPoints, SimulatedCrash, armed

#: ``started("req-1")`` at a frozen clock (``frozen_clock``), byte for byte.
STARTED = encode_record({"event": "started", "id": "req-1", "ts": 1.0})


@pytest.fixture
def frozen_clock(monkeypatch):
    """Journal timestamps read 1.0, so a record's length is known."""
    monkeypatch.setattr(journal_module, "time", SimpleNamespace(time=lambda: 1.0))


def _defect(path) -> str:
    """What a sealed read of ``path`` refuses: the defect and its offset."""
    with pytest.raises(ConfigurationError, match="corrupt mid-stream") as excinfo:
        read_frames(str(path), sealed=True)
    return str(excinfo.value)


class TestRecordFraming:
    def test_round_trip_one_record(self, tmp_path):
        path = tmp_path / "seg.waj"
        path.write_bytes(encode_record({"event": "started", "id": "req-1"}))
        records, torn = read_frames(str(path), sealed=True)
        assert torn == 0
        assert records == [{"event": "started", "id": "req-1"}]

    def test_torn_header_reported(self, tmp_path):
        path = tmp_path / "seg.waj"
        whole = encode_record({"event": "started", "id": "req-1"})
        path.write_bytes(whole + b"\x00\x00")  # 2 stray bytes: torn header
        records, torn = read_frames(str(path))
        assert (len(records), torn) == (1, 1)
        assert f"(torn header at byte {len(whole)})" in _defect(path)

    def test_torn_payload_reported(self, tmp_path):
        path = tmp_path / "seg.waj"
        whole = encode_record({"event": "started", "id": "req-1"})
        second = encode_record({"event": "completed", "id": "req-1"})
        path.write_bytes(whole + second[:-3])  # payload cut short
        records, torn = read_frames(str(path))
        assert (len(records), torn) == (1, 1)
        assert f"(torn payload at byte {len(whole)})" in _defect(path)

    def test_a_record_cut_after_its_header_is_a_torn_payload(self, tmp_path):
        path = tmp_path / "seg.waj"
        whole = encode_record({"event": "started", "id": "req-1"})
        path.write_bytes(whole + whole[:8])  # a whole header, no payload
        records, torn = read_frames(str(path))
        assert (len(records), torn) == (1, 1)
        assert f"(torn payload at byte {len(whole)})" in _defect(path)

    def test_bit_flip_caught_by_checksum(self, tmp_path):
        path = tmp_path / "seg.waj"
        data = bytearray(encode_record({"event": "started", "id": "req-1"}))
        data[-1] ^= 0x40  # flip a payload bit; the crc32 must notice
        path.write_bytes(bytes(data))
        assert read_frames(str(path)) == ([], 1)  # the last frame: torn
        assert "(checksum mismatch at byte 0)" in _defect(path)

    # Invalid UTF-8 raises UnicodeDecodeError, not JSONDecodeError.
    @pytest.mark.parametrize("payload", [b"{not json", b'"\xff"'])
    def test_a_checksummed_payload_that_is_not_json_is_a_defect(
        self, tmp_path, payload
    ):
        path = tmp_path / "seg.waj"
        bad = journal_module._HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        path.write_bytes(bad + STARTED)
        with pytest.raises(
            ConfigurationError, match="payload is not valid JSON at byte 0"
        ):
            read_frames(str(path))

    def test_repair_cuts_a_torn_tail_and_leaves_a_clean_file_alone(self, tmp_path):
        path = tmp_path / "seg.waj"
        path.write_bytes(STARTED + STARTED[:5])
        records = [{"event": "started", "id": "req-1", "ts": 1.0}]
        assert read_frames(str(path)) == (records, 1)
        assert path.read_bytes() == STARTED + STARTED[:5]  # no repair: untouched
        assert read_frames(str(path), repair=True)[1] == 1
        assert path.read_bytes() == STARTED
        assert read_frames(str(path), repair=True)[1] == 0
        assert path.read_bytes() == STARTED


class TestJournalLifecycle:
    def test_accept_start_complete_replays_to_nothing_pending(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            journal.started("req-1")
            journal.completed("req-1", "ok")
        state = RequestJournal(tmp_path).replay()
        assert state.pending == []
        assert state.terminal_ids == {"req-1"}
        assert state.records == 3
        assert state.max_request_number == 1

    def test_unfinished_request_is_pending_with_started_flag(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.accepted(
                "req-2",
                "assess",
                {"hosts": ["h0"], "k": 1},
                idempotency_key="kk",
                fingerprint="ff",
            )
            journal.started("req-2")
        state = RequestJournal(tmp_path).replay()
        assert len(state.pending) == 1
        entry = state.pending[0]
        assert entry.request_id == "req-2"
        assert entry.started
        assert entry.idempotency_key == "kk"
        assert entry.fingerprint == "ff"
        # Not terminal, so the key must NOT be in the completed map.
        assert "kk" not in state.keys

    def test_completed_key_lands_in_keys_map(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.accepted(
                "req-3", "search", {"k": 1, "n": 2},
                idempotency_key="kk", fingerprint="ff",
            )
            journal.completed("req-3", "degraded")
        state = RequestJournal(tmp_path).replay()
        assert state.keys == {"kk": ("ff", "degraded")}

    def test_cancelled_key_is_forgotten(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.accepted(
                "req-4", "assess", {"hosts": ["h0"], "k": 1},
                idempotency_key="kk", fingerprint="ff",
            )
            journal.cancelled("req-4", reason="client")
        state = RequestJournal(tmp_path).replay()
        assert state.pending == []
        assert state.keys == {}  # cancelled => resubmission re-executes
        assert "req-4" in state.terminal_ids

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            segment = journal._current_path
        with open(segment, "ab") as handle:
            handle.write(b"\x00\x00\x00\x99partial")  # crash mid-append
        journal = RequestJournal(tmp_path)
        state = journal.replay()
        assert len(state.pending) == 1
        # The torn bytes are gone: appending works and rescans cleanly.
        journal.completed("req-1", "ok")
        journal.close()
        assert RequestJournal.scan(tmp_path).terminal_ids == {"req-1"}

    def test_torn_tail_truncated_at_every_byte_offset(self, tmp_path):
        """Property: a crash may tear the live segment's final record at
        *any* byte. Every cut must behave identically — the complete
        prefix records survive, the partial record is silently dropped,
        and the journal reopens appendable. (The cut at the record
        boundary itself is the clean-shutdown case and rides along.)"""
        seed_root = tmp_path / "seed"
        with RequestJournal(seed_root) as journal:
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            prefix_len = os.path.getsize(journal._current_path)
            journal.completed("req-1", "ok")
            segment_name = os.path.basename(journal._current_path)
            whole = open(journal._current_path, "rb").read()
        assert len(whole) > prefix_len + 2  # the final record spans many cuts
        for cut in range(prefix_len, len(whole)):
            root = tmp_path / f"cut-{cut}"
            root.mkdir()
            (root / segment_name).write_bytes(whole[:cut])
            journal = RequestJournal(root)
            state = journal.replay()
            # The completed record is gone at every cut: req-1 pends again.
            assert [p.request_id for p in state.pending] == ["req-1"]
            journal.completed("req-1", "ok")
            journal.close()
            assert RequestJournal.scan(root).terminal_ids == {"req-1"}

    @staticmethod
    def _three_accepted(root):
        """A live segment of three ``accepted`` records and each record's
        start offset."""
        starts = []
        with RequestJournal(root) as journal:
            for n in (1, 2, 3):
                starts.append(os.path.getsize(journal._current_path))
                journal.accepted(f"req-{n}", "assess", {"hosts": ["h0"], "k": 1})
            return journal._current_path, starts

    def test_a_bit_flip_mid_live_segment_is_refused(self, tmp_path):
        """A bad frame with bytes after it is corruption, not a torn
        append: open refuses it and leaves the segment as it was, where
        it used to truncate the segment to 0 bytes and replay nothing."""
        segment, starts = self._three_accepted(tmp_path)
        data = bytearray(open(segment, "rb").read())
        data[starts[1] - 1] ^= 0x40  # the first record's last payload byte
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ConfigurationError, match="corrupt mid-stream"):
            RequestJournal(tmp_path)
        assert open(segment, "rb").read() == bytes(data)

    def test_scan_refuses_a_bit_flip_mid_live_segment(self, tmp_path):
        """The read-only scan applies the same rule as open: it refuses a
        bad frame with bytes after it, where it used to fold the records
        before it (none here) and report no pending request."""
        segment, starts = self._three_accepted(tmp_path)
        data = bytearray(open(segment, "rb").read())
        data[starts[1] - 1] ^= 0x40
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(
            ConfigurationError, match="checksum mismatch at byte 0"
        ):
            RequestJournal.scan(tmp_path)
        assert open(segment, "rb").read() == bytes(data)

    def test_a_bad_last_frame_is_a_torn_tail(self, tmp_path):
        """The same flip in the last record, which ends the file, is a
        torn tail: it is cut, and the two records before it replay."""
        segment, starts = self._three_accepted(tmp_path)
        data = bytearray(open(segment, "rb").read())
        data[-1] ^= 0x40
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        journal = RequestJournal(tmp_path)
        assert [p.request_id for p in journal.replay().pending] == ["req-1", "req-2"]
        journal.close()
        assert os.path.getsize(segment) == starts[2]

    def test_a_length_that_runs_past_the_end_is_a_torn_tail(self, tmp_path):
        """A last frame whose length field claims one byte more than the
        file holds runs past the end: torn, whatever its checksum."""
        segment, starts = self._three_accepted(tmp_path)
        data = bytearray(open(segment, "rb").read())
        length = int.from_bytes(data[starts[2] : starts[2] + 4], "big")
        data[starts[2] : starts[2] + 4] = (length + 1).to_bytes(4, "big")
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        journal = RequestJournal(tmp_path)
        assert [p.request_id for p in journal.replay().pending] == ["req-1", "req-2"]
        journal.close()

    def test_sealed_segment_torn_at_every_byte_offset_is_loud(self, tmp_path):
        """Property: the same cuts inside a *sealed* segment are not a
        torn tail — sealed segments were fsync'd, so a short read there
        is real corruption and every offset must refuse loudly."""
        seed_root = tmp_path / "seed"
        with RequestJournal(seed_root, segment_bytes=1) as journal:
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            journal.completed("req-1", "ok")
        segments = sorted(
            p for p in os.listdir(seed_root) if p.endswith(".waj")
        )
        assert len(segments) >= 2
        sealed = segments[0]
        whole = (seed_root / sealed).read_bytes()
        for cut in range(1, len(whole)):
            root = tmp_path / f"cut-{cut}"
            root.mkdir()
            for name in segments:
                data = (seed_root / name).read_bytes()
                (root / name).write_bytes(data[:cut] if name == sealed else data)
            with pytest.raises(ConfigurationError, match="corrupt mid-stream"):
                RequestJournal(root)

    def test_a_torn_end_of_the_segment_before_the_live_one_is_loud(
        self, tmp_path
    ):
        """Only the last segment can be torn: the same cut in the sealed
        segment just before it is refused, by open and by scan alike."""
        self._write_segments(
            tmp_path, [("accepted", "req-1")], [("completed", "req-1")]
        )
        sealed = tmp_path / journal_module._segment_name(1)
        sealed.write_bytes(sealed.read_bytes()[:-1])
        with pytest.raises(ConfigurationError, match="torn payload at byte 0"):
            RequestJournal(tmp_path)
        with pytest.raises(ConfigurationError, match="torn payload at byte 0"):
            RequestJournal.scan(tmp_path)

    def test_corrupt_sealed_segment_is_loud(self, tmp_path):
        with RequestJournal(tmp_path, segment_bytes=1) as journal:
            # segment_bytes=1 seals a segment after every record.
            journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
            journal.completed("req-1", "ok")
        segments = sorted(
            p for p in os.listdir(tmp_path) if p.endswith(".waj")
        )
        assert len(segments) >= 2
        first = tmp_path / segments[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0x01
        first.write_bytes(bytes(data))
        with pytest.raises(ConfigurationError, match="corrupt mid-stream"):
            RequestJournal(tmp_path)

    def test_rotation_and_gc_drop_only_fully_terminal_old_segments(
        self, tmp_path
    ):
        journal = RequestJournal(tmp_path, segment_bytes=1)
        journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
        journal.completed("req-1", "ok")
        journal.accepted("req-2", "assess", {"hosts": ["h0"], "k": 1})
        # req-2 never finishes; its segment must survive any gc.
        state = RequestJournal.scan(tmp_path)
        removed = journal.gc(ttl_seconds=0.0, terminal_ids=state.terminal_ids)
        assert removed  # req-1's sealed segment went
        survivors = RequestJournal.scan(tmp_path)
        assert [p.request_id for p in survivors.pending] == ["req-2"]
        # Young segments survive a long TTL even when fully terminal.
        journal.completed("req-2", "ok")
        state = RequestJournal.scan(tmp_path)
        assert journal.gc(ttl_seconds=3600.0, terminal_ids=state.terminal_ids) == []
        journal.close()

    @staticmethod
    def _write_segments(directory, *segments, shard=None):
        """Segment files ``1..n`` of one family, each from
        ``(event, id)`` pairs; the last one is the live segment."""
        for sequence, records in enumerate(segments, start=1):
            name = journal_module._segment_name(sequence, shard)
            with open(os.path.join(directory, name), "wb") as handle:
                for event, request_id in records:
                    handle.write(encode_record({"event": event, "id": request_id}))

    def test_gc_keeps_a_finish_record_while_its_acceptance_survives(
        self, tmp_path
    ):
        """``req-1`` is accepted in a segment that stays (``req-2`` is
        still pending) and finished in a later, fully terminal one:
        dropping the later one alone would make ``req-1`` pending again."""
        self._write_segments(
            tmp_path,
            [("accepted", "req-1"), ("accepted", "req-2")],
            [("accepted", "req-3"), ("completed", "req-3"), ("completed", "req-1")],
            [],
        )
        journal = RequestJournal(tmp_path)
        terminal = journal.replay().terminal_ids
        assert terminal == {"req-1", "req-3"}
        assert journal.gc(ttl_seconds=0.0, terminal_ids=terminal) == []
        journal.close()
        assert [p.request_id for p in RequestJournal.scan(tmp_path).pending] == [
            "req-2"
        ]

    def test_gc_keeps_a_finish_record_another_family_still_needs(self, tmp_path):
        """A takeover leaves ``req-1`` accepted in the dead shard's
        family; the survivor's terminal record stays while it does, and
        goes with the next gc once nothing else holds the request."""
        self._write_segments(
            tmp_path,
            [("accepted", "req-1"), ("completed", "req-1"), ("completed", "req-4")],
            [],
            shard=1,
        )
        self._write_segments(tmp_path, [("accepted", "req-4")], [], shard=0)
        journal = RequestJournal(tmp_path, shard=1)
        terminal = journal.replay().terminal_ids
        assert journal.gc(0.0, terminal, kept_ids={"req-4"}) == []
        (removed,) = journal.gc(0.0, terminal)
        assert removed.endswith("journal-s01-00000001.waj")
        journal.close()

    def test_gc_drops_an_aged_segment_of_finish_records_only(self, tmp_path):
        self._write_segments(
            tmp_path, [("accepted", "req-1")], [("completed", "req-1")], []
        )
        journal = RequestJournal(tmp_path)
        assert len(journal.gc(0.0, {"req-1"})) == 2
        journal.close()
        state = RequestJournal.scan(tmp_path)
        assert not state.pending and state.records == 0

    def test_scan_is_read_only_and_torn_tolerant(self, tmp_path):
        journal = RequestJournal(tmp_path)
        journal.accepted("req-1", "assess", {"hosts": ["h0"], "k": 1})
        segment = journal._current_path
        with open(segment, "ab") as handle:
            handle.write(b"\xff\xff")  # writer mid-append
        size_before = os.path.getsize(segment)
        state = RequestJournal.scan(tmp_path)
        assert [p.request_id for p in state.pending] == ["req-1"]
        assert os.path.getsize(segment) == size_before  # nothing truncated
        journal.close()

    def test_malformed_record_event_is_rejected(self, tmp_path):
        (tmp_path / "journal-00000001.waj").write_bytes(
            encode_record({"event": "exploded", "id": "req-1"})
        )
        with pytest.raises(ConfigurationError, match="malformed"):
            RequestJournal(tmp_path)

    def test_ids_unique_after_restart(self, tmp_path):
        with RequestJournal(tmp_path) as journal:
            journal.accepted("req-41", "assess", {"hosts": ["h0"], "k": 1})
        state = RequestJournal(tmp_path).replay()
        assert state.max_request_number == 41


class TestSegmentFamilies:
    """Which files are segments, and of which family: the names
    recovery folds, GC removes and ``families`` reports."""

    @pytest.mark.parametrize(
        "shard, name",
        [
            (None, "journal-00000001.waj"),
            (3, "journal-s03-00000001.waj"),
            (12, "journal-s12-00000001.waj"),
        ],
    )
    def test_a_fresh_family_starts_at_segment_one(self, tmp_path, shard, name):
        with RequestJournal(tmp_path, shard=shard) as journal:
            journal.started("req-1")
        assert os.listdir(tmp_path) == [name]
        assert RequestJournal.families(tmp_path) == {shard}
        assert RequestJournal.scan(tmp_path, shard=shard).records == 1

    @pytest.mark.parametrize(
        "name",
        [
            "journal-00000001.tmp",
            "wal-00000001.waj",
            "journal-12-3.waj",
            "journal-sx3-00000001.waj",
            "journal-s1-x.waj",
        ],
    )
    def test_other_files_are_not_segments(self, tmp_path, name):
        (tmp_path / name).write_bytes(STARTED)
        assert RequestJournal.families(tmp_path) == set()
        assert RequestJournal.scan(tmp_path).records == 0

    def test_a_segment_rotates_once_it_reaches_the_threshold(
        self, tmp_path, frozen_clock
    ):
        with RequestJournal(tmp_path, segment_bytes=len(STARTED)) as journal:
            journal.started("req-1")
        assert sorted(os.listdir(tmp_path)) == [
            "journal-00000001.waj", "journal-00000002.waj",
        ]
        assert (tmp_path / "journal-00000001.waj").read_bytes() == STARTED

    def test_scan_tolerates_a_torn_tail_in_every_family(self, tmp_path):
        for shard in (0, 1):
            with RequestJournal(tmp_path, shard=shard) as journal:
                journal.started(f"req-{shard}")
            with open(tmp_path / f"journal-s0{shard}-00000001.waj", "ab") as handle:
                handle.write(b"\x00\x00")  # each live segment torn mid-header
        assert RequestJournal.scan(tmp_path).records == 2

    @pytest.mark.parametrize("cut, kept", [(0, 1), (10**6, len(STARTED) - 1)])
    def test_a_torn_append_writes_part_of_the_record(
        self, tmp_path, frozen_clock, cut, kept
    ):
        """The ``torn`` seam clamps its offset: at least one byte and never
        the whole record, so the tail is always torn."""
        registry = FaultPoints().add("journal.append", FaultCommand("torn", cut))
        journal = RequestJournal(tmp_path)
        with armed(registry), pytest.raises(SimulatedCrash):
            journal.started("req-1")
        journal.close()
        assert (tmp_path / "journal-00000001.waj").read_bytes() == STARTED[:kept]


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("kk", {"request_id": "req-1", "status": "ok"})
        assert store.get("kk") == {"request_id": "req-1", "status": "ok"}
        assert "kk" in store
        assert store.get("other") is None

    def test_corrupt_entry_reads_as_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("kk", {"status": "ok"})
        (only,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        with open(tmp_path / only, "r+b") as handle:
            handle.seek(5)
            handle.write(b"GARBAGE")
        assert store.get("kk") is None  # degrade to re-execution, never crash

    def test_compact_removes_expired_and_unreadable(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("old", {"status": "ok"})
        store.put("new", {"status": "ok"})
        # Backdate "old" by rewriting its stored_at a week into the past.
        from repro import serialization

        old_path = store._path("old")
        document = serialization.load(old_path)
        document["stored_at"] = time.time() - 10_000.0
        serialization.dump(document, old_path, checksum=True)
        removed = store.compact(ttl_seconds=5_000.0)
        assert removed == [old_path]
        assert store.get("old") is None
        assert store.get("new") is not None

    def test_an_entry_is_named_by_its_keys_digest(self, tmp_path):
        """The file name is the on-disk format: a directory written by an
        earlier release must still answer its keys."""
        ResultStore(tmp_path).put("kk", {"status": "ok"})
        digest = hashlib.sha256(b"kk").hexdigest()
        assert os.listdir(tmp_path) == [digest[:40] + ".json"]

    def test_a_foreign_document_under_the_keys_name_reads_as_absent(
        self, tmp_path
    ):
        from repro import serialization

        store = ResultStore(tmp_path)
        serialization.dump(
            {"format": "checkpoint", "key": "kk", "response": {"status": "ok"}},
            store._path("kk"),
            checksum=True,
        )
        assert store.get("kk") is None

    def test_a_result_exactly_ttl_old_is_compacted(self, tmp_path, monkeypatch):
        from repro.service import store as store_module

        now = [1_000.0]
        monkeypatch.setattr(
            store_module, "time", SimpleNamespace(time=lambda: now[0])
        )
        store = ResultStore(tmp_path)
        store.put("kk", {"status": "ok"})
        now[0] = 1_059.5
        assert store.compact(ttl_seconds=60.0) == []
        now[0] = 1_060.0
        assert store.compact(ttl_seconds=60.0) == [store._path("kk")]


class TestJournalStateFolding:
    def test_started_before_accepted_does_not_crash(self, tmp_path):
        # A record order the writer never produces, but replay must not
        # corrupt state if it ever appears (e.g. partial gc).
        with RequestJournal(tmp_path) as journal:
            journal.started("req-9")
            journal.accepted("req-9", "assess", {"hosts": ["h0"], "k": 1})
        state = RequestJournal(tmp_path).replay()
        assert len(state.pending) == 1
        assert not state.pending[0].started

    def test_pending_request_dataclass_defaults(self):
        entry = PendingRequest(
            request_id="req-1",
            kind="assess",
            request={},
            idempotency_key=None,
            fingerprint=None,
        )
        assert not entry.started
        state = JournalState()
        assert state.pending == [] and state.records == 0
