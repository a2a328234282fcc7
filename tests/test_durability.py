"""WAL, checkpoint, recovery, and audit-log unit contracts."""

import os
import pickle
import struct
import zlib

import pytest

from repro import AnswerCache, Database, PreparedQuery
from repro.durability import (
    AuditLog,
    CheckpointStore,
    DurableDatabase,
    WalReader,
    WriteAheadLog,
    read_audit,
    read_checkpoint,
    recover,
    verify_audit,
    write_checkpoint,
)
from repro.durability.audit import (
    epoch_hash,
    jsonable_constants,
    result_fingerprint,
)
from repro.durability.wal import _encode_record, _HEADER_LEN, MAGIC
from repro.errors import CheckpointError, RecoveryError, WalError

LINEAGE = "ab" * 12


def wal_path(tmp_path, name="wal.log"):
    return str(tmp_path / name)


SG_FACTS = [
    ("up", ("a", "b")), ("up", ("b", "c")),
    ("flat", ("c", "c1")), ("flat", ("b", "b1")),
    ("down", ("c1", "d1")), ("down", ("d1", "e1")),
    ("down", ("b1", "f1")),
]


class TestWalRoundTrip:
    def test_append_read_preserves_batches_exactly(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog.create(path, LINEAGE, fsync="always")
        # Duplicates and order are the caller's; the log keeps both.
        first = [("p", ("a", "b")), ("p", ("a", "b")), ("q", ("x",))]
        second = [("p", ("b", "a"))]
        assert wal.append(first, {}) == 1
        assert wal.append(second, {("p", 2): 3, ("q", 1): 1}) == 2
        assert wal.seq == 2
        wal.close()

        reader = WalReader(path)
        assert reader.lineage == LINEAGE
        assert reader.tail_error is None
        assert len(reader) == 2
        records = list(reader)
        assert records[0].seq == 1
        assert records[0].facts == first
        assert records[0].stamps == {}
        assert records[1].facts == second
        assert records[1].stamps == {("p", 2): 3, ("q", 1): 1}

    def test_reopen_resumes_sequence(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog.create(path, LINEAGE, fsync="batch") as wal:
            wal.append([("p", ("a",))], {})
        wal, reader = WriteAheadLog.open(path, fsync="batch")
        assert wal.lineage == LINEAGE
        assert len(reader) == 1
        wal.append([("p", ("b",))], {("p", 1): 1})
        wal.close()
        final = WalReader(path)
        assert [record.seq for record in final] == [1, 2]
        assert final.records[1].facts == [("p", ("b",))]

    def test_stats_track_appends_and_fsyncs(self, tmp_path):
        wal = WriteAheadLog.create(
            wal_path(tmp_path), LINEAGE, fsync="always"
        )
        wal.append([("p", ("a",))], {})
        wal.append([("p", ("b",))], {("p", 1): 1})
        wal.close()
        assert wal.stats["appends"] == 2
        assert wal.stats["fsyncs"] == 2
        assert wal.stats["bytes"] > 0
        assert wal.stats["append_seconds"] > 0.0

    def test_batch_policy_fsyncs_only_on_flush(self, tmp_path):
        wal = WriteAheadLog.create(
            wal_path(tmp_path), LINEAGE, fsync="batch"
        )
        wal.append([("p", ("a",))], {})
        wal.append([("p", ("b",))], {("p", 1): 1})
        assert wal.stats["fsyncs"] == 0
        wal.flush()
        assert wal.stats["fsyncs"] == 1
        wal.flush()  # nothing dirty: no second fsync
        assert wal.stats["fsyncs"] == 1
        wal.close()

    def test_create_validates_lineage_and_policy(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog.create(wal_path(tmp_path), "short")
        with pytest.raises(WalError):
            WriteAheadLog.create(
                wal_path(tmp_path), LINEAGE, fsync="sometimes"
            )

    def test_create_refuses_existing_file(self, tmp_path):
        path = wal_path(tmp_path)
        WriteAheadLog.create(path, LINEAGE).close()
        with pytest.raises(FileExistsError):
            WriteAheadLog.create(path, LINEAGE)

    def test_dump_renders_records_as_fact_program(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog.create(path, LINEAGE, fsync="off")
        wal.append([("p", ("a", "b")), ("q", (7,))], {})
        text = wal.dump()
        wal.close()
        assert "lineage=%s" % LINEAGE in text
        assert "% record 1:" in text
        assert "p(a, b)." in text
        assert "q(7)." in text


def earlier_layout_record(seq, stamps, facts):
    """A record as the layout before runs wrote it: ``(stamps, facts)``
    pickled whole, one ``(name, values)`` pair per fact."""
    payload = struct.pack("<Q", seq) + pickle.dumps(
        (stamps, facts), protocol=pickle.HIGHEST_PROTOCOL
    )
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class TestWalRecordLayout:
    """Consecutive facts of one name are logged as one run; records of
    the earlier per-fact layout still read and replay."""

    MIXED = [("p", ("a", "b")), ("p", ("a", "b")), ("q", ("x",)),
             ("p", ("c", "d")), ("q", ("y",)), ("q", ("y",))]

    def test_runs_round_trip_order_and_duplicates(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog.create(path, LINEAGE, fsync="off") as wal:
            for batch in (self.MIXED, SG_FACTS, [("p", ("z", "z"))] * 3):
                wal.append(batch, {})
        records = WalReader(path).records
        assert [record.facts for record in records] == [
            self.MIXED, SG_FACTS, [("p", ("z", "z"))] * 3
        ]

    def test_a_name_is_pickled_once_per_run(self):
        one = _encode_record(1, {}, [("relation_name", (i,))
                                     for i in range(50)])
        assert one.count(b"relation_name") == 1

    def test_record_of_the_earlier_layout_replays(self, tmp_path):
        directory = tmp_path / "d"
        directory.mkdir()
        path = str(directory / "wal.log")
        with open(path, "wb") as handle:
            handle.write(MAGIC + LINEAGE.encode("ascii") + b"\n")
            handle.write(earlier_layout_record(1, {}, SG_FACTS))
        [record] = WalReader(path).records
        assert record.facts == SG_FACTS
        # An earlier log keeps growing in the current layout, and
        # replays whole.
        wal, reader = WriteAheadLog.open(path, fsync="off")
        wal.append([("up", ("c", "d"))], {("up", 2): 2})
        wal.close()
        recovered, report = recover(str(directory), fsync="off")
        expected = Database.from_facts(SG_FACTS + [("up", ("c", "d"))])
        assert recovered.to_text() == expected.to_text()
        assert report.replayed == 2
        assert recovered.lineage == LINEAGE
        recovered.close()


class TestWalTailDamage:
    def _one_record_log(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog.create(path, LINEAGE, fsync="always")
        wal.append([("p", ("a", "b"))], {})
        wal.close()
        return path

    def test_torn_record_head_is_reported_not_raised(self, tmp_path):
        path = self._one_record_log(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02")  # 2 of the 8 head bytes
        reader = WalReader(path)
        assert len(reader) == 1
        assert "torn record head" in reader.tail_error

    def test_torn_record_body_is_reported_not_raised(self, tmp_path):
        path = self._one_record_log(tmp_path)
        extra = _encode_record(2, {("p", 2): 1}, [("p", ("b", "c"))])
        with open(path, "ab") as handle:
            handle.write(extra[:-3])
        reader = WalReader(path)
        assert len(reader) == 1
        assert "torn record 2" in reader.tail_error

    def test_checksum_mismatch_ends_the_clean_prefix(self, tmp_path):
        path = self._one_record_log(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes((last[0] ^ 0xFF,)))
        reader = WalReader(path)
        assert len(reader) == 0
        assert "checksum mismatch at record 1" in reader.tail_error
        assert reader.valid_bytes == _HEADER_LEN

    def test_open_truncates_torn_tail_and_resumes(self, tmp_path):
        path = self._one_record_log(tmp_path)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 17)
        wal, reader = WriteAheadLog.open(path, fsync="always")
        assert reader.tail_error is not None
        assert os.path.getsize(path) == clean_size
        wal.append([("p", ("b", "c"))], {("p", 2): 1})
        wal.close()
        final = WalReader(path)
        assert len(final) == 2
        assert final.tail_error is None

    def test_short_header_reads_as_empty(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(MAGIC + b"abc")
        reader = WalReader(path)
        assert reader.lineage is None
        assert len(reader) == 0
        assert "short header" in reader.tail_error

    def test_open_recreates_over_torn_header(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(MAGIC[:4])
        wal, reader = WriteAheadLog.open(path, fsync="off")
        assert reader.lineage is None
        assert wal.seq == 0
        assert len(wal.lineage) == 24
        wal.append([("p", ("a",))], {})
        wal.close()
        assert WalReader(path).tail_error is None

    def test_bad_magic_is_structural(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL!" + b"0" * 25 + b"x" * 64)
        with pytest.raises(WalError):
            WalReader(path)

    def test_mid_log_sequence_gap_is_structural(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(MAGIC + LINEAGE.encode("ascii") + b"\n")
            # First record claims seq 2: no crash can produce this.
            handle.write(_encode_record(2, {}, [("p", ("a",))]))
        with pytest.raises(WalError) as info:
            WalReader(path)
        assert "sequence gap" in str(info.value)

    def test_failed_log_refuses_append_and_flush(self, tmp_path):
        wal = WriteAheadLog.create(
            wal_path(tmp_path), LINEAGE, fsync="off"
        )
        wal._failed = "simulated"
        with pytest.raises(WalError):
            wal.append([("p", ("a",))], {})
        with pytest.raises(WalError):
            wal.flush()
        wal.close()  # failed close is a no-op, not an error


class TestCheckpointFiles:
    def _db(self):
        return Database.from_facts(SG_FACTS)

    def test_round_trip_restores_identical_state(self, tmp_path):
        db = self._db()
        path = str(tmp_path / "ckpt-000000000001.bin")
        assert write_checkpoint(path, db, wal_seq=1) == path
        checkpoint = read_checkpoint(path)
        assert checkpoint.wal_seq == 1
        assert checkpoint.lineage == db.lineage
        restored = checkpoint.restore(Database())
        assert restored.to_text() == db.to_text()
        assert restored.lineage == db.lineage
        for key in db.keys():
            assert restored.epoch_of(key) == db.epoch_of(key)

    def test_restore_refuses_nonempty_database(self, tmp_path):
        db = self._db()
        path = str(tmp_path / "ckpt-000000000001.bin")
        write_checkpoint(path, db, wal_seq=1)
        occupied = Database.from_facts([("up", ("x", "y"))])
        with pytest.raises(ValueError):
            read_checkpoint(path).restore(occupied)

    def test_corruption_raises_soft_checkpoint_error(self, tmp_path):
        db = self._db()
        path = str(tmp_path / "ckpt-000000000001.bin")
        write_checkpoint(path, db, wal_seq=1)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes((last[0] ^ 0xFF,)))
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(path)
        assert "checksum mismatch" in str(info.value)

    def test_short_file_and_bad_magic(self, tmp_path):
        short = str(tmp_path / "short.bin")
        with open(short, "wb") as handle:
            handle.write(b"RE")
        with pytest.raises(CheckpointError):
            read_checkpoint(short)
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as handle:
            handle.write(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            read_checkpoint(bad)

    def test_store_prunes_beyond_keep(self, tmp_path):
        db = self._db()
        store = CheckpointStore(str(tmp_path), keep=2)
        for seq in (1, 2, 3):
            store.write(db, seq)
        names = [os.path.basename(p) for p in store.paths()]
        assert names == ["ckpt-000000000003.bin", "ckpt-000000000002.bin"]

    def test_store_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path), keep=0)

    def test_load_newest_falls_back_past_corruption(self, tmp_path):
        db = self._db()
        store = CheckpointStore(str(tmp_path), keep=5)
        store.write(db, 1)
        newest = store.write(db, 2)
        with open(newest, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes((last[0] ^ 0xFF,)))
        checkpoint, skipped = store.load_newest(lineage=db.lineage)
        assert checkpoint.wal_seq == 1
        assert len(skipped) == 1
        assert skipped[0][0] == newest

    def test_load_newest_filters_lineage_and_future(self, tmp_path):
        db = self._db()
        store = CheckpointStore(str(tmp_path), keep=5)
        store.write(db, 3)
        # Wrong lineage: the file describes some other log's history.
        checkpoint, skipped = store.load_newest(lineage="f" * 24)
        assert checkpoint is None
        assert "lineage" in skipped[0][1]
        # "From the future": claims more WAL records than survived.
        checkpoint, skipped = store.load_newest(
            lineage=db.lineage, max_seq=2
        )
        assert checkpoint is None
        assert "beyond surviving log" in skipped[0][1]


class TestDurableDatabase:
    def test_fresh_directory_reports_fresh(self, tmp_path):
        with DurableDatabase(str(tmp_path / "d"), fsync="off") as db:
            assert db.recovery.fresh
            assert db.wal_seq == 0
            assert db.recovery.to_dict()["epochs"] == {}

    def test_ingest_close_recover_is_identity(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="always") as db:
            db.add_facts(SG_FACTS)
            db.add_fact("up", "c", "d")
            before_text = db.to_text()
            before_epochs = {key: db.epoch_of(key) for key in db.keys()}
            lineage = db.lineage
        recovered, report = recover(directory, fsync="off")
        assert recovered.to_text() == before_text
        assert report.epochs == before_epochs
        assert recovered.lineage == lineage
        assert report.wal_records == 2
        assert report.replayed == 2
        assert report.checkpoint_seq == 0
        assert not report.fresh
        recovered.close()

    def test_generator_batches_are_logged_as_lists(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="off") as db:
            db.add_facts(
                ("edge", (str(i), str(i + 1))) for i in range(3)
            )
        reader = WalReader(os.path.join(directory, "wal.log"))
        assert reader.records[0].facts == [
            ("edge", ("0", "1")), ("edge", ("1", "2")),
            ("edge", ("2", "3")),
        ]

    def test_checkpoint_skips_replayed_prefix(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="batch") as db:
            db.add_facts(SG_FACTS)
            db.checkpoint()
            db.add_facts([("up", ("c", "d"))])
            expected = db.to_text()
        recovered, report = recover(directory, fsync="off")
        assert report.checkpoint_seq == 1
        assert report.wal_records == 2
        assert report.replayed == 1
        assert recovered.to_text() == expected
        recovered.close()

    def test_wal_stats_surface_on_the_database(self, tmp_path):
        with DurableDatabase(str(tmp_path / "d"), fsync="off") as db:
            db.add_facts(SG_FACTS)
            stats = db.wal_stats
        assert stats["appends"] == 1
        assert stats["bytes"] > 0

    def test_torn_tail_costs_only_the_torn_record(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="always") as db:
            db.add_facts(SG_FACTS)
            expected = db.to_text()
        with open(os.path.join(directory, "wal.log"), "ab") as handle:
            handle.write(b"\x99" * 23)
        recovered, report = recover(directory, fsync="off")
        assert report.truncated_tail is not None
        assert recovered.to_text() == expected
        # The tail was physically truncated: a second recovery is clean.
        recovered.close()
        second, report2 = recover(directory, fsync="off")
        assert report2.truncated_tail is None
        assert second.to_text() == expected
        second.close()

    def test_checkpoints_without_wal_refuse_to_guess(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="off") as db:
            db.add_facts(SG_FACTS)
            db.checkpoint()
        os.remove(os.path.join(directory, "wal.log"))
        with pytest.raises(RecoveryError) as info:
            DurableDatabase(directory, fsync="off")
        assert "refusing to guess" in str(info.value)

    def test_torn_header_with_checkpoints_is_contradiction(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="off") as db:
            db.add_facts(SG_FACTS)
            db.checkpoint()
        with open(os.path.join(directory, "wal.log"), "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(RecoveryError) as info:
            DurableDatabase(directory, fsync="off")
        assert "torn but checkpoints exist" in str(info.value)

    def test_torn_header_alone_restarts_fresh(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableDatabase(directory, fsync="off") as db:
            old_lineage = db.lineage
        with open(os.path.join(directory, "wal.log"), "r+b") as handle:
            handle.truncate(10)
        recovered, report = recover(directory, fsync="off")
        assert report.fresh
        assert "short header" in report.truncated_tail
        assert recovered.lineage != old_lineage
        recovered.close()

    def test_stamp_mismatch_is_two_histories(self, tmp_path):
        directory = str(tmp_path / "d")
        os.makedirs(directory)
        path = os.path.join(directory, "wal.log")
        wal = WriteAheadLog.create(path, LINEAGE, fsync="off")
        wal.append([("p", ("a", "b"))], {})
        # Record 2 claims p/2 sat at epoch 5 before it — but replaying
        # record 1 leaves it at 1.  The files disagree about history.
        wal.append([("p", ("b", "c"))], {("p", 2): 5})
        wal.close()
        with pytest.raises(RecoveryError) as info:
            recover(directory, fsync="off")
        assert "two different histories" in str(info.value)


class TestWarmCacheAcrossRecovery:
    def test_recovered_lineage_keeps_cache_entries_valid(
        self, tmp_path, sg_query
    ):
        directory = str(tmp_path / "d")
        db = DurableDatabase(directory, fsync="always")
        db.add_facts(SG_FACTS)
        cache = AnswerCache()
        prepared = PreparedQuery(sg_query, db, cache=cache)
        cold = prepared.run(("a",), db=db)
        assert not cold.extras.get("cache_hit")
        db.close()

        recovered, _ = recover(directory, fsync="off")
        warm = prepared.run(("a",), db=recovered)
        assert warm.extras.get("cache_hit") is True
        assert warm.answers == cold.answers
        # Mutating the recovered database still invalidates as usual.
        recovered.add_facts([("flat", ("a", "zz"))])
        fresh = prepared.run(("a",), db=recovered)
        assert not fresh.extras.get("cache_hit")
        assert ("zz",) in fresh.answers
        recovered.close()


class TestAuditLog:
    def test_buffering_honors_flush_every(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        log = AuditLog(path, flush_every=3)
        log.record({"request_id": 1})
        log.record({"request_id": 2})
        assert read_audit(path)[0] == []  # still buffered
        log.record({"request_id": 3})    # hits the threshold
        entries, torn = read_audit(path)
        assert [e["request_id"] for e in entries] == [1, 2, 3]
        assert torn is None
        log.record({"request_id": 4})
        log.close()                      # close drains the buffer
        assert len(read_audit(path)[0]) == 4
        log.record({"request_id": 5})    # after close: dropped, no error
        assert len(read_audit(path)[0]) == 4

    def test_flush_every_validation(self, tmp_path):
        with pytest.raises(ValueError):
            AuditLog(str(tmp_path / "a.jsonl"), flush_every=0)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_audit(str(tmp_path / "nope.jsonl")) == ([], None)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"request_id": 1}\n{"request_id": 2, "out')
        entries, torn = read_audit(path)
        assert [e["request_id"] for e in entries] == [1]
        assert "torn final entry" in torn

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"request_id": 1}\ngarbage\n{"request_id": 3}\n')
        with pytest.raises(ValueError) as info:
            read_audit(path)
        assert "line 2" in str(info.value)

    def test_result_fingerprint_is_order_insensitive(self):
        a = result_fingerprint([("x",), ("y", 2)])
        b = result_fingerprint([("y", 2), ("x",)])
        assert a == b
        assert a != result_fingerprint([("x",)])

    def test_epoch_hash_names_state_and_lineage(self):
        db = Database.from_facts(SG_FACTS)
        before = epoch_hash(db)
        scoped = epoch_hash(db, keys=[("up", 2)])
        db.add_fact("flat", "q", "r")
        assert epoch_hash(db) != before
        # The scoped name ignores relations outside the read set.
        assert epoch_hash(db, keys=[("up", 2)]) == scoped
        twin = Database.from_facts(SG_FACTS)
        twin.add_fact("flat", "q", "r")
        assert epoch_hash(twin) != epoch_hash(db)  # different lineage

    def test_jsonable_constants(self):
        rendered, replayable = jsonable_constants(("a", 3, None))
        assert rendered == ["a", 3, None]
        assert replayable
        rendered, replayable = jsonable_constants((("r1", ("w",)),))
        assert rendered == [repr(("r1", ("w",)))]
        assert not replayable


class TestVerifyAudit:
    def test_matched_skipped_and_mismatched(self, tmp_path, sg_query):
        db = Database.from_facts(SG_FACTS)
        prepared = PreparedQuery(sg_query, db)
        result = prepared.run(("a",), db=db)
        good = {
            "request_id": 1, "outcome": "completed",
            "replayable": True, "constants": ["a"],
            "epoch_hash": epoch_hash(db),
            "result_fingerprint": result_fingerprint(result.answers),
        }
        failed = dict(good, request_id=2, outcome="failed")
        stale = dict(good, request_id=3, epoch_hash="0" * 64)
        lying = dict(good, request_id=4, result_fingerprint="f" * 64)
        path = str(tmp_path / "audit.jsonl")
        with AuditLog(path, flush_every=1) as log:
            for entry in (good, failed, stale, lying):
                log.record(entry)
        report = verify_audit(path, prepared, db)
        assert report["entries"] == 4
        assert report["checked"] == 2
        assert report["matched"] == 1
        assert report["skipped"] == 2
        assert [m[0] for m in report["mismatched"]] == [4]
        assert report["torn_tail"] is None
