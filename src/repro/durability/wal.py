"""Append-only, epoch-stamped write-ahead log of EDB mutations.

One record per :meth:`~repro.engine.database.Database.add_facts` batch.
On-disk layout::

    header:  MAGIC (8 bytes)  lineage (24 ascii hex bytes)  '\\n'
    record:  <u32 payload_len> <u32 crc32(payload)> <payload>
    payload: <u64 seq> <pickle of (stamps, names, runs)>

``names`` / ``runs`` are the batch exactly as the ``add_facts`` caller
gave it — order and duplicates preserved, no per-fact re-encoding —
cut into runs of consecutive facts of one relation name:
``names[i]`` is the name of run ``i`` and ``runs[i]`` the list of its
facts' values, so a name is pickled once per run, not once per fact.
Decoding gives back the ``(name, values)`` list, and replay feeds it
straight back through the engine, which reproduces deduplication
deterministically.  A record of the earlier layout, ``(stamps,
facts)`` with ``facts`` the ``(name, values)`` list itself, decodes
to the same list.

``stamps`` is the *whole* pre-batch epoch table —
``{(name, arity): epoch_before_the_batch}`` for every relation that
existed when the batch was logged (a relation the batch creates first
appears in the *next* record's stamps, implicitly starting at epoch 0).
Snapshotting the full table costs O(#relations) per record —
independent of batch size — so stamping adds *nothing per fact* to the
ingest hot path; that, plus logging the batch un-transformed, is what
keeps the logged path inside the <10 % overhead budget the S5 benchmark
enforces.  Recovery verifies stamps inductively — record *k* applies
only when the recovering database sits at exactly the epochs record *k*
was stamped with — which transitively proves the final epoch table
matches the log head.

All integers are little-endian.  The file is opened unbuffered
(``buffering=0``), so a simulated crash (:class:`~repro.engine.faults.
SimulatedCrash`) leaves on disk exactly the bytes the plan allowed
through — no Python-level buffer to leak extra data past the "death".

Fsync policy:

* ``"always"`` — fsync after every record; a record returned from
  :meth:`~WriteAheadLog.append` is on the platter.
* ``"batch"`` — fsync only on :meth:`~WriteAheadLog.flush` / ``close``
  (and the checkpointing path calls ``flush`` before cutting a
  checkpoint).  A crash may lose the records since the last flush but
  never corrupts the prefix.
* ``"off"`` — never fsync (tests, throwaway runs).

Torn-tail handling: :class:`WalReader` stops at the first record whose
length field runs past end-of-file or whose CRC fails, reports the
clean prefix, and :meth:`WriteAheadLog.open` truncates the file back
to that prefix before appending — a torn tail costs the torn records,
never the log.
"""

import io
import os
import pickle
import struct
import time
import zlib

from ..engine import faults
from ..errors import WalError

#: File magic: identifies WAL files and versions the record format.
MAGIC = b"REPROWL1"

_HEAD = struct.Struct("<II")   # payload_len, crc32(payload)
_SEQ = struct.Struct("<Q")     # record sequence number

#: Header length: magic + 24 hex chars of lineage + newline.
_HEADER_LEN = len(MAGIC) + 24 + 1


class WalRecord:
    """One decoded WAL record: an ``add_facts`` batch and its stamps."""

    __slots__ = ("seq", "stamps", "facts")

    def __init__(self, seq, stamps, facts):
        #: 1-based position in the log (dense; replay enforces it).
        self.seq = seq
        #: ``{(name, arity): pre-batch epoch}`` — the whole table.
        self.stamps = stamps
        #: The batch exactly as given: ``(name, values)`` pairs.
        self.facts = facts

    def __repr__(self):
        return "WalRecord(seq=%d, %d fact(s), %d relation(s))" % (
            self.seq, len(self.facts), len(self.stamps)
        )


def _runs(facts):
    """``(names, runs)``: ``facts`` cut into runs of consecutive facts
    of one name (see the module docstring)."""
    if isinstance(facts, list) and facts:
        # A bulk load is one run: one comprehension, no per-fact branch.
        name = facts[0][0]
        if facts[-1][0] == name:
            rows = [values for other, values in facts if other == name]
            if len(rows) == len(facts):
                return [name], [rows]
    names = []
    runs = []
    last = add = None
    for name, values in facts:
        if add is None or name != last:
            last = name
            rows = []
            add = rows.append
            names.append(name)
            runs.append(rows)
        add(values)
    return names, runs


def _encode_record(seq, stamps, facts):
    names, runs = _runs(facts)
    # Pickled without a memo ("fast" mode): a batch of constant rows
    # has no cycles, and its repeats are short, so back-references
    # save few bytes while memo upkeep is most of the encoding time.
    buffer = io.BytesIO()
    buffer.write(_SEQ.pack(seq))
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump((stamps, names, runs))
    payload = buffer.getvalue()
    return _HEAD.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(seq_expected, payload):
    (seq,) = _SEQ.unpack_from(payload)
    decoded = pickle.loads(payload[_SEQ.size:])
    if len(decoded) == 2:
        # The earlier layout: the (name, values) list as it was given.
        stamps, facts = decoded
    else:
        stamps, names, runs = decoded
        facts = [
            (name, values)
            for name, rows in zip(names, runs) for values in rows
        ]
    return WalRecord(seq, stamps, facts), seq == seq_expected


class WalReader:
    """Scan a WAL file, yielding the longest clean prefix of records.

    Never raises for tail damage — a short header, torn record, or CRC
    mismatch ends the scan and is described in :attr:`tail_error`;
    :attr:`valid_bytes` is the offset the clean prefix ends at (what
    :meth:`WriteAheadLog.open` truncates back to).  Only structural
    impossibilities (wrong magic, a *mid-log* sequence gap, which no
    crash can produce) raise :class:`~repro.errors.WalError`.
    """

    def __init__(self, path):
        self.path = path
        self.lineage = None
        self.records = []
        self.valid_bytes = 0
        self.tail_error = None
        self._scan()

    def _scan(self):
        with open(self.path, "rb") as handle:
            data = handle.read()
        if len(data) < _HEADER_LEN:
            # A header torn mid-write: treat as an empty, reusable log.
            self.tail_error = "short header (%d bytes)" % len(data)
            return
        if data[: len(MAGIC)] != MAGIC:
            raise WalError(
                "%s: not a WAL file (bad magic %r)"
                % (self.path, data[: len(MAGIC)])
            )
        lineage = data[len(MAGIC): len(MAGIC) + 24]
        if data[_HEADER_LEN - 1: _HEADER_LEN] != b"\n":
            self.tail_error = "short header (unterminated lineage)"
            return
        try:
            self.lineage = lineage.decode("ascii")
        except UnicodeDecodeError:
            raise WalError("%s: undecodable lineage in header" % self.path)
        offset = _HEADER_LEN
        self.valid_bytes = offset
        seq = 0
        n = len(data)
        while offset < n:
            if offset + _HEAD.size > n:
                self.tail_error = "torn record head at byte %d" % offset
                return
            length, crc = _HEAD.unpack_from(data, offset)
            start = offset + _HEAD.size
            end = start + length
            if end > n:
                self.tail_error = (
                    "torn record %d (%d of %d payload bytes)"
                    % (seq + 1, n - start, length)
                )
                return
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                self.tail_error = "checksum mismatch at record %d" % (
                    seq + 1
                )
                return
            try:
                record, seq_ok = _decode_payload(seq + 1, payload)
            except Exception as exc:
                self.tail_error = "undecodable record %d: %s" % (
                    seq + 1, exc
                )
                return
            if not seq_ok:
                raise WalError(
                    "%s: sequence gap at record %d (file says %d)"
                    % (self.path, seq + 1, record.seq)
                )
            seq += 1
            self.records.append(record)
            offset = end
            self.valid_bytes = offset

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


class WriteAheadLog:
    """The writable log.  Create via :meth:`create` or :meth:`open`.

    Not internally locked: :class:`~repro.durability.durable.
    DurableDatabase` calls :meth:`append` under the database mutation
    lock, which is exactly what makes WAL order equal epoch order.
    """

    def __init__(self, path, handle, lineage, seq, fsync="batch"):
        if fsync not in ("always", "batch", "off"):
            raise WalError("unknown fsync policy %r" % (fsync,))
        self.path = path
        self.lineage = lineage
        self.fsync = fsync
        self._handle = handle
        self._seq = seq
        self._dirty = False
        self._failed = None
        #: Cumulative cost of the log itself: ``appends`` / ``bytes``
        #: written, ``fsyncs`` issued, and ``append_seconds`` spent
        #: inside :meth:`append` (encode + write + policy fsync).  The
        #: S5 benchmark divides ``append_seconds`` by the rest of the
        #: ingest time to assert the <10 % overhead claim without the
        #: run-to-run noise of comparing two separate ingests.
        self.stats = {
            "appends": 0, "bytes": 0, "fsyncs": 0,
            "append_seconds": 0.0,
        }

    @classmethod
    def create(cls, path, lineage, fsync="batch"):
        """Start a fresh log (the file must not exist)."""
        if len(lineage) != 24:
            raise WalError(
                "lineage must be 24 hex chars, got %r" % (lineage,)
            )
        handle = open(path, "xb", buffering=0)
        handle.write(MAGIC + lineage.encode("ascii") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, handle, lineage, seq=0, fsync=fsync)

    @classmethod
    def open(cls, path, fsync="batch"):
        """Reopen an existing log for appending.

        Scans the file first; a torn tail is truncated away (the
        default posture after a crash — the torn record never reached
        durability, so dropping it is the *correct* reading of the
        file).  Returns ``(wal, reader)`` so the caller can replay the
        surviving records.
        """
        reader = WalReader(path)
        if reader.lineage is None:
            # Header never finished: re-create in place.
            os.remove(path)
            wal = cls.create(
                path, lineage=os.urandom(12).hex(), fsync=fsync
            )
            return wal, reader
        handle = open(path, "r+b", buffering=0)
        if reader.tail_error is not None:
            handle.truncate(reader.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        handle.seek(reader.valid_bytes)
        wal = cls(
            path, handle, reader.lineage, seq=len(reader.records),
            fsync=fsync,
        )
        return wal, reader

    @property
    def seq(self):
        """Sequence number of the last durable-or-pending record."""
        return self._seq

    def append(self, facts, stamps):
        """Log one batch; returns the record's sequence number.

        Must be called *before* the batch is applied to the database
        (write-ahead), with ``stamps`` — the pre-batch epoch table —
        read under the same lock hold.
        """
        if self._failed is not None:
            raise WalError(
                "WAL is failed (%s); reopen to recover" % self._failed
            )
        started = time.perf_counter()
        seq = self._seq + 1
        encoded = _encode_record(seq, stamps, facts)
        damage = faults.wal_event("append", len(encoded))
        if damage is not None:
            self._apply_damage(damage, encoded)
        self._handle.write(encoded)
        self._seq = seq
        if self.fsync == "always":
            self._fsync_now()
        else:
            self._dirty = True
        stats = self.stats
        stats["appends"] += 1
        stats["bytes"] += len(encoded)
        stats["append_seconds"] += time.perf_counter() - started
        return seq

    def _apply_damage(self, damage, encoded):
        """Apply an injected crash plan's instruction, then "die"."""
        kind = damage[0]
        if kind == "torn":
            self._handle.write(encoded[: damage[1]])
        elif kind == "corrupt":
            offset = _HEAD.size + (damage[1] % max(len(encoded) - _HEAD.size, 1))
            corrupted = (
                encoded[:offset]
                + bytes((encoded[offset] ^ 0xFF,))
                + encoded[offset + 1:]
            )
            self._handle.write(corrupted)
        elif kind != "crash":
            raise WalError("unknown damage instruction %r" % (damage,))
        # "crash": the record was never written at all for append
        # events; for fsync events the handling lives in _fsync_now.
        self._die("injected crash during append")

    def _fsync_now(self):
        damage = faults.wal_event("fsync")
        if damage is not None:
            # Record bytes are in the file; the fsync never happened.
            self._die("injected crash before fsync")
        os.fsync(self._handle.fileno())
        self.stats["fsyncs"] += 1
        self._dirty = False

    def _die(self, reason):
        self._failed = reason
        try:
            self._handle.close()
        except OSError:
            pass
        raise faults.SimulatedCrash(reason)

    def flush(self):
        """Make every appended record durable (fsync unless ``off``)."""
        if self._failed is not None:
            raise WalError(
                "WAL is failed (%s); reopen to recover" % self._failed
            )
        if self._dirty and self.fsync != "off":
            self._fsync_now()
        self._dirty = False

    def close(self):
        if self._failed is not None or self._handle.closed:
            return
        if self._dirty and self.fsync != "off":
            os.fsync(self._handle.fileno())
            self._dirty = False
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def dump(self):
        """Human-readable text rendering of the log (for debugging).

        Facts are rendered with the same :func:`~repro.datalog.pretty.
        format_value` syntax ``Database.to_text`` uses, so the dump of
        a full log is a valid fact program.
        """
        from ..datalog.pretty import format_value

        reader = WalReader(self.path)
        lines = ["%% wal %s lineage=%s" % (self.path, reader.lineage)]
        for record in reader:
            stamps = ", ".join(
                "%s/%d@%d" % (name, arity, epoch)
                for (name, arity), epoch in sorted(record.stamps.items())
            )
            lines.append("%% record %d: %s" % (record.seq, stamps))
            for name, values in record.facts:
                lines.append(
                    "%s(%s)."
                    % (name, ", ".join(format_value(v) for v in values))
                )
        if reader.tail_error is not None:
            lines.append("%% tail: %s" % reader.tail_error)
        return "\n".join(lines)

    def __repr__(self):
        state = self._failed or ("open" if not self._handle.closed
                                 else "closed")
        return "WriteAheadLog(%s, seq=%d, fsync=%s, %s)" % (
            self.path, self._seq, self.fsync, state
        )
