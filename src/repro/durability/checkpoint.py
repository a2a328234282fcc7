"""Atomic database checkpoints over the columnar byte fast path.

A checkpoint is one self-verifying file::

    MAGIC (8 bytes)  <u32 crc32(body)>  body
    body:   frame*            (frame = <u64 len> <bytes>)
    frames: [0] meta pickle   {wal_seq, lineage, epochs, relations, ...}
            [1] values pickle (the intern pool's dense id->value table)
            [2:] one ColumnStore.to_bytes blob per relation, in
                 meta["relations"] order

Rows are stored as intern-pool *ids* in insertion-log order
(:meth:`~repro.engine.columnar.ColumnStore.to_bytes` — raw machine
words, no per-row framing), with the pool's value table pickled once
beside them.  Restoring replays the value table into a fresh pool (ids
are dense and first-seen ordered, so replay reassigns identical ids)
and decodes each relation's rows back through it; because the blobs
preserve insertion order, the restored relations end at exactly the
epochs the checkpoint recorded, which :func:`read_checkpoint` verifies.

Writing is atomic: the file is assembled in a ``.tmp`` sibling, fsynced,
``os.replace``d over the final name, and the directory entry fsynced —
a crash leaves either the old checkpoint set or the new one, never a
half-written file under the real name.  Corruption is a *soft* failure
(:class:`~repro.errors.CheckpointError`): recovery skips the bad file
and falls back to an older checkpoint plus a longer WAL replay.
"""

import os
import pickle
import struct
import zlib

from ..engine.columnar import ColumnStore, encode_rows
from ..engine.interning import InternPool
from ..errors import CheckpointError

#: File magic: identifies checkpoint files and versions the layout.
MAGIC = b"REPROCK1"

_CRC = struct.Struct("<I")
_FRAME = struct.Struct("<Q")


def _column_blob(rel, pool):
    """Id-encode one relation's insertion log as a ColumnStore blob.

    Encoding assigns pool ids on first use — that's why the value table
    is pickled *after* the blobs.
    """
    # Epoch-pinned snapshot relations wrap the real relation; unwrap.
    frozen = getattr(rel, "_rel", None)
    if frozen is not None:
        rel = frozen()
    return encode_rows(rel._log, rel.arity, pool)


def write_checkpoint(path, db, wal_seq, lineage=None):
    """Atomically write a checkpoint of ``db`` to ``path``.

    ``wal_seq`` names the WAL record the state corresponds to (every
    record up to and including it is reflected, nothing later) — the
    caller is responsible for reading it under the same lock hold (or
    from the same snapshot) as the database state.  Returns ``path``.
    """
    if lineage is None:
        lineage = db.lineage
    pool = db.intern_pool
    keys = sorted(db._relations)
    blobs = [_column_blob(db._relations[key], pool) for key in keys]
    meta = {
        "wal_seq": wal_seq,
        "lineage": lineage,
        "relations": keys,
        "epochs": {key: db.epoch_of(key) for key in keys},
    }
    # Pickled after the blobs: encoding them may have assigned fresh
    # ids, and every id referenced by a blob must resolve.  (The pool
    # is append-only, so a concurrent ingester can only add values the
    # blobs never reference — harmless.)
    values = list(pool._values)
    frames = [
        pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
        pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL),
    ]
    frames.extend(blobs)
    body = b"".join(
        _FRAME.pack(len(frame)) + frame for frame in frames
    )
    data = MAGIC + _CRC.pack(zlib.crc32(body)) + body
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")
    return path


def _fsync_dir(directory):
    """Make a rename durable by fsyncing the directory entry."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Checkpoint:
    """A decoded, CRC-verified checkpoint ready to restore."""

    __slots__ = ("path", "meta", "_values", "_blobs")

    def __init__(self, path, meta, values, blobs):
        self.path = path
        self.meta = meta
        self._values = values
        self._blobs = blobs

    @property
    def wal_seq(self):
        return self.meta["wal_seq"]

    @property
    def lineage(self):
        return self.meta["lineage"]

    @property
    def epochs(self):
        return self.meta["epochs"]

    def restore(self, db):
        """Populate the *empty* database ``db`` with this checkpoint.

        Replaces ``db.intern_pool`` (replaying the value table
        reassigns the identical dense ids) and rebuilds every relation
        in insertion-log order, then verifies the resulting epoch table
        against the recorded one.  Mutating a non-empty database is a
        caller bug and raises :class:`ValueError`.
        """
        if db._relations:
            raise ValueError(
                "Checkpoint.restore needs an empty database, got %r"
                % (db,)
            )
        pool = InternPool()
        for value in self._values:
            pool.ident(value)
        db.intern_pool = pool
        for key, blob in zip(self.meta["relations"], self._blobs):
            try:
                store = ColumnStore.from_bytes(blob)
            except ValueError as exc:
                raise CheckpointError(
                    "%s: bad column blob for %s/%d: %s"
                    % (self.path, key[0], key[1], exc)
                )
            rel = db.relation(key[0], key[1])
            decode_row = pool.decode_row
            add = rel.add
            try:
                for ordinal in range(len(store)):
                    add(decode_row(store.row(ordinal)))
            except IndexError:
                raise CheckpointError(
                    "%s: %s/%d references ids outside the value table"
                    % (self.path, key[0], key[1])
                )
            recorded = self.meta["epochs"][key]
            if rel.epoch != recorded:
                raise CheckpointError(
                    "%s: %s/%d restored to epoch %d, recorded %d"
                    % (self.path, key[0], key[1], rel.epoch, recorded)
                )
        db.lineage = self.lineage
        return db

    def __repr__(self):
        return "Checkpoint(%s, wal_seq=%d, %d relation(s))" % (
            self.path, self.wal_seq, len(self.meta["relations"])
        )


def read_checkpoint(path):
    """Read and verify one checkpoint file; returns a :class:`Checkpoint`.

    Every structural problem — short file, bad magic, CRC mismatch,
    undecodable pickle, frame/relation count disagreement — raises
    :class:`~repro.errors.CheckpointError`, which recovery treats as
    "skip this file and fall back".
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError("%s: unreadable: %s" % (path, exc))
    prefix = len(MAGIC) + _CRC.size
    if len(data) < prefix:
        raise CheckpointError("%s: short file (%d bytes)" % (path, len(data)))
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(
            "%s: bad magic %r" % (path, data[: len(MAGIC)])
        )
    (crc,) = _CRC.unpack_from(data, len(MAGIC))
    body = data[prefix:]
    if zlib.crc32(body) != crc:
        raise CheckpointError("%s: checksum mismatch" % path)
    frames = []
    offset = 0
    n = len(body)
    while offset < n:
        if offset + _FRAME.size > n:
            raise CheckpointError("%s: torn frame header" % path)
        (length,) = _FRAME.unpack_from(body, offset)
        start = offset + _FRAME.size
        if start + length > n:
            raise CheckpointError("%s: torn frame body" % path)
        frames.append(body[start:start + length])
        offset = start + length
    if len(frames) < 2:
        raise CheckpointError(
            "%s: expected meta and value frames, got %d"
            % (path, len(frames))
        )
    try:
        meta = pickle.loads(frames[0])
        values = pickle.loads(frames[1])
    except Exception as exc:
        raise CheckpointError("%s: undecodable pickle: %s" % (path, exc))
    if (
        not isinstance(meta, dict)
        or "wal_seq" not in meta
        or "lineage" not in meta
        or "relations" not in meta
        or "epochs" not in meta
    ):
        raise CheckpointError("%s: malformed meta frame" % path)
    if len(frames) - 2 != len(meta["relations"]):
        raise CheckpointError(
            "%s: %d relation blob(s) for %d relation(s)"
            % (path, len(frames) - 2, len(meta["relations"]))
        )
    return Checkpoint(path, meta, values, frames[2:])


class CheckpointStore:
    """Manage the checkpoint files of one durability directory.

    Files are named ``ckpt-<wal_seq>.bin``; the newest valid one (by
    WAL sequence) wins at recovery.  :meth:`write` retains the
    ``keep`` most recent files so a corrupt newest checkpoint always
    has a fallback.
    """

    def __init__(self, directory, keep=2):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = directory
        self.keep = keep

    def _path_for(self, wal_seq):
        return os.path.join(self.directory, "ckpt-%012d.bin" % wal_seq)

    def paths(self):
        """Checkpoint paths, newest (highest WAL sequence) first."""
        entries = []
        for name in os.listdir(self.directory):
            if name.startswith("ckpt-") and name.endswith(".bin"):
                try:
                    seq = int(name[5:-4])
                except ValueError:
                    continue
                entries.append((seq, os.path.join(self.directory, name)))
        entries.sort(reverse=True)
        return [path for _, path in entries]

    def write(self, db, wal_seq, lineage=None):
        """Checkpoint ``db`` at ``wal_seq`` and prune old files."""
        path = write_checkpoint(
            self._path_for(wal_seq), db, wal_seq, lineage
        )
        for stale in self.paths()[self.keep:]:
            try:
                os.remove(stale)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return path

    def load_newest(self, lineage=None, max_seq=None):
        """The newest usable checkpoint, or ``None``.

        Skips files that fail verification (:class:`~repro.errors.
        CheckpointError`), belong to a different ``lineage``, or claim
        a WAL sequence beyond ``max_seq`` (a checkpoint "from the
        future" relative to the surviving log cannot be trusted).
        Returns ``(checkpoint_or_None, skipped)`` where ``skipped``
        lists ``(path, reason)`` pairs for the files passed over.
        """
        skipped = []
        for path in self.paths():
            try:
                checkpoint = read_checkpoint(path)
            except CheckpointError as exc:
                skipped.append((path, str(exc)))
                continue
            if lineage is not None and checkpoint.lineage != lineage:
                skipped.append(
                    (path, "lineage %s does not match log %s"
                     % (checkpoint.lineage, lineage))
                )
                continue
            if max_seq is not None and checkpoint.wal_seq > max_seq:
                skipped.append(
                    (path, "wal_seq %d beyond surviving log (%d)"
                     % (checkpoint.wal_seq, max_seq))
                )
                continue
            return checkpoint, skipped
        return None, skipped

    def __repr__(self):
        return "CheckpointStore(%s, keep=%d, %d file(s))" % (
            self.directory, self.keep, len(self.paths())
        )
