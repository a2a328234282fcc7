"""A :class:`~repro.engine.database.Database` that survives ``kill -9``.

:class:`DurableDatabase` binds a database to a durability directory::

    <dir>/wal.log            the write-ahead log (one generation)
    <dir>/ckpt-<seq>.bin     checkpoints, named by WAL sequence

Every mutator appends to the WAL *before* publishing to memory, under
the database's existing mutation lock — the lock that already makes
``add_facts`` batches atomic is exactly what makes WAL order equal
epoch order, so no second ordering mechanism exists to disagree with
the first.  Construction *is* recovery: opening a directory loads the
newest valid checkpoint, replays the WAL suffix (verifying each
record's pre-batch epoch stamps, which transitively proves the final
epoch table matches the log head), truncates any torn tail, and
resumes appending.  The recovered database keeps the lineage token the
dead process wrote into the log header, so cross-process answer-cache
entries keyed on (lineage, epochs) remain valid.

Crash semantics of one ``add_facts`` call:

* crash before the record is durable → the batch is gone *entirely*
  after recovery (memory was never mutated either — the WAL raises
  before the in-memory apply);
* crash after → the batch is replayed *entirely*.

There is no half-batch state, mirroring the atomicity the in-memory
lock already gave concurrent readers.
"""

import os

from ..engine.database import Database
from ..errors import RecoveryError
from .checkpoint import CheckpointStore
from .wal import WriteAheadLog

#: The single WAL file of a durability directory.
WAL_NAME = "wal.log"


class RecoveryReport:
    """What recovery found and did; attached as ``db.recovery``."""

    __slots__ = (
        "directory", "lineage", "fresh", "checkpoint_path",
        "checkpoint_seq", "wal_records", "replayed", "truncated_tail",
        "skipped_checkpoints", "epochs",
    )

    def __init__(self, directory, lineage, fresh=False,
                 checkpoint_path=None, checkpoint_seq=0, wal_records=0,
                 replayed=0, truncated_tail=None,
                 skipped_checkpoints=(), epochs=None):
        self.directory = directory
        self.lineage = lineage
        #: True when the directory held no prior state.
        self.fresh = fresh
        self.checkpoint_path = checkpoint_path
        #: WAL sequence the loaded checkpoint covered (0 = none).
        self.checkpoint_seq = checkpoint_seq
        #: Records surviving in the log (the log head is this many).
        self.wal_records = wal_records
        #: Records applied on top of the checkpoint.
        self.replayed = replayed
        #: Description of a truncated torn tail, or ``None``.
        self.truncated_tail = truncated_tail
        #: ``(path, reason)`` for checkpoints passed over.
        self.skipped_checkpoints = list(skipped_checkpoints)
        #: The recovered epoch table ``{(name, arity): epoch}``.
        self.epochs = dict(epochs or {})

    def to_dict(self):
        """JSON-ready rendering (the CLI ``recover`` subcommand)."""
        return {
            "directory": self.directory,
            "lineage": self.lineage,
            "fresh": self.fresh,
            "checkpoint": self.checkpoint_path,
            "checkpoint_seq": self.checkpoint_seq,
            "wal_records": self.wal_records,
            "replayed": self.replayed,
            "truncated_tail": self.truncated_tail,
            "skipped_checkpoints": self.skipped_checkpoints,
            "epochs": {
                "%s/%d" % key: epoch
                for key, epoch in sorted(self.epochs.items())
            },
        }

    def __repr__(self):
        return (
            "RecoveryReport(%s, %d record(s), checkpoint@%d, "
            "replayed %d%s)"
            % (
                self.directory, self.wal_records, self.checkpoint_seq,
                self.replayed,
                ", torn tail" if self.truncated_tail else "",
            )
        )


class DurableDatabase(Database):
    """A database whose mutations are crash-consistent.

    Parameters
    ----------
    directory : str
        The durability directory (created if missing).  Opening a
        directory with prior state performs full recovery.
    fsync : ``"always"`` / ``"batch"`` / ``"off"``
        WAL fsync policy (see :mod:`repro.durability.wal`).
    checkpoint_keep : int
        Checkpoint files retained by :meth:`checkpoint`.
    """

    def __init__(self, directory, fsync="batch", checkpoint_keep=2):
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._checkpoints = CheckpointStore(directory, keep=checkpoint_keep)
        self._wal = None
        self.recovery = self._recover(fsync)

    # -- recovery ----------------------------------------------------

    def _recover(self, fsync):
        wal_path = os.path.join(self.directory, WAL_NAME)
        if not os.path.exists(wal_path):
            if self._checkpoints.paths():
                raise RecoveryError(
                    "%s: checkpoint files present but %s is missing — "
                    "refusing to guess which suffix of history was lost"
                    % (self.directory, WAL_NAME)
                )
            self._wal = WriteAheadLog.create(
                wal_path, self.lineage, fsync=fsync
            )
            return RecoveryReport(
                self.directory, self.lineage, fresh=True
            )
        wal, reader = WriteAheadLog.open(wal_path, fsync=fsync)
        if reader.lineage is None:
            # The header itself was torn: the log never held a durable
            # record, so prior checkpoints (if any) describe a history
            # this file cannot confirm.
            if self._checkpoints.paths():
                wal.close()
                raise RecoveryError(
                    "%s: WAL header is torn but checkpoints exist"
                    % self.directory
                )
            self._wal = wal
            self.lineage = wal.lineage
            return RecoveryReport(
                self.directory, self.lineage, fresh=True,
                truncated_tail=reader.tail_error,
            )
        self._wal = wal
        self.lineage = wal.lineage
        checkpoint, skipped = self._checkpoints.load_newest(
            lineage=wal.lineage, max_seq=len(reader.records)
        )
        base_seq = 0
        checkpoint_path = None
        if checkpoint is not None:
            checkpoint.restore(self)
            base_seq = checkpoint.wal_seq
            checkpoint_path = checkpoint.path
        replayed = 0
        for record in reader.records[base_seq:]:
            for key, epoch in sorted(record.stamps.items()):
                actual = self.epoch_of(key)
                if actual != epoch:
                    raise RecoveryError(
                        "%s: record %d stamped %s/%d at epoch %d, "
                        "database is at %d — on-disk files describe "
                        "two different histories"
                        % (self.directory, record.seq, key[0], key[1],
                           epoch, actual)
                    )
            Database.add_facts(self, record.facts)
            replayed += 1
        return RecoveryReport(
            self.directory, self.lineage,
            checkpoint_path=checkpoint_path, checkpoint_seq=base_seq,
            wal_records=len(reader.records), replayed=replayed,
            truncated_tail=reader.tail_error,
            skipped_checkpoints=skipped,
            epochs={key: self.epoch_of(key) for key in self.keys()},
        )

    # -- durable mutators --------------------------------------------

    def add_facts(self, facts):
        """Log, then apply, one atomic batch (write-ahead).

        The stamps are read and the record appended under the same
        lock hold that applies the batch, so the log's record order is
        the epoch order every snapshot observes.
        """
        if not isinstance(facts, list):
            facts = list(facts)
        with self._lock:
            # The record carries the batch exactly as given plus a
            # snapshot of the whole epoch table — O(#relations), never
            # O(#facts).  The logged path therefore does no per-fact
            # work the unlogged path doesn't (the S5 benchmark holds
            # the overhead under 10 %), and recovery still verifies
            # every stamped relation before applying the record.
            stamps = {
                key: rel.epoch for key, rel in self._relations.items()
            }
            self._wal.append(facts, stamps)
            Database.add_facts(self, facts)

    def add_fact(self, name, *values):
        self.add_facts([(name, values)])

    # -- durability controls -----------------------------------------

    @property
    def wal_seq(self):
        """Sequence number of the last logged batch."""
        return self._wal.seq

    @property
    def wal_stats(self):
        """A copy of the log's cost counters (appends, bytes, fsyncs,
        append_seconds) — what the S5 benchmark and the end-to-end
        benchmark report as the price of durability."""
        return dict(self._wal.stats)

    def flush(self):
        """Make every logged batch durable (a ``batch``-policy fsync)."""
        self._wal.flush()

    def checkpoint(self):
        """Cut a checkpoint of the current state; returns its path.

        The WAL is flushed and the state pinned under one lock hold
        (an epoch snapshot — O(#relations)), then serialized and
        written outside the lock, so ingest stalls only for the pin,
        not for the file write.
        """
        with self._lock:
            self._wal.flush()
            seq = self._wal.seq
            pinned = self.snapshot()
        return self._checkpoints.write(pinned, seq, lineage=self.lineage)

    def checkpoints(self):
        """Existing checkpoint paths, newest first."""
        return self._checkpoints.paths()

    def close(self):
        """Flush and close the WAL; the database stays readable."""
        if self._wal is not None:
            self._wal.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        inner = ", ".join(
            "%s/%d:%d" % (k[0], k[1], len(rel))
            for k, rel in sorted(self._relations.items())
        )
        return "DurableDatabase(%s, seq=%d%s%s)" % (
            self.directory, 0 if self._wal is None else self._wal.seq,
            ", " if inner else "", inner,
        )


def recover(directory, fsync="batch", checkpoint_keep=2):
    """Open ``directory`` and return ``(db, report)``.

    Construction of :class:`DurableDatabase` *is* recovery; this
    wrapper just returns the report beside the database for callers
    (the CLI ``recover`` subcommand, the crash drill) that want to
    inspect what was replayed.
    """
    db = DurableDatabase(
        directory, fsync=fsync, checkpoint_keep=checkpoint_keep
    )
    return db, db.recovery
