"""Buffered JSONL audit log of served queries.

One JSON object per served request, written by
:class:`~repro.serve.service.QueryService` from its worker threads::

    {"request_id": 17, "form": "sg/2", "constants": ["a"],
     "epoch_hash": "...", "lineage": "...", "outcome": "completed",
     "strategy": "pointer_counting", "execution_time_ms": 1.84,
     "result_fingerprint": "...", "attempts": [...], "fallback": false}

Two fields make the log *replay-checkable* after recovery:

* ``epoch_hash`` — a digest of the epoch table the request was served
  against (plus the database lineage), naming the exact EDB state;
* ``result_fingerprint`` — an order-insensitive digest of the rendered
  answer set.

:func:`verify_audit` re-runs the completed entries against a database
and compares fingerprints — after a crash and recovery, entries whose
``epoch_hash`` matches the recovered state must reproduce their
fingerprints byte-identically, which is the end-to-end durability
check the crash drill performs.

Writes are buffered (``flush_every`` entries) and flushed on
:meth:`AuditLog.flush` / :meth:`~AuditLog.close` — the service drains
the buffer when it drains its queues.  Reading tolerates a torn final
line (the process may die mid-entry); everything before it parses.
"""

import hashlib
import io
import json
import os
import threading

_SCALARS = (str, int, float, bool, type(None))


def result_fingerprint(answers):
    """Order-insensitive sha256 over the rendered answer set.

    Hashes the sorted ``repr`` of each answer tuple — the same
    canonical text two byte-identical answer sets render to, however
    they were computed (any strategy).
    """
    digest = hashlib.sha256()
    for line in sorted(repr(answer) for answer in answers):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def epoch_hash(db, keys=None):
    """Digest naming one EDB state: lineage plus the epoch table.

    ``keys=None`` hashes every relation; passing a query's read keys
    restricts the name to the state that query can observe.
    """
    digest = hashlib.sha256()
    digest.update(getattr(db, "lineage", "").encode("ascii"))
    digest.update(b"\n")
    selected = sorted(db.keys() if keys is None else keys)
    for key in selected:
        digest.update(
            ("%s/%d:%d\n" % (key[0], key[1], db.epoch_of(key)))
            .encode("utf-8")
        )
    return digest.hexdigest()


def jsonable_constants(constants):
    """Render binding constants for the JSON entry.

    Returns ``(rendered, replayable)``: scalar constants pass through
    and can be fed back to ``PreparedQuery.run`` by the verifier;
    structured constants (tuples — the paper's encoded lists) are
    rendered as ``repr`` strings and the entry is marked
    non-replayable rather than lossily coerced.
    """
    if all(isinstance(value, _SCALARS) for value in constants):
        return list(constants), True
    return [repr(value) for value in constants], False


class AuditLog:
    """Append-only, thread-safe JSONL writer with buffered flushing.

    ``flush_every=1`` writes through on every entry (the crash drill
    uses this so the log is as current as the WAL); larger values
    amortize the write syscall across a burst.  Entries buffered but
    not yet flushed are lost in a crash — the audit log is an
    *observability* record, deliberately off the ingest hot path, so
    it trades tail completeness for zero added fsyncs.
    """

    def __init__(self, path, flush_every=32):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.flush_every = flush_every
        self._lock = threading.Lock()
        self._buffer = []
        self._handle = open(path, "a", encoding="utf-8")
        self.entries_written = 0

    def record(self, entry):
        """Buffer one entry (a JSON-ready dict)."""
        line = json.dumps(entry, sort_keys=True, default=repr)
        with self._lock:
            if self._handle.closed:
                return
            self._buffer.append(line)
            self.entries_written += 1
            if len(self._buffer) >= self.flush_every:
                self._flush_locked()

    def _flush_locked(self):
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._handle.flush()
            self._buffer = []

    def flush(self):
        """Write every buffered entry through to the file."""
        with self._lock:
            if not self._handle.closed:
                self._flush_locked()

    def close(self):
        with self._lock:
            if not self._handle.closed:
                self._flush_locked()
                self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return "AuditLog(%s, %d entr%s)" % (
            self.path, self.entries_written,
            "y" if self.entries_written == 1 else "ies",
        )


def read_audit(path):
    """Parse an audit log; returns ``(entries, torn_tail)``.

    A final line that does not parse (the process died mid-write) is
    reported in ``torn_tail`` instead of raising; a malformed line
    *followed by* well-formed ones is real corruption and raises
    ``ValueError``.
    """
    if not os.path.exists(path):
        return [], None
    entries = []
    torn = None
    with io.open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = handle.read().splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            if index == len(lines) - 1:
                torn = "torn final entry (%d byte(s))" % len(line)
                break
            raise ValueError(
                "%s: malformed entry at line %d" % (path, index + 1)
            )
    return entries, torn


def verify_audit(path, prepared, db, budget=None, tenant=None,
                 registry=None):
    """Re-run an audit log's completed entries against ``db``.

    Only entries that (a) completed, (b) carry replayable constants,
    and (c) were served against the state ``db`` is currently in
    (matching ``epoch_hash``) are checked — a request served before
    the last batches a crash destroyed *should* not reproduce, and is
    counted as skipped, not failed.

    Multi-tenant logs stamp each entry with its ``tenant``; passing
    ``tenant=`` restricts verification to that tenant's slice of the
    log, so each tenant's served answers are replay-checkable in
    isolation.  Entries naming a registered ``form`` are re-run
    through ``registry`` when one is given (falling back to
    ``prepared`` otherwise, which may be ``None`` if every checked
    entry names a form).

    Returns a report dict: ``checked`` / ``matched`` / ``skipped``, a
    ``mismatched`` list of ``(request_id, expected, got)`` — which
    must be empty after a faithful recovery — and a ``by_tenant``
    block with per-tenant entry/checked/matched/mismatched tallies
    over the verified slice.
    """
    entries, torn = read_audit(path)
    current = epoch_hash(db)
    checked = matched = skipped = 0
    mismatched = []
    by_tenant = {}
    for entry in entries:
        name = entry.get("tenant")
        if tenant is not None and name != tenant:
            continue
        tally = by_tenant.setdefault(
            name if name is not None else "",
            {"entries": 0, "checked": 0, "matched": 0,
             "mismatched": 0},
        )
        tally["entries"] += 1
        if (
            entry.get("outcome") != "completed"
            or not entry.get("replayable", False)
            or entry.get("epoch_hash") != current
        ):
            skipped += 1
            continue
        runner = prepared
        form = entry.get("form")
        if form is not None and registry is not None:
            runner = registry.get(form).prepared
        if runner is None:
            skipped += 1
            continue
        checked += 1
        tally["checked"] += 1
        result = runner.run(
            tuple(entry["constants"]), db=db, budget=budget
        )
        fingerprint = result_fingerprint(result.answers)
        if fingerprint == entry["result_fingerprint"]:
            matched += 1
            tally["matched"] += 1
        else:
            tally["mismatched"] += 1
            mismatched.append(
                (entry.get("request_id"),
                 entry["result_fingerprint"], fingerprint)
            )
    return {
        "entries": len(entries),
        "checked": checked,
        "matched": matched,
        "skipped": skipped,
        "mismatched": mismatched,
        "by_tenant": by_tenant,
        "torn_tail": torn,
    }
