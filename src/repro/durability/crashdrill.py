"""The kill -9 drill: crash a serving process mid-burst, recover, verify.

``python -m repro.durability.crashdrill [DIR]`` runs two processes:

* the **child** (``--child``) opens a :class:`~repro.durability.durable.
  DurableDatabase` (``fsync="always"``) in the drill directory and
  loops: ingest one fact batch (a new tree of the same-generation
  workload), serve a burst of queries for recent roots through a
  :class:`~repro.serve.service.QueryService` with a write-through
  audit log, then print ``BATCH k`` — the marker that batch *k* and
  its burst are durable and audited;
* the **parent** spawns the child, waits for the ``--kill-after``-th
  marker, sends ``SIGKILL`` (a real, unhandleable kill — nothing in
  the child can flush or atexit its way out), then:

  1. recovers the directory (:func:`~repro.durability.durable.recover`);
  2. builds an **uncrashed control** database by replaying the WAL's
     surviving records into a plain in-memory
     :class:`~repro.engine.database.Database` — the state a process
     that stopped cleanly after the same batches would hold;
  3. asserts the recovered epoch table equals the control's (the WAL
     head), the recovered ``to_text()`` is byte-identical to the
     control's, and re-running every root query yields byte-identical
     rendered answers on both;
  4. replay-checks the audit log against the recovered state
     (:func:`~repro.durability.audit.verify_audit`) — zero mismatches.

Exit code 0 on success.
"""

import argparse
import os
import signal
import subprocess
import sys

QUERY_TEXT = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
?- sg(r0, Y).
"""

AUDIT_NAME = "audit.jsonl"

#: Fanout of each ingested tree (leaves per root).
FANOUT = 3


def tree_batch(k):
    """The facts of tree ``k``: root -> mids -> leaves, one batch."""
    facts = []
    root = "r%d" % k
    for j in range(FANOUT):
        mid = "m%d_%d" % (k, j)
        twin = "t%d_%d" % (k, j)
        leaf = "l%d_%d" % (k, j)
        facts.append(("up", (root, mid)))
        facts.append(("flat", (mid, twin)))
        facts.append(("down", (twin, leaf)))
    return facts


def expected_roots(db):
    """Roots present in ``db``, in ingestion order."""
    k = 0
    roots = []
    while ("up", 2) in db and ("r%d" % k, "m%d_0" % k) in db.get(("up", 2)):
        roots.append("r%d" % k)
        k += 1
    return roots


def _prepared(db):
    from ..datalog.parser import parse_query
    from ..exec.cache import AnswerCache
    from ..exec.prepared import PreparedQuery

    return PreparedQuery(
        parse_query(QUERY_TEXT), db, cache=AnswerCache(capacity=256)
    )


def child_main(directory, batches):
    """Ingest/serve until killed (or ``batches`` run out)."""
    from ..serve.service import QueryService
    from .audit import AuditLog
    from .durable import DurableDatabase

    db = DurableDatabase(directory, fsync="always")
    prepared = _prepared(db)
    audit = AuditLog(
        os.path.join(directory, AUDIT_NAME), flush_every=1
    )
    service = QueryService(
        prepared, db, workers=2, queue_capacity=32, audit=audit
    )
    for k in range(batches):
        db.add_facts(tree_batch(k))
        # Burst: query the most recent roots against the new state.
        futures = [
            service.submit(("r%d" % root,))
            for root in range(max(0, k - 3), k + 1)
        ]
        for future in futures:
            future.result(timeout=60.0)
        if k % 3 == 2:
            # Periodic checkpoints so the parent's recovery exercises
            # checkpoint-plus-WAL-suffix, not just a full replay.
            db.checkpoint()
        print("BATCH %d" % k, flush=True)
    service.drain()
    audit.close()
    db.close()
    return 0


def _render(prepared, db, roots):
    """Canonical text of every root's answer set (the comparison key)."""
    lines = []
    for root in roots:
        result = prepared.run((root,), db=db)
        lines.append(
            "%s -> %s"
            % (root, ", ".join(sorted(repr(a) for a in result.answers)))
        )
    return "\n".join(lines)


def parent_main(directory, kill_after, batches, out=sys.stdout):
    from ..engine.database import Database
    from .audit import verify_audit
    from .durable import WAL_NAME, recover
    from .wal import WalReader

    os.makedirs(directory, exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.durability.crashdrill",
         "--child", directory, "--batches", str(batches)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=dict(os.environ),
    )
    seen = 0
    for line in child.stdout:
        if line.startswith("BATCH "):
            seen += 1
            if seen >= kill_after:
                break
    if seen < kill_after:
        child.wait()
        out.write("FAIL: child exited after %d batch(es): rc=%s\n"
                  % (seen, child.returncode))
        return 1
    # A real kill -9: no Python-level cleanup runs in the child.
    os.kill(child.pid, signal.SIGKILL)
    child.stdout.read()
    child.wait()

    db, report = recover(directory, fsync="off")
    failures = []

    # Control: replay the surviving WAL into a plain in-memory
    # database — the uncrashed-equivalent state.
    control = Database()
    reader = WalReader(os.path.join(directory, WAL_NAME))
    for record in reader:
        control.add_facts(record.facts)
    control_epochs = {key: control.epoch_of(key) for key in control.keys()}
    recovered_epochs = {key: db.epoch_of(key) for key in db.keys()}
    if recovered_epochs != control_epochs:
        failures.append(
            "epoch table != WAL head: %r vs %r"
            % (recovered_epochs, control_epochs)
        )
    if db.to_text() != control.to_text():
        failures.append("recovered facts differ from WAL replay")

    roots = expected_roots(control)
    if len(roots) < kill_after:
        failures.append(
            "only %d root(s) survived, expected >= %d (fsync=always "
            "batches printed as durable)" % (len(roots), kill_after)
        )
    recovered_answers = _render(_prepared(db), db, roots)
    control_answers = _render(_prepared(control), control, roots)
    if recovered_answers != control_answers:
        failures.append("rendered answers differ from uncrashed control")

    audit_report = verify_audit(
        os.path.join(directory, AUDIT_NAME), _prepared(db), db
    )
    if audit_report["mismatched"]:
        failures.append(
            "audit fingerprints mismatched: %r"
            % audit_report["mismatched"]
        )

    db.close()
    out.write(
        "drill  : killed after %d batch(es); %d WAL record(s), "
        "checkpoint@%d, replayed %d%s\n"
        % (seen, report.wal_records, report.checkpoint_seq,
           report.replayed,
           ", torn tail truncated" if report.truncated_tail else "")
    )
    out.write(
        "audit  : %d entr%s, %d replay-checked, %d matched\n"
        % (audit_report["entries"],
           "y" if audit_report["entries"] == 1 else "ies",
           audit_report["checked"], audit_report["matched"])
    )
    out.write(
        "verify : %d root(s), answers %s\n"
        % (len(roots),
           "byte-identical to uncrashed control" if not failures
           else "MISMATCH")
    )
    if failures:
        for failure in failures:
            out.write("FAIL   : %s\n" % failure)
        return 1
    out.write("PASS\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.durability.crashdrill",
        description="kill -9 a serving process mid-burst, recover, and "
                    "verify byte-identical answers",
    )
    parser.add_argument("directory", nargs="?", default=None,
                        help="drill directory (default: a temp dir)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--batches", type=int, default=200,
                        help="max batches the child ingests (default 200)")
    parser.add_argument("--kill-after", type=int, default=5,
                        help="durable batches to wait for before the "
                             "kill (default 5)")
    args = parser.parse_args(argv)
    if args.child:
        if not args.directory:
            parser.error("--child requires a directory")
        return child_main(args.directory, args.batches)
    directory = args.directory
    if directory is None:
        import tempfile

        directory = tempfile.mkdtemp(prefix="repro-crashdrill-")
    return parent_main(directory, args.kill_after, args.batches)


if __name__ == "__main__":
    sys.exit(main())
