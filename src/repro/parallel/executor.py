"""Multiprocess executor for a :class:`~repro.parallel.plan.PartitionedPlan`.

The executor implements delta-partitioned semi-naive evaluation for
linear programs:

* The **coordinator** (this process) owns the authoritative derived
  relations.  It evaluates each clique's exit rules itself against the
  full database, then drives the recursive fixpoint: every global
  round it routes the current delta facts to their owner workers,
  waits at the barrier, and integrates the derivations the workers
  send back (counting ``facts_derived`` / ``facts_duplicate`` exactly
  once per derivation occurrence).

* Each **worker** holds the shards and broadcast replicas its plan
  entry assigned, plus replicas of lower-clique IDB relations.  Per
  round it fires every recursive rule once per routed delta fact —
  binding the recursive atom to the fact and joining the rest of the
  body locally — and ships the derived rows (with per-row
  multiplicities, so duplicate derivations still reach the
  coordinator's counters) back over the columnar
  ``ColumnStore.to_bytes`` fast path.

Because every delta fact is processed by exactly one worker and every
derivation occurrence is integrated exactly once, the merged
:class:`~repro.engine.instrumentation.EvalStats` of a ``W``-worker run
equals the same engine's single-process run for any ``W`` — the
property the differential suites and the scaling benchmark assert.
Intern pools are synchronized once at pool start (workers replay the
coordinator's dense value table in order, so ids are stable
thereafter); all shard and delta traffic is raw int64 columns.

**Self-healing.**  Workers are stateless between rounds — their
relations change only on explicit ``reshard``/``replicate`` messages —
so the coordinator can repair the pool mid-fixpoint without replaying
history.  A :class:`~repro.parallel.supervisor.Supervisor` watches
per-worker heartbeat pipes beside the data channels and classifies
failures (dead process, silent-but-alive process, overstayed barrier);
the round's routed delta portions are retained as a barrier-consistent
:class:`~repro.parallel.supervisor.RoundCheckpoint`, so at most one
round of the failed worker's work is ever re-executed.  Under
``RecoveryPolicy(mode="reassign")`` the dead worker's shards are
rehashed onto the survivors (full replacement shards are shipped
*before* its checkpointed round portion is re-routed — pipe FIFO
ordering guarantees survivors finish their in-flight old-sharding work
first); under ``mode="respawn"`` a replacement is forked into the same
slot from the retained spawn payload plus the replicate log.  Slow
workers get speculative re-execution: once a slot's barrier wait
exceeds a robust multiple of the median round time, its portion is
re-issued (to an idle peer on broadcast-only plans, else re-executed
on the coordinator) and the first result wins — delta merge is
idempotent by multiplicity integration, and a discard group guarantees
exactly one twin's derivations and counters are taken.  Recovery never
changes answers or the merged ``EvalStats`` at any crash point.

Under ``mode="serial"`` (or once ``max_repairs`` is spent) a failure
surfaces as a typed, picklable :class:`~repro.errors.WorkerCrashError`
/ :class:`~repro.errors.WorkerHungError` /
:class:`~repro.errors.RecoveryExhaustedError`, so a resilient fallback
chain degrades to a serial strategy with the repair log on the attempt
record instead of hanging or returning partial answers.
"""

import multiprocessing
import pickle
import threading
import time
from array import array
from collections import deque
from multiprocessing import connection as _mp_connection

from ..datalog.analysis import ProgramAnalysis
from ..datalog.terms import Constant
from ..datalog.unify import match_value, resolve
from ..engine import faults
from ..engine.columnar import ColumnStore
from ..engine.database import Database
from ..engine.faults import FaultInjector, strip_worker_plans
from ..engine.fixpoint import goal_filter, project_free
from ..engine.guard import ResourceBudget
from ..engine.instrumentation import EvalStats
from ..engine.interning import InternPool
from ..engine.join import evaluate_body, evaluate_rule, ground_head
from ..engine.relation import EmptyRelation, Relation
from ..errors import (
    DeadlineExceeded,
    EvaluationError,
    PlanViolationError,
    RecoveryExhaustedError,
    ReproError,
    WorkerCrashError,
    WorkerHungError,
)
from .plan import plan_partitions, shard_of, shard_rows
from .supervisor import RecoveryPolicy, RoundCheckpoint, Supervisor

__all__ = [
    "ParallelEngine",
    "PlanViolationError",
    "RecoveryExhaustedError",
    "WorkerCrashError",
    "WorkerHungError",
]

#: Seconds between liveness checks while waiting at a round barrier;
#: how long a barrier may last is the supervised
#: :class:`~repro.parallel.supervisor.RecoveryPolicy.barrier_timeout`.
_POLL_INTERVAL = 0.05


# ----------------------------------------------------------------- #
# encoding helpers                                                   #
# ----------------------------------------------------------------- #


def _encode_rows(pool, rows, arity, intern=False):
    """Value rows -> columnar int64 bytes via the shared intern pool.

    ``intern=True`` is the coordinator's pre-synchronization mode: it
    may still allocate fresh ids (relations assign no ids on insert, so
    the pool can be cold).  After the pool ships, every
    encode must find its values already known — a miss there is a plan
    violation, not a cue to allocate an id the workers don't have.

    Encoding runs column-at-a-time: each column is one C-level
    ``map`` into an ``array('q')``, which is what keeps the exchange
    overhead of a sharded round a small fraction of its join work.
    """
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    lookup = pool.ident if intern else pool.peek
    try:
        columns = tuple(
            array("q", map(lookup, (row[position] for row in rows)))
            for position in range(arity)
        )
    except TypeError:
        # peek returned None for a value the plan promised was known.
        raise PlanViolationError(
            "value not in the synchronized intern pool"
        )
    return ColumnStore(arity, columns).to_bytes()


def _decode_rows(pool, data):
    """Columnar bytes -> list of value rows.

    The inverse fast path of :func:`_encode_rows`: every column is one
    C-level ``map`` through the pool's dense value table, zipped back
    into row tuples.
    """
    store = ColumnStore.from_bytes(data)
    columns = store._columns
    if not columns:
        return []
    values = pool._values
    return list(zip(*[map(values.__getitem__, col) for col in columns]))


def _relation_rows(relation):
    """All rows of a relation in insertion order.

    Epoch-pinned snapshot views (the serving layer's generations) carry
    no ``_log`` of their own; materializing the frozen relation first
    yields the same insertion-ordered log truncated at the pin.
    """
    if isinstance(relation, EmptyRelation):
        return []
    log = getattr(relation, "_log", None)
    if log is None:
        log = relation._rel()._log
    return list(log)


def _bind_fact(atom, row):
    """Substitution binding ``atom`` to the ground ``row``, or None."""
    subst = {}
    for arg, value in zip(atom.args, row):
        resolved = resolve(arg, subst)
        if isinstance(resolved, Constant):
            if resolved.value != value:
                return None
        else:
            subst = match_value(resolved, value, subst)
            if subst is None:
                return None
    return subst


def _rule_tables(program):
    """Per delta-predicate dispatch tables for the recursive rules.

    Maps each predicate key to the list of ``(rule, recursive atom,
    rest-of-body)`` entries whose recursive atom has that predicate;
    ``rest`` preserves the original literal order minus the recursive
    atom, so join scan order (and therefore ``tuples_scanned``)
    matches a single-process evaluation of the same rule.
    """
    analysis = ProgramAnalysis(program)
    tables = {}
    for clique in analysis.components:
        for rule in clique.recursive_rules:
            left, rec, right = clique.split_body(rule)
            tables.setdefault(rec.key, []).append(
                (rule, rec, tuple(left) + tuple(right))
            )
    return tables


# ----------------------------------------------------------------- #
# worker side                                                        #
# ----------------------------------------------------------------- #


class _WorkerState:
    """Everything one pool worker keeps between rounds."""

    def __init__(self, index, payload):
        self.index = index
        self.pool = InternPool()
        for value in payload["values"]:
            self.pool.ident(value)
        self.relations = {}
        for key, (arity, blob) in sorted(payload["relations"].items()):
            relation = Relation(key[0], arity, pool=self.pool)
            for row in _decode_rows(self.pool, blob):
                relation.add(row)
            self.relations[key] = relation
        # Empty replicas for every lower-clique IDB relation a
        # recursive rule looks up; filled by "replicate" messages.
        for key in payload["replicas"]:
            self.relations.setdefault(
                key, Relation(key[0], key[1], pool=self.pool)
            )
        self.rules = _rule_tables(payload["program"])
        self.stats = EvalStats()
        timeout = payload.get("timeout")
        self.budget = (
            ResourceBudget(timeout=timeout) if timeout is not None
            else None
        )

    def _resolve(self, _index, atom):
        relation = self.relations.get(atom.key)
        if relation is None:
            raise PlanViolationError(
                "worker %d has no replica of %s/%d"
                % (self.index, atom.key[0], atom.key[1])
            )
        return relation

    def process_round(self, deltas):
        """Fire recursive rules for the routed delta facts.

        Returns the per-round stats delta and, per head predicate, the
        derived rows with their derivation multiplicities — duplicates
        are *not* collapsed silently, the coordinator charges them to
        ``facts_duplicate`` exactly as a single-process run would.
        """
        round_stats = EvalStats()
        derived = {}
        for pred_key in sorted(deltas):
            rows = _decode_rows(self.pool, deltas[pred_key])
            entries = self.rules.get(pred_key, ())
            for row in rows:
                for rule, rec, rest in entries:
                    round_stats.rule_firings += 1
                    subst = _bind_fact(rec, row)
                    if subst is None:
                        continue
                    for result in evaluate_body(
                        rest, self._resolve, subst, round_stats
                    ):
                        head_row = ground_head(rule.head, result)
                        bucket = derived.setdefault(rule.head.key, {})
                        bucket[head_row] = bucket.get(head_row, 0) + 1
        self.stats.merge(round_stats)
        if self.budget is not None:
            self.budget.check(self.stats)
        faults.fire("round", self.stats)
        out = {
            key: (
                _encode_rows(self.pool, bucket.keys(), key[1]),
                array("q", bucket.values()).tobytes(),
            )
            for key, bucket in derived.items()
        }
        return round_stats, out

    def replicate(self, blobs):
        """Install post-clique replicas of lower-clique IDB relations."""
        for key, (arity, blob) in sorted(blobs.items()):
            relation = self.relations.get(key)
            if relation is None:
                relation = Relation(key[0], arity, pool=self.pool)
                self.relations[key] = relation
            for row in _decode_rows(self.pool, blob):
                relation.add(row)

    def reshard(self, blobs):
        """Replace base shards after a coordinator reassignment.

        Full replacement, not union: the coordinator re-computes this
        worker's shard of every sharded base relation for the shrunken
        pool and ships it whole.  Replacement keeps probe and scan
        counters exactly equal to an undisturbed run of the new pool
        size — a union would retain rows of buckets this worker no
        longer owns.  Pipe FIFO ordering makes the swap safe: every
        round message sent before the reshard was routed under the old
        sharding and has already been processed by the time this
        message arrives.
        """
        for key, (arity, blob) in sorted(blobs.items()):
            relation = Relation(key[0], arity, pool=self.pool)
            for row in _decode_rows(self.pool, blob):
                relation.add(row)
            self.relations[key] = relation


def _heartbeat_loop(conn, interval):
    """Daemon thread: beat on the liveness pipe until it breaks.

    Deliberately independent of the worker's main loop — a beat proves
    the *process* is scheduled and alive, not that the round is making
    progress.  The coordinator pairs this signal with its barrier
    deadline to tell a wedged process (no beats) from a stuck round
    (beats flowing, no reply).
    """
    while True:
        try:
            conn.send(1)
        except (OSError, ValueError):
            return
        time.sleep(interval)


def _worker_main(index, conn, hb_conn, payload):
    """Entry point of one pool process: a lockstep message loop."""
    import gc

    # A pool worker lives for one evaluation and exits.  Cyclic GC in
    # the child walks the whole fork-inherited heap (refcount writes
    # fault in copy-on-write pages of everything the coordinator ever
    # allocated), which can dwarf the worker's actual join work under
    # a large parent process; anything cyclic the worker allocates is
    # reclaimed by process exit anyway.
    gc.disable()
    # Heartbeats start before state construction so a slow payload
    # replay (a large shipped value table) never reads as a hang.
    threading.Thread(
        target=_heartbeat_loop,
        args=(hb_conn, payload.get("heartbeat", 0.1)),
        daemon=True,
    ).start()
    injector = None
    try:
        # Under the fork start method the child inherits the
        # coordinator's *installed* injector (module global plus
        # patched Relation methods).  Uninstall it first: the worker
        # runs its own derived injector, seeded for this index.
        inherited = faults.active_injector()
        if inherited is not None:
            inherited.uninstall()
        spec = payload.get("faults")
        if spec is not None:
            injector = FaultInjector.from_spec(spec).derive(index)
            injector.install()
        state = _WorkerState(index, payload)
    except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
        _send_error(conn, exc)
        return
    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "close":
                return
            try:
                if op == "round":
                    round_stats, derived = state.process_round(message[1])
                    conn.send(("ok", round_stats, derived))
                elif op == "replicate":
                    state.replicate(message[1])
                    conn.send(("ok", None, {}))
                elif op == "reshard":
                    state.reshard(message[1])
                    conn.send(("ok", None, {}))
                else:
                    raise EvaluationError("unknown worker op %r" % (op,))
            except ReproError as exc:
                _send_error(conn, exc)
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        if injector is not None:
            injector.uninstall()


def _send_error(conn, exc):
    try:
        conn.send(("error", exc))
    except (pickle.PicklingError, TypeError, OSError):
        # Last resort: strip the payload rather than dying silently.
        try:
            conn.send(("error", EvaluationError(str(exc))))
        except OSError:
            pass


# ----------------------------------------------------------------- #
# coordinator side                                                   #
# ----------------------------------------------------------------- #


class _WorkerHandle:
    """Coordinator-side view of one pool worker.

    ``queue`` holds the unacknowledged messages in flight to the
    worker, oldest first — pipe FIFO means replies arrive in exactly
    this order, and on failure the queue *is* the list of work that
    must be re-issued elsewhere.  ``busy_since`` stamps when the head
    message started being serviceable (for hang and straggler
    deadlines).
    """

    __slots__ = ("slot", "process", "conn", "hb", "queue", "busy_since")

    def __init__(self, slot, process, conn, hb):
        self.slot = slot
        self.process = process
        self.conn = conn
        self.hb = hb
        self.queue = deque()
        self.busy_since = None


def _reap_worker(handle, patience=0.5, graceful=True):
    """Escalating worker teardown: join, terminate, kill, close.

    ``graceful`` waits one ``patience`` for a voluntary exit first
    (the worker was sent ``("close",)``); repair paths skip straight
    to ``terminate``.  SIGTERM can be masked or ignored by a wedged
    worker, so after a failed terminate the escalation ends in
    ``kill()`` — un-maskable — and *always* closes both pipe ends and
    the ``Process`` object, so repeated evaluations can never leak
    zombie processes or file descriptors.
    """
    process = handle.process
    if graceful:
        process.join(timeout=patience)
    if process.is_alive():
        process.terminate()
        process.join(timeout=patience)
    if process.is_alive():
        process.kill()
        process.join(timeout=patience)
    elif not graceful:
        # Reap a dead-but-unjoined child so it never lingers as a
        # zombie between the repair and pool shutdown.
        process.join(timeout=patience)
    for conn in (handle.conn, handle.hb):
        try:
            conn.close()
        except OSError:
            pass
    try:
        process.close()
    except ValueError:
        # Still running despite SIGKILL (scheduler lag); leave the
        # Process object unreleased rather than raise during cleanup.
        pass


class _InlineWorker:
    """The pool-of-one used by serial mode: same code path, no IPC.

    Joins read the coordinator's database and derived relations
    directly — the single "shard" of every relation is the whole
    relation — so the serial baseline measures pure engine work with
    zero exchange overhead, which is exactly what the parallel run's
    speedup should be judged against.

    Doubles as the coordinator-local speculative executor: for a
    straggler's checkpointed round portion, probing the full relations
    visits exactly the buckets the worker's shard would have (rows
    sharing a partition-column value are never split across shards),
    so the speculative twin's counters match the worker's.
    """

    def __init__(self, engine):
        self.engine = engine
        self.rules = _rule_tables(engine.query.program)

    def _resolve(self, _index, atom):
        relation = self.engine.derived.get(atom.key)
        if relation is not None:
            return relation
        return self.engine.db.get(atom.key)

    def process_round(self, deltas):
        round_stats = EvalStats()
        derived = {}
        for pred_key in sorted(deltas):
            entries = self.rules.get(pred_key, ())
            for row in deltas[pred_key]:
                for rule, rec, rest in entries:
                    round_stats.rule_firings += 1
                    subst = _bind_fact(rec, row)
                    if subst is None:
                        continue
                    for result in evaluate_body(
                        rest, self._resolve, subst, round_stats
                    ):
                        head_row = ground_head(rule.head, result)
                        bucket = derived.setdefault(rule.head.key, {})
                        bucket[head_row] = bucket.get(head_row, 0) + 1
        return round_stats, derived


class ParallelEngine:
    """Coordinator of one sharded fixpoint evaluation.

    ``workers=0`` (or ``inline=True``) selects serial mode: the same
    plan, rounds and counters with no child processes — the reference
    the multiprocess counters must match and the baseline the scaling
    benchmark compares against.

    ``recovery`` takes a :class:`~repro.parallel.supervisor.
    RecoveryPolicy`, a mode string (``"reassign"`` / ``"respawn"`` /
    ``"serial"``), or ``None`` for the default self-healing policy.
    """

    def __init__(self, query, db, workers=2, stats=None, budget=None,
                 plan=None, inline=False, recovery=None):
        if not isinstance(db, Database):
            raise TypeError("expected a Database")
        self.query = query
        self.db = db
        self.inline = inline or workers == 0
        self.workers = 0 if self.inline else max(1, workers)
        self.stats = stats if stats is not None else EvalStats()
        self.budget = budget
        self.plan = plan
        self.recovery = RecoveryPolicy.coerce(recovery)
        self.supervisor = Supervisor(self.recovery)
        self.analysis = None
        self.derived = {}
        self.tuples = frozenset()
        self.answers = frozenset()
        self.plan_seconds = 0.0
        self.execute_seconds = 0.0
        self.barriers = 0
        self.exchange_bytes = 0
        self._handles = []       # every live _WorkerHandle
        self._active = []        # participating handles, route order
        self._payloads = {}      # slot -> spawn payload (for respawn)
        self._replica_log = []   # replicate batches, in send order
        self._checkpoint = None  # RoundCheckpoint of the current round
        self._next_deltas = None
        self._local_worker = None
        self._context = None

    # -- planning ----------------------------------------------------

    def _plan_phase(self):
        started = time.perf_counter()
        if self.plan is None:
            self.plan = plan_partitions(
                self.query, self.db, max(1, self.workers or 1)
            )
        # Intern every program and goal constant now: after the pool
        # synchronizes, no evaluation step may allocate a fresh id.
        pool = self.db.intern_pool
        atoms = [self.query.goal]
        for rule in self.query.program:
            atoms.append(rule.head)
            atoms.extend(rule.body_atoms())
        for atom in atoms:
            for arg in atom.args:
                if isinstance(arg, Constant):
                    pool.ident(arg.value)
        self.analysis = ProgramAnalysis(self.query.program)
        self.plan_seconds = time.perf_counter() - started

    # -- pool lifecycle ----------------------------------------------

    def _spawn_pool(self):
        pool_size = self.workers
        pool = self.db.intern_pool
        # Encode before snapshotting the value table: inserts assign no
        # ids, so shard encoding assigns the dense ids the workers will
        # replay.
        shard_blobs = [dict() for _ in range(pool_size)]
        for key, column in sorted(self.plan.sharded.items()):
            rows = _relation_rows(self.db.get(key))
            for index, shard in enumerate(
                shard_rows(rows, column, pool_size, pool)
            ):
                shard_blobs[index][key] = (
                    key[1], _encode_rows(pool, shard, key[1], intern=True)
                )
        for key in self.plan.broadcast:
            blob = _encode_rows(
                pool, _relation_rows(self.db.get(key)), key[1],
                intern=True,
            )
            for index in range(pool_size):
                shard_blobs[index][key] = (key[1], blob)
        # Coordinator-only base relations still feed delta rows through
        # the exit rounds, so their values must be in the shipped table
        # too.
        shipped = set(self.plan.sharded) | set(self.plan.broadcast)
        ident_row = pool.ident_row
        for key in sorted(self.analysis.base_predicates()):
            if key in shipped:
                continue
            for row in _relation_rows(self.db.get(key)):
                ident_row(row)
        values = list(pool._values)
        replicas = sorted(
            key
            for keys in self.plan.replicate_after.values()
            for key in keys
        )
        injector = faults.active_injector()
        spec = injector.spec() if injector is not None else None
        timeout = None
        if self.budget is not None and not self.budget.is_unlimited():
            remaining = self.budget.remaining()
            if remaining is not None:
                timeout = remaining
        self._context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        for index in range(pool_size):
            payload = {
                "values": values,
                "relations": shard_blobs[index],
                "replicas": replicas,
                "program": self.query.program,
                "timeout": timeout,
                "faults": spec,
                "heartbeat": self.recovery.heartbeat_interval,
            }
            self._payloads[index] = payload
            self._active.append(self._spawn_worker(index, payload))

    def _spawn_worker(self, slot, payload):
        parent, child = self._context.Pipe(duplex=True)
        hb_recv, hb_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(slot, child, hb_send, payload),
            daemon=True,
        )
        process.start()
        child.close()
        hb_send.close()
        handle = _WorkerHandle(slot, process, parent, hb_recv)
        self._handles.append(handle)
        self.supervisor.beat(slot)
        return handle

    def _shutdown_pool(self):
        for handle in self._handles:
            try:
                handle.conn.send(("close",))
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            _reap_worker(handle)
        self._handles = []
        self._active = []

    # -- messaging and supervision -----------------------------------

    def _dispatch(self, handle, kind, portion, group=None,
                  speculated=False):
        """Enqueue-then-send one message to a worker.

        The entry is queued *before* the send so a broken pipe loses
        nothing: the barrier loop sees the dead process and the repair
        re-issues everything still in the queue.  Every send also
        resets the slot's liveness stamp — a worker cannot be "silent"
        about a message it was only just given.
        """
        entry = {
            "kind": kind,
            "portion": portion,
            "group": group,
            "speculated": speculated,
            "sent_at": time.perf_counter(),
        }
        if handle.busy_since is None:
            handle.busy_since = entry["sent_at"]
        handle.queue.append(entry)
        self.supervisor.beat(handle.slot)
        try:
            handle.conn.send((kind, portion))
        except (OSError, ValueError):
            pass

    def _barrier(self):
        """Wait until every active worker's outstanding work is
        *covered*: either its reply arrived, or a speculation twin's
        result was already taken (the group is done).  A straggler
        whose portion was won elsewhere no longer holds the barrier —
        its late reply is popped and discarded whenever it surfaces,
        this round or a later one."""
        while self._pending():
            self._barrier_step()
        self.barriers += 1

    def _pending(self):
        for handle in self._active:
            for entry in handle.queue:
                group = entry["group"]
                if group is None or not group["done"]:
                    return True
        return False

    def _barrier_step(self):
        pending = {h.conn: h for h in self._active if h.queue}
        beats = {h.hb: h for h in self._active}
        ready = _mp_connection.wait(
            list(pending) + list(beats), timeout=_POLL_INTERVAL
        )
        for conn in ready:
            handle = beats.get(conn)
            if handle is not None and handle in self._active:
                self._drain_heartbeats(handle)
        for conn in ready:
            handle = pending.get(conn)
            if handle is not None and handle in self._active:
                self._receive(handle)
        if self.budget is not None and self.budget.expired():
            raise DeadlineExceeded(
                "deadline passed waiting at a round barrier",
                stats=self.stats,
            )
        self._check_health()

    def _drain_heartbeats(self, handle):
        try:
            while handle.hb.poll(0):
                handle.hb.recv()
                self.supervisor.beat(handle.slot)
        except (EOFError, OSError):
            pass  # death is the liveness check's business

    def _receive(self, handle):
        """Take one reply off a worker's channel and account for it."""
        try:
            reply = handle.conn.recv()
        except (EOFError, OSError):
            self._failure(handle, "crash",
                          detail="channel closed mid-round")
            return
        self.supervisor.beat(handle.slot)
        if reply[0] == "error":
            # Typed worker errors (budget firings, plan violations,
            # injected faults) are deterministic verdicts about the
            # evaluation, not environmental failures — no repair.
            raise reply[1]
        entry = handle.queue.popleft()
        now = time.perf_counter()
        handle.busy_since = now if handle.queue else None
        group = entry["group"]
        if group is not None:
            group["live"] -= 1
            if group["done"]:
                return  # losing twin of a speculation — discard
            group["done"] = True
            if entry["speculated"]:
                self.supervisor.record(
                    "speculative_win", handle.slot,
                    self.stats.iterations,
                    seconds=now - entry["sent_at"], detail="peer",
                )
        if entry["kind"] == "round":
            self.supervisor.observe_round_time(now - entry["sent_at"])
            _tag, round_stats, derived = reply
            self.stats.merge(round_stats)
            self._merge_derived(derived)

    def _merge_derived(self, derived):
        """Integrate one reply's derivations into relations + deltas."""
        values = self.db.intern_pool._values
        for key in sorted(derived):
            blob, count_blob = derived[key]
            self.exchange_bytes += len(blob)
            store = ColumnStore.from_bytes(blob)
            columns = store._columns
            id_rows = list(zip(*columns)) if columns else []
            rows = [
                tuple(map(values.__getitem__, ids))
                for ids in id_rows
            ]
            counts = array("q")
            counts.frombytes(count_blob)
            for row, ids, count in zip(rows, id_rows, counts):
                self._integrate(
                    key, row, count, self._next_deltas, ids=ids
                )

    def _check_health(self):
        """Classify every waiting slot; repair or speculate as needed."""
        now = time.perf_counter()
        deadline = self.supervisor.straggler_deadline()
        for handle in list(self._active):
            if not handle.queue:
                continue
            waited = (
                now - handle.busy_since
                if handle.busy_since is not None else 0.0
            )
            verdict = self.supervisor.diagnose(
                handle.slot, waited, handle.process.is_alive()
            )
            if verdict is not None:
                self._failure(handle, verdict, waited=waited)
                continue
            if deadline is not None and waited > deadline:
                self._speculate(handle)

    # -- failure handling --------------------------------------------

    def _failure(self, handle, verdict, waited=0.0, detail=""):
        """One worker is dead or hung: repair the pool or raise typed.

        Order of resorts: in-place repair (reassign / respawn) while
        the allowance lasts; a typed error only under ``mode="serial"``
        or once :class:`RecoveryPolicy.max_repairs` is spent — so the
        resilient chain's serial restart is the *last* resort.
        """
        slot = handle.slot
        round_index = self.stats.iterations
        if verdict == "crash":
            self.supervisor.record(
                "crash", slot, round_index, seconds=waited,
                detail=detail or "exit code %r" % (
                    handle.process.exitcode,),
            )
            error_cls, reason = WorkerCrashError, "died"
        else:
            self.supervisor.record(
                "hang", slot, round_index, seconds=waited,
                detail=detail or "no reply for %.2fs" % waited,
            )
            error_cls, reason = WorkerHungError, "hung"
        policy = self.recovery
        if policy.mode == "serial":
            raise error_cls(
                "worker %d %s mid-round (exit code %r)"
                % (slot, reason, handle.process.exitcode),
                stats=self.stats,
            )
        if not self.supervisor.allow_repair():
            raise RecoveryExhaustedError(
                "worker %d %s after the repair allowance "
                "(max_repairs=%d) was spent"
                % (slot, reason, policy.max_repairs),
                stats=self.stats,
                repairs=self.supervisor.event_dicts(),
                rounds=self.stats.iterations,
            )
        if policy.mode == "reassign" and len(self._active) <= 1:
            raise RecoveryExhaustedError(
                "worker %d %s with no survivor to reassign onto"
                % (slot, reason),
                stats=self.stats,
                repairs=self.supervisor.event_dicts(),
                rounds=self.stats.iterations,
            )
        started = time.perf_counter()
        self.supervisor.repairs += 1
        orphaned = list(handle.queue)
        self._remove(handle)
        if policy.mode == "respawn":
            self._respawn(slot, orphaned)
        else:
            self._reassign(slot, orphaned)
        self.supervisor.recovery_seconds += (
            time.perf_counter() - started
        )

    def _remove(self, handle):
        if handle in self._active:
            self._active.remove(handle)
        if handle in self._handles:
            self._handles.remove(handle)
        self.supervisor.forget(handle.slot)
        _reap_worker(handle, patience=0.2, graceful=False)

    def _orphaned_rounds(self, orphaned):
        """The round portions of a failed worker that still need a
        home.  Replicate/reshard entries never transfer: survivors get
        their own copies, and respawns replay the replicate log.
        Speculation twins transfer only when the other twin can no
        longer deliver (``live`` drained without a winner)."""
        portions = []
        for entry in orphaned:
            group = entry["group"]
            if group is not None:
                group["live"] -= 1
                if group["done"] or group["live"] > 0:
                    continue
            if entry["kind"] == "round" and entry["portion"]:
                portions.append(entry["portion"])
        return portions

    def _respawn(self, slot, orphaned):
        """Fork a replacement into the failed worker's slot.

        The replacement is rebuilt from the retained spawn payload —
        with worker-targeted fault plans disarmed, since they model a
        one-time environmental failure — then brought to the current
        barrier by replaying the replicate log, then handed the failed
        worker's checkpointed round portion.
        """
        payload = dict(self._payloads[slot])
        payload["faults"] = strip_worker_plans(payload.get("faults"))
        handle = self._spawn_worker(slot, payload)
        # Routing maps owner index -> active position, so the active
        # list must stay sorted by slot for the mapping to be stable.
        position = len(self._active)
        for index, existing in enumerate(self._active):
            if existing.slot > slot:
                position = index
                break
        self._active.insert(position, handle)
        for blobs in self._replica_log:
            self._dispatch(handle, "replicate", blobs)
        replayed = False
        for portion in self._orphaned_rounds(orphaned):
            self._dispatch(handle, "round", portion)
            replayed = True
        if replayed:
            self.supervisor.rounds_replayed += 1
        self.supervisor.record("respawn", slot, self.stats.iterations)

    def _reassign(self, slot, orphaned):
        """Rehash the failed worker's shards onto the survivors.

        Replacement shards for the shrunken pool ship *first*; the
        failed worker's checkpointed round portion is re-routed with
        the new worker count *second*.  Pipe FIFO ordering then
        guarantees each survivor finishes its in-flight old-sharding
        round work before the reshard applies, and processes the
        re-routed repair portion only after it.
        """
        pool = self.db.intern_pool
        count = len(self._active)
        if self.plan.sharded:
            shard_blobs = [dict() for _ in range(count)]
            for key, column in sorted(self.plan.sharded.items()):
                rows = _relation_rows(self.db.get(key))
                for position, shard in enumerate(
                    shard_rows(rows, column, count, pool)
                ):
                    shard_blobs[position][key] = (
                        key[1], _encode_rows(pool, shard, key[1])
                    )
            for position, peer in enumerate(self._active):
                portion = shard_blobs[position]
                for _arity, blob in portion.values():
                    self.exchange_bytes += len(blob)
                self._dispatch(peer, "reshard", portion)
        replayed = False
        for portion in self._orphaned_rounds(orphaned):
            for position, part in enumerate(
                self._reroute(portion, count)
            ):
                if part:
                    self._dispatch(self._active[position], "round", part)
            replayed = True
        if replayed:
            self.supervisor.rounds_replayed += 1
        self.supervisor.record(
            "reassign", slot, self.stats.iterations,
            detail="%d survivors" % count,
        )

    def _reroute(self, portion, count):
        """Split a checkpointed round portion across the current pool."""
        parts = [dict() for _ in range(count)]
        for key in sorted(portion):
            column = self.plan.partition[key]
            arity = key[1]
            store = ColumnStore.from_bytes(portion[key])
            columns = store._columns
            id_rows = list(zip(*columns)) if columns else []
            shards = [
                tuple(array("q") for _ in range(arity))
                for _ in range(count)
            ]
            for ids in id_rows:
                owner = shard_of(ids[column], count)
                for col, ident in zip(shards[owner], ids):
                    col.append(ident)
            for position, part_columns in enumerate(shards):
                if part_columns and len(part_columns[0]):
                    blob = ColumnStore(arity, part_columns).to_bytes()
                    parts[position][key] = blob
                    self.exchange_bytes += len(blob)
        return parts

    # -- speculation --------------------------------------------------

    def _speculate(self, handle, detail=None):
        """Re-execute a straggler's round portion; first result wins.

        At most one twin per message: the discard group guarantees
        exactly one result is integrated and one stats delta merged,
        so speculation can never double-count.  An idle peer runs the
        twin only on broadcast-only plans (a peer lacks the other
        workers' base shard buckets otherwise); sharded plans re-run
        the portion on the coordinator, whose full relations are
        bucket-equivalent to the straggler's shard.
        """
        entry = next(
            (
                e for e in handle.queue
                if e["kind"] == "round" and not e["speculated"]
                and e["group"] is None and e["portion"]
            ),
            None,
        )
        if entry is None:
            return
        entry["speculated"] = True
        if not self.plan.sharded:
            peer = next(
                (h for h in self._active
                 if h is not handle and not h.queue),
                None,
            )
            if peer is not None:
                group = {"done": False, "live": 2}
                entry["group"] = group
                self._dispatch(
                    peer, "round", entry["portion"],
                    group=group, speculated=True,
                )
                return
        started = time.perf_counter()
        round_stats, derived = self._local_round(entry["portion"])
        entry["group"] = {"done": True, "live": 1}
        self.stats.merge(round_stats)
        for key in sorted(derived):
            for row, count in derived[key].items():
                self._integrate(key, row, count, self._next_deltas)
        self.supervisor.record(
            "speculative_win", handle.slot, self.stats.iterations,
            seconds=time.perf_counter() - started, detail="local",
        )

    def _local_round(self, portion):
        """Run one checkpointed round portion on the coordinator."""
        if self._local_worker is None:
            self._local_worker = _InlineWorker(self)
        pool = self.db.intern_pool
        deltas = {
            key: _decode_rows(pool, blob)
            for key, blob in portion.items()
        }
        return self._local_worker.process_round(deltas)

    # -- evaluation --------------------------------------------------

    def _relation(self, key):
        relation = self.derived.get(key)
        if relation is None:
            relation = Relation(
                key[0], key[1], pool=self.db.intern_pool
            )
            self.derived[key] = relation
        return relation

    def _resolve(self, _index, atom):
        if atom.key in self.analysis.derived:
            return self._relation(atom.key)
        return self.db.get(atom.key)

    def _integrate(self, key, row, multiplicity, deltas, ids=None):
        """Count one derivation batch and extend the next delta.

        In multiprocess mode the delta lists carry *id* rows — the
        routing currency — so integration passes the ids it already
        has from the wire (``ids``) or encodes them once here; inline
        mode keeps value rows, its worker joins on values directly.
        """
        if self._relation(key).add(row):
            self.stats.facts_derived += 1
            self.stats.facts_duplicate += multiplicity - 1
            if self.inline:
                deltas.setdefault(key, []).append(row)
            else:
                if ids is None:
                    peek = self.db.intern_pool.peek
                    ids = tuple(peek(value) for value in row)
                deltas.setdefault(key, []).append(ids)
        else:
            self.stats.facts_duplicate += multiplicity

    def _round_boundary(self):
        self.stats.iterations += 1
        if self.budget is not None:
            self.budget.check(self.stats)
        faults.fire("round", self.stats)

    def _exit_round(self, clique):
        """Evaluate a clique's exit rules on the coordinator."""
        deltas = {}
        for rule in clique.exit_rules:
            for row in evaluate_rule(rule, self._resolve, self.stats):
                self._integrate(rule.head.key, row, 1, deltas)
        self._round_boundary()
        return deltas

    def _route(self, deltas):
        """Split delta id rows across workers by their owner column.

        Routing and encoding are fused: the delta lists already hold
        id rows (see :meth:`_integrate`), so the owner comes straight
        from the partition column's id and the ids land directly in
        the owner's column arrays — no value lookups, no intermediate
        per-shard row lists.  The worker count is the *current* active
        pool — after a reassignment, deltas rehash across the
        survivors.
        """
        workers = len(self._active)
        routed = [dict() for _ in range(workers)]
        for key in sorted(deltas):
            column = self.plan.partition[key]
            arity = key[1]
            shards = [
                tuple(array("q") for _ in range(arity))
                for _ in range(workers)
            ]
            try:
                for ids in deltas[key]:
                    owner = shard_of(ids[column], workers)
                    for col, ident in zip(shards[owner], ids):
                        col.append(ident)
            except TypeError:
                raise PlanViolationError(
                    "delta value not in the synchronized intern pool"
                )
            for index, columns in enumerate(shards):
                if columns and len(columns[0]):
                    routed[index][key] = ColumnStore(
                        arity, columns
                    ).to_bytes()
        return routed

    def _checkpoint_round(self, routed):
        """Retain the round's routed portions as the recovery state.

        The portions are already columnar wire blobs, so the in-memory
        checkpoint costs no extra encoding; ``spill=True`` proves the
        on-disk form by round-tripping through ``to_bytes`` every
        round.  Epochs snapshot each derived relation's mutation
        counter at the barrier — the monotone progress marker repairs
        are measured against.
        """
        checkpoint = RoundCheckpoint(
            self.stats.iterations,
            {
                self._active[i].slot: routed[i]
                for i in range(len(self._active))
            },
            {
                key: getattr(relation, "epoch", 0)
                for key, relation in self.derived.items()
            },
        )
        if self.recovery.spill:
            blob = checkpoint.to_bytes()
            checkpoint = RoundCheckpoint.from_bytes(blob)
            self.supervisor.note_checkpoint(checkpoint, spilled=blob)
        else:
            self.supervisor.note_checkpoint(checkpoint)
        self._checkpoint = checkpoint
        return checkpoint

    def _recursive_rounds(self, inline_worker, deltas):
        """Drive rounds until every delta is empty (global fixpoint)."""
        while deltas:
            if inline_worker is not None:
                round_stats, derived = inline_worker.process_round(deltas)
                self.stats.merge(round_stats)
                deltas = {}
                for key in sorted(derived):
                    for row, count in derived[key].items():
                        self._integrate(key, row, count, deltas)
            else:
                routed = self._route(deltas)
                self._checkpoint_round(routed)
                self._next_deltas = {}
                for index, handle in enumerate(self._active):
                    for blob in routed[index].values():
                        self.exchange_bytes += len(blob)
                    self._dispatch(handle, "round", routed[index])
                self._barrier()
                deltas = self._next_deltas
                self._next_deltas = None
            self._round_boundary()

    def _replicate(self, clique_index):
        keys = self.plan.replicate_after.get(clique_index, ())
        if not keys or self.inline:
            return
        pool = self.db.intern_pool
        blobs = {}
        for key in keys:
            rows = _relation_rows(self._relation(key))
            blobs[key] = (key[1], _encode_rows(pool, rows, key[1]))
        # Log before sending: a worker respawned later must replay
        # every replicate batch, including one whose barrier it died
        # inside (replica installs are idempotent set-adds).
        self._replica_log.append(blobs)
        for handle in list(self._active):
            for _arity, blob in blobs.values():
                self.exchange_bytes += len(blob)
            self._dispatch(handle, "replicate", blobs)
        self._barrier()

    def run(self):
        """Evaluate to fixpoint; populates tuples/answers/stats."""
        self._plan_phase()
        started = time.perf_counter()
        inline_worker = _InlineWorker(self) if self.inline else None
        try:
            if not self.inline:
                self._spawn_pool()
            for clique_index, clique in enumerate(
                self.analysis.components
            ):
                deltas = self._exit_round(clique)
                if clique.is_recursive():
                    self._recursive_rounds(inline_worker, deltas)
                self._replicate(clique_index)
        except ReproError as exc:
            # Ship the recovery story with the failure, so a caller
            # that degrades still sees what self-healing tried first.
            if getattr(exc, "recovery", None) is None:
                exc.recovery = self.supervisor.as_dict()
            if getattr(exc, "rounds", None) in (None, 0):
                exc.rounds = self.stats.iterations
            raise
        finally:
            self._shutdown_pool()
            self.execute_seconds = time.perf_counter() - started
        goal = self.query.goal
        relation = self.derived.get(goal.key)
        if relation is None:
            relation = self.db.get(goal.key)
        self.tuples = frozenset(goal_filter(goal, relation))
        self.answers = frozenset(project_free(goal, self.tuples))
        return self

    def extras(self):
        """Deterministic run description for ExecutionResult extras."""
        return {
            "workers": self.workers,
            "barriers": self.barriers,
            "exchange_bytes": self.exchange_bytes,
            "phase_seconds": {
                "plan": self.plan_seconds,
                "execute": self.execute_seconds,
            },
            "plan": self.plan.as_dict() if self.plan else None,
            "recovery": self.supervisor.as_dict(),
        }
