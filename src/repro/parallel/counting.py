"""Parallel construction of the counting set (phase 1 of §3).

Phase 1 of the counting method expands the left-part graph in breadth
waves, running the recursive rules' bound left-queries against the
database, then replays Algorithm 2's DFS over integer ids.  Node
expansions are independent of one another — only the
*classification* of the discovered arcs (tree/forward/cross/back)
depends on visit order — so the expensive part fans out cleanly:

1. the coordinator grows the reachable node set in breadth waves,
   spreading each wave's expansions across the worker pool (the first
   wave is exactly the source's root subtrees);
2. every worker returns, per node, the successor list *and* the work
   counters that computing it cost (a one-node wave of the engine's
   ``_expand``);
3. the engine's own phase 1 then takes each wave's expansion from
   :class:`CachedSuccessors` — the replay performs no database
   work, so the resulting
   :class:`~repro.exec.counting_engine.CountingTable` is byte-identical
   to a serial build, and merging each node's recorded counters exactly
   once reproduces the serial :class:`EvalStats` totals.

The unwind phase (phase 2) stays serial and untouched.

Workers receive the full database (the left-queries' probe pattern is
value-driven, not partitionable ahead of time), shipped once over the
columnar fast path with a synchronized intern pool, like the sharded
fixpoint executor does.
"""

import multiprocessing

from ..engine.instrumentation import EvalStats
from ..engine.interning import InternPool
from ..engine.relation import Relation
from ..errors import EvaluationError, ReproError
from .executor import (
    WorkerCrashError,
    _BARRIER_TIMEOUT,
    _POLL_INTERVAL,
    _decode_rows,
    _encode_rows,
    _relation_rows,
    _send_error,
)

#: Counters shipped per node; ``rule_firings`` and the scan/probe pair
#: dominate, the rest are carried for completeness.
_COUNTER_FIELDS = (
    "rule_firings", "tuples_scanned", "facts_derived",
    "facts_duplicate", "iterations", "index_probes", "batch_rows",
)


def _counters(stats):
    return tuple(getattr(stats, name) for name in _COUNTER_FIELDS)


def _merge_counters(stats, before, after):
    for name, b, a in zip(_COUNTER_FIELDS, before, after):
        setattr(stats, name, getattr(stats, name) + (a - b))


def _counting_worker_main(index, conn, payload):
    """Pool process for phase-1 expansion: build an engine over the
    shipped database, then expand node batches on request."""
    try:
        from ..exec.counting_engine import CountingEngine

        pool = InternPool()
        for value in payload["values"]:
            pool.ident(value)
        relations = {}
        for key, (arity, blob) in sorted(payload["relations"].items()):
            relation = Relation(key[0], arity, pool=pool)
            for row in _decode_rows(pool, blob):
                relation.add(row)
            relations[key] = relation

        def get_relation(key):
            relation = relations.get(key)
            if relation is None:
                relation = Relation(key[0], key[1], pool=pool)
                relations[key] = relation
            return relation

        engine = CountingEngine(
            payload["canonical"],
            payload["goal_key"],
            payload["source_values"],
            get_relation,
            stats=EvalStats(),
        )
    except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
        _send_error(conn, exc)
        return
    try:
        while True:
            message = conn.recv()
            if message[0] == "close":
                return
            try:
                expanded = {}
                for node in message[1]:
                    before = _counters(engine.stats)
                    successors = engine._expand([node])[0]
                    after = _counters(engine.stats)
                    expanded[node] = (successors, before, after)
                conn.send(("ok", expanded))
            except ReproError as exc:
                _send_error(conn, exc)
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return


class CachedSuccessors:
    """Wave expansion backed by the parallel expansion cache.

    Serving a node merges its recorded counters into the engine stats
    exactly once; a cache miss (impossible when the wave expansion
    covered the reachable set, but kept as a correctness net) falls
    back to the engine's own serial expansion, whose counters accrue
    naturally.
    """

    def __init__(self, engine, cache, deltas):
        self.engine = engine
        self.cache = cache
        self.deltas = deltas

    def __call__(self, wave):
        return [self._cached(node) for node in wave]

    def _cached(self, node):
        cached = self.cache.get(node)
        if cached is None:
            return self.engine._expand([node])[0]
        delta = self.deltas.pop(node, None)
        if delta is not None:
            _merge_counters(self.engine.stats, delta[0], delta[1])
        return cached


def parallel_successor_map(engine, db, workers):
    """Expand the left graph reachable from the engine's source across
    ``workers`` processes; returns a :class:`CachedSuccessors` resolver.

    Raises :class:`~repro.parallel.executor.WorkerCrashError` (or the
    worker's own typed error) on any pool failure — callers fall back
    to the serial phase 1.
    """
    if workers < 1:
        raise EvaluationError("parallel counting needs workers >= 1")
    pool = db.intern_pool
    blobs = {}
    with db._lock:
        items = sorted(db._relations.items())
    # Encode first (interning as needed — the legacy backend's pool is
    # cold), then snapshot the value table the workers replay.
    for key, relation in items:
        blobs[key] = (
            key[1],
            _encode_rows(pool, _relation_rows(relation), key[1],
                         intern=True),
        )
    values = list(pool._values)
    payload = {
        "values": values,
        "relations": blobs,
        "canonical": engine.canonical,
        "goal_key": engine.goal_key,
        "source_values": engine.source_values,
    }
    context = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    members = []
    try:
        for index in range(workers):
            parent, child = context.Pipe(duplex=True)
            process = context.Process(
                target=_counting_worker_main,
                args=(index, child, payload),
                daemon=True,
            )
            process.start()
            child.close()
            members.append((process, parent))
        source = (engine.goal_key, engine.source_values)
        cache = {}
        deltas = {}
        frontier = [source]
        seen = {source}
        while frontier:
            chunks = [frontier[i::workers] for i in range(workers)]
            for index, (process, conn) in enumerate(members):
                if chunks[index]:
                    conn.send(("expand", chunks[index]))
            replies = {}
            for index, (process, conn) in enumerate(members):
                if not chunks[index]:
                    continue
                reply = _await_reply(index, process, conn)
                replies.update(reply)
            if engine.budget is not None:
                engine.budget.check(engine.stats)
            next_frontier = []
            for node in frontier:
                successors, before, after = replies[node]
                cache[node] = successors
                deltas[node] = (before, after)
                for target, _label in successors:
                    if target not in seen:
                        seen.add(target)
                        next_frontier.append(target)
            frontier = next_frontier
        return CachedSuccessors(engine, cache, deltas)
    finally:
        for process, conn in members:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
        for process, conn in members:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
            conn.close()


def _await_reply(index, process, conn):
    waited = 0.0
    while True:
        if conn.poll(_POLL_INTERVAL):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashError(
                    "counting worker %d closed its channel" % index
                )
            if reply[0] == "error":
                raise reply[1]
            return reply[1]
        if not process.is_alive():
            raise WorkerCrashError(
                "counting worker %d died (exit code %r)"
                % (index, process.exitcode)
            )
        waited += _POLL_INTERVAL
        if waited > _BARRIER_TIMEOUT:
            raise WorkerCrashError(
                "counting worker %d silent for %.0fs" % (index, waited)
            )
