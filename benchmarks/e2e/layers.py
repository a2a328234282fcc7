"""The outside-in layer trace.

Nothing under ``src/`` is instrumented.  A traced op makes the same
calls ``run_strategy`` / ``QueryService.run`` make, one public function
at a time, with a span around each (``traced_*`` below mirror
``repro/exec/strategies.py``; a refactor there must be mirrored here).
``run_probes`` then drives every package's public entry points once
more on small fixed inputs, so each layer metric has samples whichever
workload is being traced.  ``layer_metrics`` pools both: a timing is the
median over every span of its name, a count is the sum over the run.
"""

import itertools
import os
import random
import statistics
import threading
import time
from collections import Counter

from repro import (
    AnswerCache,
    CountingTableStore,
    Database,
    EvalStats,
    FairScheduler,
    FormRegistry,
    PreparedQuery,
    QueryService,
    TenantQuota,
    TokenBucket,
    parse_query,
    run_strategy,
)
from repro.data import workloads as W
from repro.durability import AuditLog, DurableDatabase, recover
from repro.engine.compile import CompiledRule, compiled_rule
from repro.engine.fixpoint import goal_filter, project_free
from repro.engine.seminaive import evaluate_program
from repro.datalog.rules import Program
from repro.exec.counting_engine import CountingEngine
from repro.exec.magic_counting import MagicCountingEngine
from repro.exec.strategies import check_pushing_cycles
from repro.graph.dfs import Arc, adjacency_successors, classify_arcs
from repro.parallel.plan import plan_partitions
from repro.parallel.supervisor import RecoveryPolicy
from repro.rewriting import (
    adorn_query,
    canonicalize_clique,
    classical_counting_rewrite,
    encoded_counting_rewrite,
    extended_counting_rewrite,
    goal_clique_of,
    magic_rewrite,
    query_constants,
    reduce_rewriting,
    supplementary_magic_rewrite,
)

import inputs
from measure import Tracer, block_spread, self_time_by_name

REWRITES = {
    "magic": ("rewriting.magic", magic_rewrite),
    "sup_magic": ("rewriting.sup_magic", supplementary_magic_rewrite),
    "classical_counting": ("rewriting.classical",
                           classical_counting_rewrite),
    "encoded_counting": ("rewriting.encoded", encoded_counting_rewrite),
    "extended_counting": ("rewriting.extended", extended_counting_rewrite),
    "reduced_counting": ("rewriting.extended", extended_counting_rewrite),
}
GUARDED = ("classical_counting", "encoded_counting")
FORMS = ("magic", "pointer_counting")
TENANTS = ("t0", "t1")


def work_of(stats):
    """Join work plus one per answer-cache lookup (see workloads.py)."""
    return stats.total_work + stats.cache_hits + stats.cache_misses


class LayerTrace(Tracer):
    """Spans plus the counts taken at the same boundaries."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()
        self.eval = EvalStats()
        #: name -> seconds per call, for loops too tight to span.
        self.per_call = {}
        self.caches = []
        self.stores = []
        self.services = []
        self.wals = []

    def timed_loop(self, name, calls, body):
        with self.span(name):
            started = time.perf_counter()
            for _ in range(calls):
                body()
            self.per_call[name] = (time.perf_counter() - started) / calls


# -- decomposed ops ----------------------------------------------------

def _support(trace, support_rules, db, stats):
    if not support_rules:
        return db.get
    with trace.span("engine.fixpoint"):
        derived = evaluate_program(Program(support_rules), db, stats=stats)
    return lambda key: derived.get(key) or db.get(key)


def _canonical(trace, adorned):
    with trace.span("rewriting.canonical"):
        clique, support_rules = goal_clique_of(adorned)
        return canonicalize_clique(clique, adorned), support_rules


def traced_oneshot(trace, text, method, db):
    """``parse_query`` + ``run_strategy(method, …)``, call by call."""
    stats = EvalStats()
    with trace.span("op.oneshot"):
        with trace.span("datalog.parse"):
            query = parse_query(text)
        with trace.span("rewriting.adorn"):
            adorned = adorn_query(query)
        if method in REWRITES:
            answers = _traced_engine(trace, adorned, method, db, stats)
        else:
            answers = _traced_counting(trace, adorned, method, db, stats)
    trace.eval.merge(stats)
    return answers, stats.total_work


def _traced_engine(trace, adorned, method, db, stats):
    name, rewrite = REWRITES[method]
    with trace.span(name):
        rewriting = rewrite(adorned)
    check = rewriting.adorned if method == "extended_counting" else None
    if method == "reduced_counting":
        with trace.span("rewriting.reduce"):
            rewriting = reduce_rewriting(rewriting)
        if not (rewriting.path_deleted_counting
                and rewriting.path_deleted_answer):
            check = rewriting.source.adorned
    program = rewriting.query.program
    trace.counts["rewriting.calls"] += 1
    trace.counts["rewriting.rules"] += len(program.rules)
    if check is not None:
        canonical, support_rules = _canonical(trace, check)
        with trace.span("exec.divergence_check"):
            check_pushing_cycles(
                canonical, check.goal.key, query_constants(check.goal),
                _support(trace, support_rules, db, stats), method,
            )
    for rule in program.rules:
        if not rule.is_fact():
            with trace.span("engine.compile"):
                compiled_rule(rule)
    bound = None
    if method in GUARDED:
        with trace.span("exec.divergence_bound"):
            bound = len(db.constants()) + 3
    with trace.span("engine.fixpoint"):
        derived = evaluate_program(program, db, stats=stats,
                                   max_iterations=bound)
    with trace.span("engine.project"):
        goal = rewriting.query.goal
        relation = derived.get(goal.key) or db.get(goal.key)
        return frozenset(
            project_free(goal, set(goal_filter(goal, relation)))
        )


def _traced_counting(trace, adorned, method, db, stats):
    canonical, support_rules = _canonical(trace, adorned)
    get_relation = _support(trace, support_rules, db, stats)
    goal = adorned.goal
    if method == "magic_counting":
        engine = MagicCountingEngine(
            canonical, goal.key, query_constants(goal), get_relation,
            stats=stats,
        )
        with trace.span("exec.magic_counting"):
            answers = engine.run()
        table = engine.table
    else:
        engine = CountingEngine(
            canonical, goal.key, query_constants(goal), get_relation,
            stats=stats, require_acyclic=method == "pointer_counting",
        )
        with trace.span("exec.count_phase1"):
            table = engine.build_counting_set()
        with trace.span("exec.count_phase2"):
            answers = engine.compute_answers()
    if table is not None:
        trace.counts["exec.counting_rows"] += len(table)
        trace.counts["exec.counting_triples"] += table.triple_count
    trace.counts["exec.answer_states"] += engine.state_count
    return answers


def traced_read(trace, service, op):
    """``QueryService.run`` split into admission and the wait for the
    worker's reply."""
    _kind, form, tenant, constants = op
    with trace.span("op.read") as root:
        with trace.span("serve.submit"):
            future = service.submit(constants, tenant=tenant, form=form)
        with trace.span("serve.wait"):
            result = future.result()
    stats = result.stats
    trace.eval.merge(stats)
    root.record[0] = "op.read_hit" if stats.cache_hits else "op.read_miss"
    return result.answers, work_of(stats)


def traced_write(trace, db, op):
    _kind, facts, flush = op
    with trace.span("op.write"):
        with trace.span("durability.add_facts"):
            db.add_facts(facts)
        if flush:
            with trace.span("durability.flush"):
                db.flush()
    return None, 0


# -- probes ------------------------------------------------------------

PROBE_TREES = 4
PROBE_MATRIX = (
    ("sg_tree", W.SG_TEXT, W.sg_tree, (2, 5),
     inputs.FIXPOINT_METHODS + inputs.COUNTING_METHODS),
    ("shared_vars", W.SHARED_VARS_TEXT, W.shared_vars_chain, (24,),
     ("extended_counting", "reduced_counting", "pointer_counting")),
)
PARALLEL_DBS = (
    (W.SG_TEXT, W.sg_chain, (40,)),
    (W.RIGHT_LINEAR_TEXT, W.right_linear_chain, (60,)),
    (W.MIXED_LINEAR_TEXT, W.mixed_linear_chain, (20, 40)),
)
C2W2_OPS = 4000


def run_probes(trace, scratch):
    """Drive every package's public entry points on small fixed inputs.

    Runs after the workload's service has drained: the parallel probe
    forks, which a process with live threads must not do.
    """
    trace.op = -1
    facts = inputs.forest_facts(PROBE_TREES)
    bindings = inputs.forest_bindings(PROBE_TREES, 64)
    _probe_engine(trace, facts)
    _probe_matrix(trace)
    _probe_graph(trace, facts)
    _probe_exec(trace, facts, bindings)
    _probe_serve(trace, facts, bindings)
    _probe_tenancy(trace)
    _probe_durability(trace, facts, os.path.join(scratch, "probe"))
    _probe_parallel(trace)


def _probe_engine(trace, facts):
    for _ in range(3):
        db = Database()
        with trace.span("engine.ingest"):
            db.add_facts(facts)
    trace.counts["engine.column_bytes"] = sum(
        len(db.get(key).column_bytes()) for key in sorted(db.keys())
    )
    rng = random.Random(0)
    sequence = 0
    for _ in range(20):
        leaves, sequence = inputs.leaf_batch(
            rng, PROBE_TREES - 1, sequence, 2
        )
        db.add_facts(leaves)
        with trace.span("engine.snapshot"):
            db.snapshot()
    rewriting = magic_rewrite(parse_query(W.SG_TEXT))
    for rule in rewriting.query.program.rules:
        if not rule.is_fact():
            with trace.span("engine.compile_cold"):
                # Any factory but the real one bypasses the shared cache.
                compiled_rule(rule, factory=lambda r: CompiledRule(r))


def _probe_matrix(trace):
    for _name, text, make, args, methods in PROBE_MATRIX:
        db = Database.from_facts(inputs.sorted_facts(make(*args)[0]))
        expected = run_strategy("naive", parse_query(text), db).answers
        for method in methods:
            answers, _work = traced_oneshot(trace, text, method, db)
            if answers != expected:
                raise AssertionError(
                    "probe: decomposed %s disagrees with naive" % method
                )


def _probe_graph(trace, facts):
    arcs = [Arc(row[0], row[1], "up") for pred, row in facts
            if pred == "up"]
    successors = adjacency_successors(arcs)
    for _ in range(5):
        with trace.span("graph.classify"):
            classify_arcs("a", successors)


def _probe_exec(trace, facts, bindings):
    db = Database.from_facts(facts)
    query = parse_query(W.SG_TEXT)
    cache = AnswerCache(256)
    store = CountingTableStore(256)
    trace.caches.append(cache)
    trace.stores.append(store)
    prepared = {}
    for method in FORMS:
        for _ in range(3):
            with trace.span("exec.prepare"):
                prepared[method] = PreparedQuery(
                    query, db, method=method, cache=cache
                )
    for form in prepared.values():
        for binding in bindings:
            with trace.span("exec.prepared_miss"):
                result = form.run(binding, db=db)
            trace.eval.merge(result.stats)
    for _ in range(5):
        for form in prepared.values():
            for binding in bindings:
                with trace.span("exec.prepared_hit"):
                    form.run(binding, db=db)
    # The counting-set store only shows without an answer cache in
    # front of it: every binding twice, the second run skips phase 1.
    tables = PreparedQuery(query, db, method="pointer_counting",
                           counting_store=store)
    for binding in bindings + bindings:
        trace.eval.merge(tables.run(binding, db=db).stats)
    keys = [("probe", index) for index in range(128)]
    direct = AnswerCache(256)
    for key in keys:
        direct.put(key, key)
    next_key = itertools.cycle(keys).__next__
    trace.timed_loop("exec.cache_get", 20000,
                     lambda: direct.get(next_key()))


def open_service(db, cache, store=None, workers=1, audit=None):
    """The served configuration of the benchmark: the two registered
    forms on one answer cache, two tenants; returns (service, registry)."""
    registry = FormRegistry(db)
    query = parse_query(W.SG_TEXT)
    registry.register("magic", query, method="magic", cache=cache)
    registry.register("pointer_counting", query,
                      method="pointer_counting", cache=cache,
                      counting_store=store)
    service = QueryService(
        None, db, workers=workers, registry=registry,
        tenants={name: TenantQuota() for name in TENANTS}, audit=audit,
    )
    return service, registry


def _probe_serve(trace, facts, bindings):
    db = Database.from_facts(facts)
    ops = [
        (0, form, tenant, binding)
        for form, tenant in zip(FORMS, TENANTS)
        for binding in bindings
    ]
    cache = AnswerCache(1024)
    service, _registry = open_service(db, cache)
    trace.caches.append(cache)
    trace.services.append(service)
    for _ in range(8):
        for op in ops:
            traced_read(trace, service, op)
    single = _closed_loop_rate(service, ops, clients=1)
    service.drain()
    # Diagnostic only: two clients on two workers share one GIL.
    service, _registry = open_service(db, AnswerCache(1024), workers=2)
    for op in ops:
        service.run(op[3], tenant=op[2], form=op[1])
    double = _closed_loop_rate(service, ops, clients=2)
    service.drain()
    trace.per_call["serve.c2w2_ratio"] = double / single


def _closed_loop_rate(service, ops, clients):
    share = C2W2_OPS // clients

    def client(offset):
        for index in range(share):
            op = ops[(offset + index) % len(ops)]
            service.run(op[3], tenant=op[2], form=op[1])

    threads = [
        threading.Thread(target=client, args=(index * 7,))
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return share * clients / (time.perf_counter() - started)


def _probe_tenancy(trace):
    scheduler = FairScheduler()
    scheduler.add_lane("t0")

    def offer_take():
        scheduler.offer("t0", None)
        scheduler.take(block=False)

    trace.timed_loop("tenancy.offer_take", 20000, offer_take)
    # A clock that never advances: the burst is admitted, the rest
    # denied, so the count repeats exactly.
    bucket = TokenBucket(1000.0, burst=100, clock=lambda: 0.0)
    trace.timed_loop("tenancy.bucket_take", 20000, bucket.try_take)
    trace.counts["tenancy.quota_denied"] += bucket.denied


def _probe_durability(trace, facts, directory):
    durable = DurableDatabase(directory, fsync="batch")
    twin = Database()
    batches = [facts[start:start + 16]
               for start in range(0, len(facts), 16)]
    for index, batch in enumerate(batches):
        with trace.span("durability.add_facts"):
            durable.add_facts(batch)
        with trace.span("engine.add_facts"):
            twin.add_facts(batch)
        if index % 8 == 7:
            with trace.span("durability.flush"):
                durable.flush()
    trace.wals.append(dict(durable.wal_stats, facts=len(facts)))
    with trace.span("durability.checkpoint"):
        path = durable.checkpoint()
    trace.counts["durability.checkpoint_bytes"] += os.path.getsize(path)
    # One more batch after the checkpoint gives recovery a suffix.
    durable.add_facts(
        inputs.leaf_batch(random.Random(0), PROBE_TREES - 1, 0, 16)[0]
    )
    durable.close()
    with trace.span("durability.recover"):
        recovered, report = recover(directory)
    trace.counts["durability.replayed"] += report.replayed
    recovered.close()
    with AuditLog(os.path.join(directory, "audit.jsonl")) as audit:
        entry = {"request_id": 0, "tenant": "t0", "form": "magic",
                 "constants": ["a"], "outcome": "completed"}
        trace.timed_loop("durability.audit", 5000,
                         lambda: audit.record(entry))


def _probe_parallel(trace):
    policy = RecoveryPolicy(speculate=False)
    for text, make, args in PARALLEL_DBS:
        db = Database.from_facts(inputs.sorted_facts(make(*args)[0]))
        query = parse_query(text)
        with trace.span("parallel.plan"):
            plan_partitions(query, db, 2)
        with trace.span("parallel.inline"):
            inline = run_strategy("parallel", query, db, inline=True)
        with trace.span("parallel.w2"):
            sharded = run_strategy("parallel", query, db, workers=2,
                                   recovery=policy)
        if sharded.answers != inline.answers:
            raise AssertionError("probe: sharded answers differ")
        trace.counts["parallel.ops"] += 1
        trace.counts["parallel.work"] += sharded.stats.total_work
        trace.counts["parallel.exchange_bytes"] += \
            sharded.extras["exchange_bytes"]
        trace.counts["parallel.barriers"] += sharded.extras["barriers"]
        trace.counts["parallel.repairs"] += \
            sharded.extras["recovery"]["repairs"]


# -- metrics -----------------------------------------------------------

#: layer metric -> (span name, unit scale): median span duration.
SPAN_MEDIANS = {
    "datalog.parse_us": ("datalog.parse", 1e6),
    "rewriting.adorn_us": ("rewriting.adorn", 1e6),
    "rewriting.magic_us": ("rewriting.magic", 1e6),
    "rewriting.sup_magic_us": ("rewriting.sup_magic", 1e6),
    "rewriting.extended_us": ("rewriting.extended", 1e6),
    "rewriting.reduce_us": ("rewriting.reduce", 1e6),
    "rewriting.canonical_us": ("rewriting.canonical", 1e6),
    "engine.ingest_facts_s": ("engine.ingest", 1.0),
    "engine.compile_us": ("engine.compile", 1e6),
    "engine.compile_cold_us": ("engine.compile_cold", 1e6),
    "engine.fixpoint_ms": ("engine.fixpoint", 1e3),
    "engine.snapshot_us": ("engine.snapshot", 1e6),
    "graph.classify_us": ("graph.classify", 1e6),
    "exec.count_phase1_ms": ("exec.count_phase1", 1e3),
    "exec.count_phase2_ms": ("exec.count_phase2", 1e3),
    "exec.prepare_ms": ("exec.prepare", 1e3),
    "exec.prepared_miss_ms": ("exec.prepared_miss", 1e3),
    "exec.prepared_hit_us": ("exec.prepared_hit", 1e6),
    "serve.submit_us": ("serve.submit", 1e6),
    "durability.add_facts_us": ("durability.add_facts", 1e6),
    "durability.flush_ms": ("durability.flush", 1e3),
    "durability.checkpoint_ms": ("durability.checkpoint", 1e3),
    "durability.recover_ms": ("durability.recover", 1e3),
    "parallel.plan_ms": ("parallel.plan", 1e3),
    "parallel.inline_ms": ("parallel.inline", 1e3),
    "parallel.w2_ms": ("parallel.w2", 1e3),
}
PER_CALL = {
    "exec.cache_get_us": ("exec.cache_get", 1e6),
    "tenancy.offer_take_us": ("tenancy.offer_take", 1e6),
    "tenancy.bucket_take_us": ("tenancy.bucket_take", 1e6),
    "durability.audit_us_per_row": ("durability.audit", 1e6),
    "serve.c2w2_ratio": ("serve.c2w2_ratio", 1.0),
}
COUNTS = (
    "engine.column_bytes", "exec.counting_rows", "exec.counting_triples",
    "exec.answer_states", "tenancy.quota_denied",
    "durability.checkpoint_bytes", "durability.replayed",
    "parallel.exchange_bytes", "parallel.barriers", "parallel.repairs",
)
EVAL_COUNTS = ("iterations", "index_builds", "index_probes", "batch_rows")
SERVICE_COUNTS = ("completed", "retried", "fallbacks", "refreshes")
#: Metrics that are neither a span median nor a per-call time but still
#: rest on the clock; every other layer metric is a count or a ratio of
#: counts and must repeat exactly (``--check-determinism``).
CLOCKED = (
    "engine.fixpoint_share", "serve.overhead_us",
    "durability.overhead_frac", "durability.append_share",
    "data.build_db_s", "bench.trace_overhead_frac", "bench.block_spread",
)


def repeatable(metrics):
    """The layer metrics that do not depend on the clock."""
    return {
        name: value for name, value in metrics.items()
        if name not in SPAN_MEDIANS and name not in PER_CALL
        and name not in CLOCKED
    }


def _rate(blocks, field):
    lookups = sum(block["lookups"] for block in blocks)
    return sum(block[field] for block in blocks) / lookups if lookups \
        else 0.0


def layer_metrics(trace, workload, replay_ops, plain, traced, rates):
    """Every per-layer metric of BENCHMARK.json as ``{name: value}``.

    ``replay_ops`` is how many op ids belong to the workload's replay
    (probe spans carry op -1); ``plain`` / ``traced`` are the per-op
    seconds of the untraced and traced blocks, ``rates`` the untraced
    blocks' throughputs.
    """
    spans = trace.spans
    durations = trace.durations()
    metrics = {}
    for name, (span, scale) in SPAN_MEDIANS.items():
        metrics[name] = statistics.median(durations[span]) * scale
    for name, (key, scale) in PER_CALL.items():
        metrics[name] = trace.per_call[key] * scale
    for name in COUNTS:
        metrics[name] = trace.counts[name]
    for field in EVAL_COUNTS:
        metrics["engine." + field] = getattr(trace.eval, field)
    metrics["rewriting.rules_out"] = (
        trace.counts["rewriting.rules"] / trace.counts["rewriting.calls"]
    )

    # Where the replay's time went: self time of every span of a replay
    # op, against the replay's total op time.
    replay = [s for s in spans if 0 <= s[4] < replay_ops]
    own = self_time_by_name(replay)
    total = sum(s[2] - s[1] for s in replay if s[3] < 0)
    metrics["engine.fixpoint_share"] = \
        own.get("engine.fixpoint", 0.0) / total

    finals = [workload.finals] if workload.finals else []
    caches = [c.stats() for c in trace.caches] + \
        [f["cache"] for f in finals]
    stores = [s.stats() for s in trace.stores] + \
        [f["store"] for f in finals]
    metrics["exec.cache_hit_rate"] = _rate(caches, "hits")
    metrics["exec.cache_evictions"] = sum(c["evictions"] for c in caches)
    metrics["exec.cache_invalidations"] = \
        sum(c["invalidations"] for c in caches)
    metrics["exec.table_hit_rate"] = _rate(stores, "hits")

    services = [s.counters() for s in trace.services] + \
        [f["service"] for f in finals]
    for field in SERVICE_COUNTS:
        metrics["serve." + field] = sum(s[field] for s in services)
    metrics["serve.shed"] = sum(
        s["shed_overload"] + s["shed_quota"] + s["shed_expired"]
        for s in services
    )
    metrics["serve.max_depth"] = max(
        s["max_queue_depth"] for s in services
    )
    metrics["serve.overhead_us"] = (
        statistics.median(durations["op.read_hit"])
        - statistics.median(durations["exec.prepared_hit"])
    ) * 1e6

    wals = trace.wals + [f["wal"] for f in finals if "wal" in f]
    twin = sum(durations["engine.add_facts"])
    probe_durable = sum(
        s[2] - s[1] for s in spans
        if s[0] == "durability.add_facts" and s[4] < 0
    )
    metrics["durability.overhead_frac"] = (probe_durable - twin) / twin
    metrics["durability.wal_bytes_per_fact"] = (
        sum(w["bytes"] for w in wals) / sum(w["facts"] for w in wals)
    )
    metrics["durability.fsyncs"] = sum(w["fsyncs"] for w in wals)
    metrics["durability.append_share"] = (
        sum(w["append_seconds"] for w in trace.wals) / probe_durable
    )
    metrics["parallel.work_per_op"] = (
        trace.counts["parallel.work"] / trace.counts["parallel.ops"]
    )
    metrics["data.build_db_s"] = workload.build_db_s
    metrics["bench.trace_overhead_frac"] = (
        statistics.fmean(traced) / statistics.fmean(plain) - 1.0
    )
    metrics["bench.block_spread"] = block_spread(rates)
    return metrics
