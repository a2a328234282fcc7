"""Benchmark smoke pass: a fast work/time summary for CI artifacts.

Runs a small, fixed subset of the paper's workloads under the main
strategies and writes one ``BENCH_<tag>.json`` file containing, per
(workload, method) cell, the deterministic work counters and the
wall-clock time.  CI uploads the file on every push, so the perf
trajectory of the repository accumulates run over run.

The pass is deliberately tiny (a few hundred milliseconds) — it is a
trend probe, not a rigorous measurement; the real experiments live in
``benchmarks/``.

Usage::

    python -m repro.bench.smoke [output-directory]
"""

import json
import os
import platform
import sys
import time

from ..data.workloads import WORKLOADS
from .export import rows_to_records
from .harness import run_matrix

#: (workload name, make_db kwargs, methods) cells of the smoke pass.
SMOKE_CELLS = (
    ("multi_rule", {"depth": 32},
     ("encoded_counting", "extended_counting", "pointer_counting")),
    ("sg_tree", {"fanout": 2, "depth": 6},
     ("magic", "pointer_counting")),
    ("sg_chain", {"depth": 32},
     ("magic", "classical_counting", "pointer_counting")),
)

#: (workload name, make_db kwargs) cells probed through the resilient
#: runner.  ``sg_chain`` succeeds on the first stage (depth 0);
#: ``sg_cyclic`` forces real degradation (pointer and extended counting
#: both fail on cyclic data), so the artifact tracks fallback cost.
RESILIENCE_CELLS = (
    ("sg_chain", {"depth": 32}),
    ("sg_cyclic", {}),
)


def run_smoke():
    """Run the smoke cells; returns flattened benchmark records."""
    rows = []
    for name, kwargs, methods in SMOKE_CELLS:
        workload = WORKLOADS[name]
        db, _source = workload.make_db(**kwargs)
        rows.extend(
            run_matrix(
                workload.query, db, list(methods),
                label=name, params=kwargs,
            )
        )
    return rows_to_records(rows)


def run_resilience_probe():
    """Run the resilience cells; returns one record per cell.

    Each record tracks the robustness counters the roadmap cares
    about: ``budget_aborts`` (attempts killed by a budget) and
    ``fallback_depth`` (failed stages before the winning one), plus
    the per-attempt error classes so a silent change in degradation
    behaviour shows up in the artifact diff.
    """
    from ..exec.resilient import FallbackPolicy, run_resilient

    records = []
    for name, kwargs in RESILIENCE_CELLS:
        workload = WORKLOADS[name]
        db, _source = workload.make_db(**kwargs)
        # A generous budget: normal cells never hit it, so any abort
        # recorded here is a robustness regression.
        policy = FallbackPolicy(timeout=30.0)
        report = run_resilient(workload.query, db, policy)
        records.append(
            {
                "label": name,
                "method": report.method,
                "answers": len(report.result.answers),
                "fallback_depth": report.fallback_depth,
                "budget_aborts": report.budget_aborts,
                "attempts": [
                    {"method": a.method, "error": a.error_class,
                     "elapsed": a.elapsed}
                    for a in report.attempts
                ],
                "total_elapsed": report.total_elapsed,
            }
        )
    return records


def run_guard_overhead():
    """Measure the resource-guard overhead on one fixed cell.

    Runs ``sg_chain``/``pointer_counting`` once without a budget and
    once under a loose :class:`ResourceBudget`, and reports both times.
    The round-boundary checks are designed to be O(rounds), not
    O(tuples), so the guarded run should stay within a few percent of
    the unguarded one (the e8/a3 benchmarks enforce 5 %).
    """
    from ..engine.guard import ResourceBudget
    from ..exec.strategies import run_strategy

    workload = WORKLOADS["sg_chain"]
    db, _source = workload.make_db(depth=64)
    unguarded = run_strategy("pointer_counting", workload.query, db)
    guarded = run_strategy(
        "pointer_counting", workload.query, db,
        budget=ResourceBudget(timeout=30.0, max_facts=10_000_000),
    )
    assert guarded.answers == unguarded.answers
    return {
        "label": "sg_chain",
        "method": "pointer_counting",
        "unguarded_elapsed": unguarded.elapsed,
        "guarded_elapsed": guarded.elapsed,
        "budget_aborts": 0,
    }


def run_query_cache_probe():
    """Measure the prepared-query layer on a repeated-binding stream.

    Cold: a fresh ``run_strategy`` pipeline per binding.  Warm: one
    :class:`~repro.exec.prepared.PreparedQuery` with an answer cache
    and a counting-table store.  A third pass with an empty answer
    cache but the warm store counts how many counting sets phase 1
    reused.  Answers are cross-checked on every binding.
    """
    import time as time_module

    from ..data.workloads import WORKLOADS, forest_bindings, sg_forest
    from ..exec.cache import AnswerCache, CountingTableStore
    from ..exec.prepared import PreparedQuery
    from ..exec.strategies import run_strategy

    trees, queries = 4, 16
    db, _source = sg_forest(trees=trees, fanout=2, depth=5)
    bindings = forest_bindings(trees=trees, queries=queries)
    cache = AnswerCache(capacity=64)
    store = CountingTableStore(capacity=32)
    prepared = PreparedQuery(
        WORKLOADS["sg_forest"].query, db, cache=cache,
        counting_store=store,
    )

    started = time_module.perf_counter()
    cold = [
        run_strategy(prepared.method, prepared.bind(binding), db)
        for binding in bindings
    ]
    cold_elapsed = time_module.perf_counter() - started

    started = time_module.perf_counter()
    warm = prepared.run_batch(bindings, db=db)
    warm_elapsed = time_module.perf_counter() - started

    answers_match = all(
        w.answers == c.answers for w, c in zip(warm, cold)
    )

    reuse_client = PreparedQuery(
        WORKLOADS["sg_forest"].query, db,
        cache=AnswerCache(capacity=64), counting_store=store,
    )
    hits_before = store.hits
    reuse = reuse_client.run_batch(bindings[:trees], db=db)
    answers_match = answers_match and all(
        r.answers == c.answers for r, c in zip(reuse, cold)
    )

    return {
        "label": "sg_forest",
        "method": prepared.method,
        "queries": queries,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "hit_rate": cache.hit_rate,
        "cold_elapsed": cold_elapsed,
        "warm_elapsed": warm_elapsed,
        "counting_table_reuse": store.hits - hits_before,
        "answers_match": answers_match,
    }


def run_service_probe():
    """Exercise the serving layer: one healthy and one poisoned pass.

    Healthy: every binding is admitted and completes on the primary
    strategy; answers are cross-checked against single-threaded runs.
    Poisoned: :func:`~repro.data.workloads.poison_forest` closes an
    up-cycle in one tree, the primary strategy fails typed until its
    breaker trips, and requests still answer through the fallback
    chain.  The poisoned pass uses one worker so every counter —
    admissions, fallbacks, breaker trips and rejections — is
    deterministic and a behaviour drift shows up in the artifact diff.
    """
    from ..data.workloads import (
        WORKLOADS,
        forest_bindings,
        forest_root,
        poison_forest,
        sg_forest,
    )
    from ..exec.prepared import PreparedQuery
    from ..exec.strategies import run_strategy
    from ..serve import BreakerBoard, QueryService, RetryPolicy

    trees, queries = 2, 8
    db, _source = sg_forest(trees=trees, fanout=2, depth=4)
    prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
    bindings = forest_bindings(trees=trees, queries=queries)

    with QueryService(prepared, db, workers=2, queue_capacity=queries,
                      retry=RetryPolicy(seed=0)) as service:
        futures = [service.submit(b, timeout=30.0) for b in bindings]
        results = [f.result(timeout=60.0) for f in futures]
    answers_match = all(
        r.answers == run_strategy(
            prepared.method, prepared.bind(b), db
        ).answers
        for b, r in zip(bindings, results)
    )
    healthy = service.counters()

    poison_forest(db, tree=trees - 1)
    poisoned_binding = (forest_root(trees - 1),)
    baseline = run_strategy(
        "naive", prepared.bind(poisoned_binding), db
    ).answers
    board = BreakerBoard(threshold=2, cooldown=60.0)
    with QueryService(prepared, db, workers=1, queue_capacity=queries,
                      breakers=board) as service:
        poisoned = [
            service.run(poisoned_binding, wait=60.0) for _ in range(4)
        ]
    answers_match = answers_match and all(
        r.answers == baseline for r in poisoned
    )
    degraded = service.counters()

    keep = ("submitted", "admitted", "completed", "failed",
            "shed_overload", "shed_expired", "retried", "fallbacks",
            "breaker_trips", "breaker_rejections")
    return {
        "label": "sg_forest",
        "method": prepared.method,
        "queries": queries,
        "answers_match": answers_match,
        "healthy": {key: healthy[key] for key in keep},
        "poisoned": dict(
            {key: degraded[key] for key in keep},
            breaker_states=degraded["breaker_states"],
        ),
    }


def run_tenancy_probe():
    """Exercise the multi-tenant serving layer on a tiny two-tenant mix.

    A ``well`` tenant submits a bounded batch of registered-form
    requests; a ``hog`` tenant submits a burst far past its
    token-bucket quota, so most of it is shed typed
    (``QuotaExceeded``/``Overloaded``, each carrying a
    machine-readable ``retry_after``) while everything admitted still
    answers.  The artifact tracks the per-tenant admission ledgers,
    whether every shed was typed with a hint, and whether every served
    answer matches single-threaded evaluation — so a drift in quota
    enforcement, fair scheduling, or tenant isolation shows up in the
    artifact diff.
    """
    from ..data.workloads import WORKLOADS, forest_bindings, sg_forest
    from ..errors import Overloaded, QuotaExceeded
    from ..exec.strategies import run_strategy
    from ..serve import QueryService
    from ..tenancy import FormRegistry, TenantQuota

    trees, queries = 2, 8
    db, _source = sg_forest(trees=trees, fanout=2, depth=3)
    registry = FormRegistry(db=db)
    registry.register("sg", WORKLOADS["sg_forest"].query, db=db)
    bindings = forest_bindings(trees=trees, queries=queries)
    tenants = {
        "well": TenantQuota(weight=2.0, queue_capacity=queries),
        "hog": TenantQuota(rate=50.0, burst=2.0, queue_capacity=4),
    }
    service = QueryService(
        None, db, workers=2, queue_capacity=queries,
        registry=registry, tenants=tenants,
    )
    well = [service.submit(binding, tenant="well", form="sg")
            for binding in bindings]
    hog, sheds = [], []
    for binding in bindings * 6:
        try:
            hog.append(
                (binding, service.submit(binding, tenant="hog",
                                         form="sg"))
            )
        except (QuotaExceeded, Overloaded) as exc:
            sheds.append(exc)
    results = [future.result(timeout=60.0) for future in well]
    service.drain()
    form = registry.get("sg").prepared
    answers_match = all(
        result.answers == run_strategy(
            form.method, form.bind(binding), db
        ).answers
        for binding, result in (
            list(zip(bindings, results))
            + [(binding, future.result(0)) for binding, future in hog
               if future.exception(timeout=0) is None]
        )
    )
    counters = service.counters()
    keep = ("submitted", "admitted", "completed", "failed",
            "shed_overload", "shed_quota", "inflight")
    return {
        "label": "sg_forest",
        "method": form.method,
        "queries": queries,
        "answers_match": answers_match,
        # Every rate shed carries a retry_after hint; a queue_full
        # shed may predate the first completion, before the service
        # has a drain-time estimate to offer.
        "sheds_typed_with_hints": all(
            exc.tenant == "hog"
            and (not isinstance(exc, QuotaExceeded)
                 or exc.retry_after is not None)
            for exc in sheds
        ),
        "forms": counters["forms"],
        "tenants": {
            name: {key: block[key] for key in keep}
            for name, block in counters["tenants"].items()
        },
    }


def run_parallel_probe():
    """Exercise the sharded-fixpoint executor on one fixed cell.

    Runs the S1 cylinder once through the serial oracle (the same
    engine inline, zero processes) and once on a two-worker pool, and
    records the artifact's ``parallel`` block: the wall-clock speedup,
    the exchange volume, the barrier count, and whether the pool run
    reproduced the oracle's answers and merged work counters exactly —
    the executor's core contract, so a divergence shows up in the
    artifact diff before any differential suite runs.
    """
    from ..exec.strategies import run_strategy

    workload = WORKLOADS["sg_cylinder"]
    db, _source = workload.make_db(width=6, height=16)
    serial = run_strategy(
        "parallel", workload.query, db, workers=1, inline=True
    )
    pooled = run_strategy("parallel", workload.query, db, workers=2)
    return {
        "label": "sg_cylinder",
        "workers": 2,
        "serial_elapsed": serial.elapsed,
        "parallel_elapsed": pooled.elapsed,
        "speedup": serial.elapsed / max(pooled.elapsed, 1e-9),
        "exchange_bytes": pooled.extras["exchange_bytes"],
        "barriers": pooled.extras["barriers"],
        "answers": len(pooled.answers),
        "answers_match": pooled.answers == serial.answers,
        "counters_match": (pooled.stats.as_dict()
                           == serial.stats.as_dict()),
        "plan": pooled.extras["plan"],
    }


def run_self_healing_probe():
    """Exercise the self-healing supervision layer on one fixed drill.

    The barrier-crash drill at probe size: SIGKILL worker 1 of a
    two-worker pool at its second round barrier and let the default
    reassign policy repair the pool in place.  The artifact tracks the
    recovery counters (repairs, rounds replayed, recovery seconds) and
    whether the healed run reproduced the undisturbed run's answers
    and merged work counters exactly — the recovery invariant — so a
    drift in either the repair mechanics or their cost shows up in the
    artifact diff.
    """
    from ..engine.faults import FaultInjector
    from ..exec.strategies import run_strategy

    workload = WORKLOADS["sg_cylinder"]
    db, _source = workload.make_db(width=6, height=16)
    oracle = run_strategy("parallel", workload.query, db, workers=2)
    injector = FaultInjector(seed=0).crash_at_barrier(
        worker=1, barrier=2
    )
    with injector:
        healed = run_strategy(
            "parallel", workload.query, db, workers=2
        )
    recovery = healed.extras["recovery"]
    return {
        "label": "sg_cylinder",
        "workers": 2,
        "mode": recovery["policy"]["mode"],
        "crashes": recovery["crashes"],
        "hangs": recovery["hangs"],
        "repairs": recovery["repairs"],
        "reassignments": recovery["reassignments"],
        "respawns": recovery["respawns"],
        "rounds_replayed": recovery["rounds_replayed"],
        "recovery_seconds": recovery["recovery_seconds"],
        "checkpoints": recovery["checkpoints"],
        "healed_elapsed": healed.elapsed,
        "oracle_elapsed": oracle.elapsed,
        "answers_match": healed.answers == oracle.answers,
        "counters_match": (healed.stats.as_dict()
                           == oracle.stats.as_dict()),
    }


def run_durability_probe():
    """Exercise the durability layer: logged ingest, crash, recovery.

    One small ingest through a :class:`~repro.durability.durable.
    DurableDatabase` (``fsync="batch"``), a checkpoint, a suffix batch,
    then recovery of the directory.  The artifact tracks the WAL's own
    cost counters (appends, bytes, fsyncs, seconds — the price of
    durability), the recovery shape (checkpoint sequence + records
    replayed), and whether the recovered state is byte-identical to
    the uncrashed ingest — so a silent regression in either the
    overhead or the recovery contract shows up in the artifact diff.
    """
    import shutil
    import tempfile
    import time as time_module

    from ..durability import recover
    from ..durability.durable import DurableDatabase
    from ..engine.database import Database

    batches = [
        [("edge", ("n%d" % i, "n%d" % (i + 1)))
         for i in range(k * 64, (k + 1) * 64)]
        for k in range(16)
    ]
    directory = tempfile.mkdtemp(prefix="repro-smoke-dur-")
    try:
        control = Database()
        db = DurableDatabase(directory, fsync="batch")
        started = time_module.perf_counter()
        for batch in batches:
            db.add_facts(batch)
        db.flush()
        ingest_elapsed = time_module.perf_counter() - started
        for batch in batches:
            control.add_facts(batch)
        stats = db.wal_stats
        db.checkpoint()
        suffix = [("edge", ("s0", "s1")), ("edge", ("s1", "s2"))]
        db.add_facts(suffix)
        control.add_facts(suffix)
        db.close()

        started = time_module.perf_counter()
        recovered, report = recover(directory, fsync="off")
        recovery_elapsed = time_module.perf_counter() - started
        state_ok = (
            recovered.to_text() == control.to_text()
            and recovered.lineage == report.lineage
        )
        recovered.close()
        return {
            "batches": len(batches),
            "facts": control.total_facts(),
            "ingest_elapsed": ingest_elapsed,
            "wal_appends": stats["appends"],
            "wal_bytes": stats["bytes"],
            "wal_fsyncs": stats["fsyncs"],
            "wal_append_seconds": stats["append_seconds"],
            "wal_overhead": stats["append_seconds"]
            / max(ingest_elapsed - stats["append_seconds"], 1e-9),
            "recovery_elapsed": recovery_elapsed,
            "checkpoint_seq": report.checkpoint_seq,
            "replayed": report.replayed,
            "wal_records": report.wal_records,
            "state_identical": state_ok,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def write_smoke(directory=".", tag=None):
    """Run the smoke pass and write ``BENCH_<tag>.json`` in ``directory``.

    The default tag is a UTC timestamp, so successive CI runs never
    overwrite each other's artifacts.  Returns the file path.
    """
    records = run_smoke()
    if tag is None:
        tag = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    payload = {
        "tag": tag,
        "python": platform.python_version(),
        "records": records,
        "resilience": run_resilience_probe(),
        "guard_overhead": run_guard_overhead(),
        "query_cache": run_query_cache_probe(),
        "service": run_service_probe(),
        "tenancy": run_tenancy_probe(),
        "parallel": run_parallel_probe(),
        "self_healing": run_self_healing_probe(),
        "durability": run_durability_probe(),
        "total_elapsed": sum(
            r["elapsed"] for r in records if r["elapsed"] is not None
        ),
    }
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_%s.json" % tag)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    directory = argv[0] if argv else "."
    path = write_smoke(directory)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
