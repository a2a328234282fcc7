"""Command-line interface.

Main subcommands::

    python -m repro run PROGRAM.dl [--db FACTS.dl] [--method auto]
                       [--timeout S] [--max-facts N] [--resilient]
                       [--cache [CAPACITY]] [--batch BINDINGS]
                       [--wal DIR] [--fsync batch] [--checkpoint]
    python -m repro rewrite PROGRAM.dl --method magic
    python -m repro explain PROGRAM.dl [--db FACTS.dl]
    python -m repro bench WORKLOAD [--methods m1,m2] [--param k=v ...]
    python -m repro serve-bench [--queries N] [--workers N]
                       [--capacity N] [--timeout S] [--poison]
                       [--audit PATH] [--tenants N]
                       [--quota RATE[:BURST]]
    python -m repro recover DIR [--checkpoint] [--dump FACTS.dl]

``PROGRAM.dl`` is a program text containing exactly one ``?-`` goal;
``--db`` points at a fact file (facts may also live in the program
file itself — they are treated as base-predicate overlays).  ``bench``
runs a strategy matrix over one of the named workloads from
:mod:`repro.data.workloads`.  ``run --wal DIR`` serves from a durable
database (``--db`` facts are ingested through its write-ahead log);
``recover DIR`` replays a durability directory and prints the
recovery report.
"""

import argparse
import sys

from .bench import matrix_table, run_matrix
from .data import WORKLOADS, get_workload
from .datalog import format_query, parse_query
from .engine import Database
from .errors import ReproError
from .exec import STRATEGIES
from .rewriting import (
    classical_counting_rewrite,
    cyclic_counting_program_text,
    extended_counting_rewrite,
    magic_rewrite,
    optimize,
    reduce_rewriting,
)

#: Rewritings printable by the ``rewrite`` subcommand.
REWRITERS = {
    "magic": lambda q: format_query(magic_rewrite(q).query,
                                    show_labels=True),
    "classical_counting": lambda q: format_query(
        classical_counting_rewrite(q).query, show_labels=True
    ),
    "extended_counting": lambda q: format_query(
        extended_counting_rewrite(q).query, show_labels=True
    ),
    "reduced_counting": lambda q: format_query(
        reduce_rewriting(extended_counting_rewrite(q)).query,
        show_labels=True,
    ),
    "cyclic_counting": cyclic_counting_program_text,
}


def _read(path):
    with open(path) as handle:
        return handle.read()


def _load_query_and_db(args):
    query = parse_query(_read(args.program))
    db = Database()
    if args.db:
        db = Database.from_text(_read(args.db))
    return query, db


def _make_budget(args):
    """A ResourceBudget from --timeout/--max-facts, or None."""
    if args.timeout is None and args.max_facts is None:
        return None
    from .engine.guard import ResourceBudget

    return ResourceBudget(timeout=args.timeout, max_facts=args.max_facts)


def _parse_bindings(text):
    """Parse ``--batch`` bindings: comma-separated, colons inside.

    ``"ann,bob"`` is two one-constant bindings; ``"ann:1,bob:2"`` two
    two-constant bindings.  Integer-looking values become ints, since
    that is how the fact parser reads them.
    """
    def coerce(token):
        try:
            return int(token)
        except ValueError:
            return token

    bindings = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bindings.append(
            tuple(coerce(part) for part in chunk.split(":"))
        )
    return bindings


def _cmd_run_prepared(args, query, db, out):
    from .exec import AnswerCache, CountingTableStore, PreparedQuery

    cache = AnswerCache(capacity=args.cache if args.cache else 128)
    prepared = PreparedQuery(
        query, db if args.method == "auto" else None,
        method=args.method, cache=cache,
        counting_store=CountingTableStore(),
    )
    bindings = (
        _parse_bindings(args.batch) if args.batch else [None]
    )
    out.write("method : %s (prepared)\n" % prepared.method)
    budget = _make_budget(args)
    results = prepared.run_batch(bindings, db=db, budget=budget)
    for binding, result in zip(bindings, results):
        shown = binding if binding is not None else \
            prepared.default_constants
        out.write(
            "query  : %s -> %d answers%s\n"
            % (
                ", ".join(str(v) for v in shown),
                len(result.answers),
                " (cached)" if result.extras.get("cache_hit") else "",
            )
        )
    if len(results) == 1:
        for answer in sorted(results[0].answers):
            out.write("answer : %s\n" % (answer,))
    out.write(
        "cache  : %d hits, %d misses (%.0f%% hit rate)\n"
        % (cache.hits, cache.misses, 100.0 * cache.hit_rate)
    )
    return 0


def _open_durable(args, out):
    """A recovered :class:`DurableDatabase` for ``--wal DIR``.

    ``--db`` facts are staged through a throwaway in-memory database
    (reusing ``from_text``'s validation) and ingested as one logged
    batch — duplicate facts are deduplicated by the engine exactly as
    replay will deduplicate them, so re-running with the same fact
    file is idempotent.
    """
    from .durability import DurableDatabase

    db = DurableDatabase(args.wal, fsync=args.fsync)
    report = db.recovery
    if not report.fresh:
        out.write(
            "recover: %d WAL record(s), checkpoint@%d, replayed %d%s\n"
            % (report.wal_records, report.checkpoint_seq,
               report.replayed,
               ", torn tail truncated" if report.truncated_tail else "")
        )
    if args.db:
        staged = Database.from_text(_read(args.db))
        db.add_facts(
            (key[0], row)
            for key, rel in sorted(staged._relations.items())
            for row in rel._log
        )
        db.flush()
    return db


def _cmd_run(args, out):
    query = parse_query(_read(args.program))
    if args.wal:
        db = _open_durable(args, out)
        try:
            code = _run_loaded(args, query, db, out)
            if args.checkpoint:
                out.write("ckpt   : %s\n" % db.checkpoint())
            return code
        finally:
            db.close()
    if args.checkpoint:
        out.write("error: --checkpoint requires --wal DIR\n")
        return 1
    db = Database.from_text(_read(args.db)) if args.db else Database()
    return _run_loaded(args, query, db, out)


def _run_loaded(args, query, db, out):
    if args.cache is not None or args.batch:
        if args.resilient:
            out.write(
                "error: --cache/--batch cannot be combined with "
                "--resilient\n"
            )
            return 1
        return _cmd_run_prepared(args, query, db, out)
    if args.resilient:
        from .exec.resilient import DEFAULT_CHAIN, FallbackPolicy, \
            run_resilient

        chain = DEFAULT_CHAIN
        if args.method != "auto" and args.method not in chain:
            chain = (args.method,) + chain
        elif args.method != "auto":
            # Start the default chain at the requested method.
            chain = chain[chain.index(args.method):]
        policy = FallbackPolicy(
            chain=chain, timeout=args.timeout, max_facts=args.max_facts,
        )
        report = run_resilient(query, db, policy)
        result = report.result
        out.write(
            "method : %s (resilient, %d failed attempts)\n"
            % (report.method, report.fallback_depth)
        )
        for attempt in report.attempts:
            if attempt.failed:
                out.write(
                    "tried  : %s -> %s: %s\n"
                    % (attempt.method, attempt.error_class, attempt.error)
                )
    else:
        plan = optimize(query, db if args.method == "auto" else None,
                        method=args.method)
        result = plan.execute(db, budget=_make_budget(args))
        out.write("method : %s\n" % plan.explain())
    for answer in sorted(result.answers):
        out.write("answer : %s\n" % (answer,))
    out.write("count  : %d answers\n" % len(result.answers))
    out.write("work   : %d\n" % result.stats.total_work)
    out.write("time   : %.4fs\n" % result.elapsed)
    return 0


def _cmd_rewrite(args, out):
    query = parse_query(_read(args.program))
    out.write(REWRITERS[args.method](query))
    out.write("\n")
    return 0


def _cmd_check(args, out):
    from .datalog.validation import validate_query

    query = parse_query(_read(args.program))
    report = validate_query(query)
    out.write(report.render() + "\n")
    return 0 if report.ok() else 1


def _cmd_explain(args, out):
    query, db = _load_query_and_db(args)
    plan = optimize(query, db if args.db else None)
    out.write(plan.explain() + "\n")
    return 0


def _cmd_trace(args, out):
    from .engine import SemiNaiveEngine
    from .engine.fixpoint import goal_filter
    from .engine.tracing import DerivationTrace

    query, db = _load_query_and_db(args)
    trace = DerivationTrace()
    engine = SemiNaiveEngine(query.program, db, trace=trace)
    engine.run()
    goal = query.goal
    relation = engine.relation(goal.key)
    tuples = sorted(goal_filter(goal, relation), key=repr)
    if not tuples:
        out.write("no answers\n")
        return 0
    shown = tuples[: args.limit]
    for row in shown:
        out.write(trace.explain(goal.key, row).render() + "\n\n")
    if len(tuples) > len(shown):
        out.write(
            "... %d more answers (raise --limit to see them)\n"
            % (len(tuples) - len(shown))
        )
    return 0


def _cmd_bench(args, out):
    workload = get_workload(args.workload)
    params = {}
    for item in args.param or ():
        key, _sep, value = item.partition("=")
        params[key] = int(value)
    db, _source = workload.make_db(**params)
    methods = (
        args.methods.split(",") if args.methods
        else list(workload.applicable)
    )
    rows = run_matrix(workload.query, db, methods, label=args.workload)
    out.write(matrix_table(rows, title=workload.description) + "\n")
    if args.csv:
        from .bench import write_csv

        count = write_csv(rows, args.csv)
        out.write("wrote %d records to %s\n" % (count, args.csv))
    if args.json:
        from .bench import write_json

        count = write_json(rows, args.json)
        out.write("wrote %d records to %s\n" % (count, args.json))
    return 0


def _cmd_serve_bench(args, out):
    """Drive a QueryService over an sg_forest binding stream.

    Open-loop: every binding is submitted up front, so offered load can
    exceed ``--capacity`` and exercise admission control.  Served
    answers are cross-checked against single-threaded evaluation of the
    same bindings before the counter block is printed.
    """
    import json as json_module
    import time as time_module

    from .data.workloads import (
        WORKLOADS, forest_bindings, poison_forest, sg_forest,
    )
    from .errors import Overloaded, QuotaExceeded
    from .exec import PreparedQuery
    from .exec.strategies import run_strategy
    from .serve import BreakerBoard, QueryService, RetryPolicy

    db, _source = sg_forest(trees=args.trees, fanout=args.fanout,
                            depth=args.depth)
    prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
    if args.poison:
        leaf, root = poison_forest(db, tree=args.trees - 1)
        out.write("poison : up(%s, %s) closes a cycle in tree %d\n"
                  % (leaf, root, args.trees - 1))
    bindings = forest_bindings(trees=args.trees, queries=args.queries)
    audit = None
    if args.audit:
        from .durability import AuditLog

        audit = AuditLog(args.audit)
    tenants = None
    names = [None]
    if args.tenants:
        from .tenancy import TenantQuota

        rate = burst = None
        if args.quota:
            parts = args.quota.split(":", 1)
            rate = float(parts[0])
            burst = float(parts[1]) if len(parts) > 1 else None
        names = ["tenant%d" % i for i in range(args.tenants)]
        tenants = {
            name: TenantQuota(rate=rate, burst=burst,
                              queue_capacity=args.capacity)
            for name in names
        }
    service = QueryService(
        prepared, db, workers=args.workers,
        queue_capacity=args.capacity, default_timeout=args.timeout,
        retry=RetryPolicy(seed=args.seed),
        breakers=BreakerBoard(threshold=args.breaker_threshold),
        audit=audit, tenants=tenants,
    )
    out.write(
        "method : %s (%d worker(s), queue capacity %d)\n"
        % (prepared.method, args.workers, args.capacity)
    )
    if tenants is not None:
        out.write(
            "tenants: %d lane(s), request rate %s\n"
            % (len(names),
               "unlimited" if rate is None
               else "%g/s (burst %g)" % (rate, burst or rate))
        )
    started = time_module.perf_counter()
    admitted, hints = [], []
    for index, binding in enumerate(bindings):
        tenant = names[index % len(names)]
        try:
            admitted.append(
                (binding, service.submit(binding, tenant=tenant))
            )
        except (Overloaded, QuotaExceeded) as exc:
            # Counted by the service as shed_overload / shed_quota;
            # keep the machine-readable back-pressure hint.
            if exc.retry_after is not None:
                hints.append(exc.retry_after)
    served, failed = [], []
    for binding, future in admitted:
        error = future.exception(timeout=600.0)
        if error is None:
            served.append((binding, future.result(0)))
        else:
            failed.append((binding, error))
    elapsed = time_module.perf_counter() - started
    service.drain()
    mismatched = sum(
        1 for binding, result in served
        if result.answers != run_strategy(
            result.method, prepared.bind(binding), db
        ).answers
    )
    counters = service.counters()
    out.write(
        "load   : %d offered -> %d served, %d shed, %d failed\n"
        % (len(bindings), len(served),
           counters["shed_overload"] + counters["shed_expired"]
           + counters["shed_quota"],
           len(failed))
    )
    if hints:
        out.write(
            "hints  : %d shed(s) carried retry_after "
            "(%.4fs min, %.4fs max)\n"
            % (len(hints), min(hints), max(hints))
        )
    out.write(
        "verify : %s\n"
        % ("answers match single-threaded evaluation" if not mismatched
           else "%d served answers MISMATCH" % mismatched)
    )
    out.write("time   : %.4fs\n" % elapsed)
    out.write("service counters:\n")
    out.write(json_module.dumps(counters, indent=2, sort_keys=True))
    out.write("\n")
    if audit is not None:
        audit.close()
        out.write("audit  : %d entr%s -> %s\n"
                  % (audit.entries_written,
                     "y" if audit.entries_written == 1 else "ies",
                     args.audit))
    return 1 if mismatched else 0


def _cmd_recover(args, out):
    """Replay a durability directory and print the recovery report."""
    import json as json_module

    from .durability import recover

    db, report = recover(args.directory, fsync=args.fsync)
    try:
        out.write(
            json_module.dumps(report.to_dict(), indent=2,
                              sort_keys=True) + "\n"
        )
        out.write(
            "facts  : %d across %d relation(s)\n"
            % (db.total_facts(), len(db.keys()))
        )
        if args.checkpoint:
            out.write("ckpt   : %s\n" % db.checkpoint())
        if args.dump:
            with open(args.dump, "w") as handle:
                handle.write(db.to_text() + "\n")
            out.write("wrote facts to %s\n" % args.dump)
    finally:
        db.close()
    return 0


def _cmd_experiments(args, out):
    """Regenerate every experiment table by running the bench suite."""
    import os

    import pytest as pytest_module

    bench_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
        "benchmarks",
    )
    if not os.path.isdir(bench_dir):
        out.write(
            "error: benchmarks directory not found at %s (run from a "
            "source checkout)\n" % bench_dir
        )
        return 1
    argv = [bench_dir, "--benchmark-only", "-q"]
    if args.experiment:
        argv.append("-k")
        argv.append(args.experiment)
    return pytest_module.main(argv)


def _cmd_gen(args, out):
    workload = get_workload(args.workload)
    params = {}
    for item in args.param or ():
        key, _sep, value = item.partition("=")
        params[key] = int(value)
    db, _source = workload.make_db(**params)
    text = db.to_text()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        out.write(
            "wrote %d facts to %s\n" % (db.total_facts(), args.output)
        )
    else:
        out.write(text + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counting-method optimization of linear Datalog "
                    "(Greco & Zaniolo, EDBT 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a query")
    run.add_argument("program", help="program file with one ?- goal")
    run.add_argument("--db", help="fact file")
    run.add_argument(
        "--method", default="auto",
        choices=["auto"] + sorted(STRATEGIES),
    )
    run.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock budget; exceeding it raises DeadlineExceeded",
    )
    run.add_argument(
        "--max-facts", type=int, metavar="N",
        help="derived-fact budget; exceeding it raises FactBudgetExceeded",
    )
    run.add_argument(
        "--resilient", action="store_true",
        help="degrade through a strategy fallback chain instead of "
             "failing on the first method error",
    )
    run.add_argument(
        "--cache", type=int, nargs="?", const=128, metavar="CAPACITY",
        help="prepare the query once and serve it through an LRU "
             "answer cache (default capacity 128)",
    )
    run.add_argument(
        "--batch", metavar="BINDINGS",
        help="evaluate the prepared query for many bindings: comma-"
             "separated, constants within one binding separated by "
             "colons (e.g. 'ann,bob' or 'ann:1,bob:2')",
    )
    run.add_argument(
        "--wal", metavar="DIR",
        help="serve from a durable database in DIR: recover prior "
             "state, ingest --db facts through the write-ahead log",
    )
    run.add_argument(
        "--fsync", default="batch", choices=["always", "batch", "off"],
        help="WAL fsync policy for --wal (default batch)",
    )
    run.add_argument(
        "--checkpoint", action="store_true",
        help="cut a checkpoint in the --wal directory after the run",
    )
    run.set_defaults(func=_cmd_run)

    rewrite = sub.add_parser("rewrite", help="print a rewritten program")
    rewrite.add_argument("program")
    rewrite.add_argument(
        "--method", required=True, choices=sorted(REWRITERS)
    )
    rewrite.set_defaults(func=_cmd_rewrite)

    check = sub.add_parser(
        "check", help="validate a query and report method applicability"
    )
    check.add_argument("program")
    check.set_defaults(func=_cmd_check)

    explain = sub.add_parser(
        "explain", help="show which method the optimizer would pick"
    )
    explain.add_argument("program")
    explain.add_argument("--db")
    explain.set_defaults(func=_cmd_explain)

    trace = sub.add_parser(
        "trace", help="print derivation trees for a query's answers"
    )
    trace.add_argument("program")
    trace.add_argument("--db")
    trace.add_argument("--limit", type=int, default=3,
                       help="answers to explain (default 3)")
    trace.set_defaults(func=_cmd_trace)

    bench = sub.add_parser("bench", help="run a workload matrix")
    bench.add_argument("workload", choices=sorted(WORKLOADS))
    bench.add_argument("--methods", help="comma-separated strategy names")
    bench.add_argument(
        "--param", action="append",
        help="workload parameter, e.g. --param depth=16",
    )
    bench.add_argument("--csv", help="also write records to a CSV file")
    bench.add_argument("--json", help="also write records to a JSON file")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve-bench",
        help="drive a concurrent QueryService over the sg_forest "
             "workload and print its admission/breaker counters",
    )
    serve.add_argument("--trees", type=int, default=4,
                       help="forest trees / distinct roots (default 4)")
    serve.add_argument("--fanout", type=int, default=2)
    serve.add_argument("--depth", type=int, default=4)
    serve.add_argument("--queries", type=int, default=32,
                       help="bindings submitted open-loop (default 32)")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--capacity", type=int, default=8,
                       help="admission queue capacity (default 8)")
    serve.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-request deadline propagated into every attempt",
    )
    serve.add_argument("--seed", type=int, default=0,
                       help="retry-backoff seed (default 0)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures that trip a strategy "
                            "breaker (default 5)")
    serve.add_argument(
        "--poison", action="store_true",
        help="close an up-cycle in the last tree so the primary "
             "strategy fails and the breaker/fallback path is exercised",
    )
    serve.add_argument(
        "--audit", metavar="PATH",
        help="write a per-request JSONL audit log to PATH",
    )
    serve.add_argument(
        "--tenants", type=int, default=0, metavar="N",
        help="serve through N tenant lanes (round-robin submission) "
             "instead of the single default lane",
    )
    serve.add_argument(
        "--quota", metavar="RATE[:BURST]",
        help="per-tenant request-rate quota in requests/second, with "
             "an optional token-bucket burst (requires --tenants)",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    recover = sub.add_parser(
        "recover",
        help="recover a durable database directory (checkpoint + WAL "
             "replay) and print the recovery report",
    )
    recover.add_argument("directory", help="durability directory")
    recover.add_argument(
        "--fsync", default="batch", choices=["always", "batch", "off"],
        help="WAL fsync policy for the recovered log (default batch)",
    )
    recover.add_argument(
        "--checkpoint", action="store_true",
        help="cut a fresh checkpoint after recovery",
    )
    recover.add_argument(
        "--dump", metavar="FILE",
        help="write the recovered facts as program text to FILE",
    )
    recover.set_defaults(func=_cmd_recover)

    experiments = sub.add_parser(
        "experiments",
        help="regenerate the paper's experiment tables (bench suite)",
    )
    experiments.add_argument(
        "-e", "--experiment",
        help="pytest -k filter, e.g. e5 or 'e1 or e2'",
    )
    experiments.set_defaults(func=_cmd_experiments)

    gen = sub.add_parser(
        "gen", help="generate a workload's database as fact text"
    )
    gen.add_argument("workload", choices=sorted(WORKLOADS))
    gen.add_argument("--param", action="append",
                     help="generator parameter, e.g. --param depth=16")
    gen.add_argument("-o", "--output", help="write to a file")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ReproError as exc:
        out.write("error: %s\n" % exc)
        return 1
    except OSError as exc:
        out.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
