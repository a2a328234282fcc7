"""The four workloads.

Each workload object owns its inputs and exposes the same surface to
``child.py``: ``setup()``, ``blocks(n, size)``, ``run_op(op)`` (timed),
``run_op_traced(op, trace)`` (the same op with its calls decomposed,
see ``layers.py``), ``key(op)``, ``kind_keys()``, ``close()``,
``finish()`` and ``oracle()``.  An op is a small tuple whose first
element indexes ``kinds``; ``run_op`` returns ``(answers, work)``.

``work`` is ``EvalStats.total_work`` plus one per answer-cache lookup:
a cache hit does no join work, and counting the lookup keeps the metric
non-zero (and exactly 1) where the cache absorbs everything.

The program under test sees only fact lists, program text, bindings
and tenant/form names — never the seed or a workload name.
"""

import os
import random
import time

from repro import (
    AnswerCache,
    CountingTableStore,
    Database,
    parse_query,
    run_strategy,
)
from repro.data.workloads import SG_TEXT, forest_root
from repro.durability import AuditLog, DurableDatabase, recover, verify_audit
from repro.engine.seminaive import evaluate_program

import inputs
import layers

FORMS = layers.FORMS
TENANTS = layers.TENANTS


class OneShot:
    """One op = ``parse_query(text)`` + ``run_strategy(method, …)`` for
    one cell of the DB × method matrix."""

    def __init__(self, methods, seed):
        self.seed = seed
        self.cells = inputs.matrix_cells(methods)
        self.kinds = ["%s/%s" % cell for cell in self.cells]
        self.finals = {}

    def setup(self):
        started = time.perf_counter()
        built = inputs.matrix_databases(self.seed)
        self.texts = {name: text for name, (text, _f) in built.items()}
        self.dbs = {
            name: Database.from_facts(facts) for name, (_t, facts) in built.items()
        }
        self.build_db_s = time.perf_counter() - started
        self._plan = [
            (self.texts[name], method, self.dbs[name])
            for name, method in self.cells
        ]
        for index in range(len(self.cells)):
            self.run_op((index,))

    def blocks(self, n_blocks, cycles_per_block):
        return [
            [(index,) for index in block]
            for block in inputs.pass_blocks(
                random.Random(self.seed), len(self.cells), n_blocks,
                cycles_per_block,
            )
        ]

    def run_op(self, op):
        text, method, db = self._plan[op[0]]
        result = run_strategy(method, parse_query(text), db)
        return result.answers, result.stats.total_work

    def run_op_traced(self, op, trace):
        text, method, db = self._plan[op[0]]
        return layers.traced_oneshot(trace, text, method, db)

    def key(self, op):
        return self.cells[op[0]][0]

    def kind_keys(self):
        return {
            kind: [name] for kind, (name, _m) in zip(self.kinds, self.cells)
        }

    def close(self):
        pass

    def finish(self):
        return []

    def oracle(self):
        """``{db name: answers}`` from the unoptimized evaluation."""
        return {
            name: run_strategy(
                "naive", parse_query(self.texts[name]), db
            ).answers
            for name, db in self.dbs.items()
        }


class _Serving:
    """Shared set-up of the two service workloads: one forest, two
    registered forms on one answer cache, two tenants, one worker."""

    def _open_service(self, db, cache_capacity, audit=None):
        self.db = db
        self.cache = AnswerCache(cache_capacity)
        self.store = CountingTableStore(64)
        self.service, self.registry = layers.open_service(
            db, self.cache, self.store, audit=audit
        )

    def _read(self, op):
        _kind, form, tenant, constants = op
        result = self.service.run(constants, tenant=tenant, form=form)
        return result.answers, layers.work_of(result.stats)

    def key(self, op):
        return op[3] if len(op) == 4 else None

    def kind_keys(self):
        return {
            kind: [] if kind == "write" else self.bindings
            for kind in self.kinds
        }

    def close(self):
        self.service.drain()

    def oracle(self):
        """``{binding: answers}`` from one unoptimized evaluation of the
        whole ``sg`` relation over the live database."""
        query = parse_query(SG_TEXT)
        sg = evaluate_program(query.program, self.db)[query.goal.key]
        by_source = {}
        for x, y in sg:
            by_source.setdefault(x, set()).add((y,))
        return {
            binding: frozenset(by_source.get(binding[0], ()))
            for binding in self.bindings
        }


class ServeHit(_Serving):
    """Every read is an answer-cache hit: admission → scheduler →
    worker hand-off → snapshot check → cache lookup → future."""

    TREES = 17
    BINDINGS = 512

    def __init__(self, seed):
        self.seed = seed
        self.kinds = ["read_hit.%s" % form for form in FORMS]
        self.bindings = inputs.forest_bindings(self.TREES, self.BINDINGS)
        self.finals = {}

    def setup(self):
        started = time.perf_counter()
        db = Database.from_facts(inputs.forest_facts(self.TREES))
        self.build_db_s = time.perf_counter() - started
        self._open_service(db, cache_capacity=4096)
        for form_index, form in enumerate(FORMS):
            for binding in self.bindings:
                self._read((form_index, form, TENANTS[0], binding))

    def blocks(self, n_blocks, cycles_per_block):
        rng = random.Random(self.seed)
        pairs = [
            (index, form, binding)
            for index, form in enumerate(FORMS)
            for binding in self.bindings
        ]
        blocks = []
        turn = 0
        for _ in range(n_blocks):
            block = []
            for _ in range(cycles_per_block):
                rng.shuffle(pairs)
                for index, form, binding in pairs:
                    block.append(
                        (index, form, TENANTS[turn & 1], binding)
                    )
                    turn += 1
            blocks.append(block)
        return blocks

    run_op = _Serving._read

    def run_op_traced(self, op, trace):
        return layers.traced_read(trace, self.service, op)

    def finish(self):
        self.close()
        self.finals = service_finals(self)
        return []


class ServeChurn(_Serving):
    """Reads beside writes over a durable database with an audit log.

    A window is six distinct reads (misses: the previous window's write
    moved every epoch), two repeats of them (hits) and one ``add_facts``
    batch of fresh leaf pairs in the write tree; every sixteenth batch
    is followed by ``flush()`` inside the same op.  Reads bind nodes of
    the other trees only, so what a read costs in *work* does not depend
    on when the schedule places it; what it costs in *time* does — the
    write forces a new snapshot generation over a growing relation.
    """

    TREES = 128
    BINDINGS = 120
    PAIRS_PER_BATCH = 1
    FLUSH_EVERY = 16
    CACHE_CAPACITY = 64
    WARM_WINDOWS = 8
    TAIL_READS = 8

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.kinds = ["read_miss.%s" % form for form in FORMS] + \
            ["read_hit", "write"]
        self.bindings = inputs.forest_bindings(self.TREES - 1,
                                               self.BINDINGS)
        #: Windows per cycle: every (form, binding) pair read once.
        self.cycle = len(self.bindings) * len(FORMS) // 6
        self.write_tree = self.TREES - 1
        self.finals = {}
        self._rng = random.Random(seed)
        self._sequence = 0
        self._batches = 0
        self._turn = 0
        self._pairs = []

    def setup(self):
        started = time.perf_counter()
        facts = inputs.forest_facts(self.TREES)
        self.directory = os.path.join(self.scratch, "durable")
        db = DurableDatabase(self.directory, fsync="batch")
        db.add_facts(facts)
        db.flush()
        self.build_db_s = time.perf_counter() - started
        self.audit_path = os.path.join(self.scratch, "audit.jsonl")
        self._open_service(db, self.CACHE_CAPACITY,
                           audit=AuditLog(self.audit_path))
        for window in self._windows(self.WARM_WINDOWS):
            for op in window:
                self.run_op(op)
        # The measured schedule starts on a cycle boundary, so it holds
        # whole permutations whatever the seed.
        self._pairs = []

    def _windows(self, count):
        """The next ``count`` windows of the endless seeded schedule."""
        rng = self._rng
        miss, hit, write = 0, len(FORMS), len(FORMS) + 1
        windows = []
        for _ in range(count):
            if not self._pairs:
                # One permutation of the bindings per form, dealt three
                # of each to a window in a fixed form order: which form
                # first touches a fresh snapshot (and pays for its index
                # builds) must not depend on the seed.
                orders = []
                for _form in FORMS:
                    order = list(self.bindings)
                    rng.shuffle(order)
                    orders.append(order)
                self._pairs = [
                    (index, FORMS[index], orders[index].pop())
                    for _ in range(len(self.bindings))
                    for index in range(len(FORMS))
                ]
            reads = [self._pairs.pop() for _ in range(6)]
            ops = []
            for index, form, binding in reads + rng.sample(reads, 2):
                first = len(ops) < 6
                ops.append((miss + index if first else hit, form,
                            TENANTS[self._turn & 1], binding))
                self._turn += 1
            facts, self._sequence = inputs.leaf_batch(
                rng, self.write_tree, self._sequence,
                self.PAIRS_PER_BATCH,
            )
            self._batches += 1
            ops.append(
                (write, facts, self._batches % self.FLUSH_EVERY == 0)
            )
            windows.append(ops)
        return windows

    def blocks(self, n_blocks, cycles_per_block):
        return [
            [op for window in
             self._windows(cycles_per_block * self.cycle)
             for op in window]
            for _ in range(n_blocks)
        ]

    def run_op(self, op):
        if len(op) == 4:
            return self._read(op)
        _kind, facts, flush = op
        self.db.add_facts(facts)
        if flush:
            self.db.flush()
        return None, 0

    def run_op_traced(self, op, trace):
        if len(op) == 4:
            return layers.traced_read(trace, self.service, op)
        return layers.traced_write(trace, self.db, op)

    def finish(self):
        """Tail reads at the final state, then drain → checkpoint →
        close → recover; returns the list of failed checks."""
        problems = []
        tail = [
            (0, form, TENANTS[0], binding)
            for form in FORMS
            for binding in self.bindings[:self.TAIL_READS // 2]
        ]
        for op in tail:
            self._read(op)
        self.service.drain()
        self.finals = service_finals(self)
        live_epochs = {key: self.db.epoch_of(key) for key in self.db.keys()}
        self.finals["wal"] = dict(self.db.wal_stats,
                                  facts=self.db.total_facts())
        self.db.checkpoint()
        self.db.close()
        self.service.audit.close()
        recovered, report = recover(self.directory)
        try:
            if report.epochs != live_epochs:
                problems.append("recovered epochs differ from live ones")
            audit = verify_audit(self.audit_path, None, recovered,
                                 registry=self.registry)
            self.finals["audit_checked"] = audit["checked"]
            if audit["mismatched"] or audit["checked"] < len(tail):
                problems.append(
                    "audit replay: %d checked, %d mismatched"
                    % (audit["checked"], len(audit["mismatched"]))
                )
            problems.extend(self._check_write_tree(recovered))
        finally:
            recovered.close()
        return problems

    def _check_write_tree(self, db):
        """Both strategies must see the written leaves exactly as the
        unoptimized evaluation does."""
        root = forest_root(self.write_tree)
        text = SG_TEXT.replace("sg(a, Y)", "sg(%s, Y)" % root)
        expected = run_strategy("naive", parse_query(text), db).answers
        return [
            "write tree: %s disagrees with naive" % method
            for method in FORMS
            if run_strategy(method, parse_query(text), db).answers
            != expected
        ]

    def close(self):
        self.service.drain()
        self.service.audit.close()
        self.db.close()


def service_finals(workload):
    """Counter blocks read once the service has drained."""
    counters = workload.service.counters()
    return {
        "service": {
            name: counters[name]
            for name in ("completed", "failed", "shed_overload",
                         "shed_quota", "shed_expired", "retried",
                         "fallbacks", "refreshes", "max_queue_depth")
        },
        "cache": workload.cache.stats(),
        "store": workload.store.stats(),
    }


def make(name, seed, scratch):
    if name == "oneshot_fixpoint":
        return OneShot(inputs.FIXPOINT_METHODS, seed)
    if name == "oneshot_counting":
        return OneShot(inputs.COUNTING_METHODS, seed)
    if name == "serve_hit":
        return ServeHit(seed)
    if name == "serve_churn":
        return ServeChurn(seed, scratch)
    raise ValueError("unknown workload %r" % (name,))
