"""Prepared queries: prepare once, evaluate many bindings.

Interactive and benchmark workloads in the paper's setting re-run the
same query *form* — ``sg(c, Y)?`` — for a stream of different constants
``c``, and every ``run_strategy`` call repeats the work that does not
depend on ``c`` at all.  :class:`PreparedQuery` replaces the bound goal
positions by :class:`~repro.exec.strategies.FormParameter` sentinels,
calls :func:`~repro.exec.strategies.prepare` once and the form's
``evaluate`` per binding — the same evaluation as ``run_strategy``,
which is that pair run once (:meth:`PreparedQuery.bind` builds the
query it takes, for comparison) — and adds what is about *repetition*:

1. **Answer caching.**  With an :class:`~repro.exec.cache.AnswerCache`
   attached, results are memoized under ``(query form, constants,
   epoch snapshot)``.  The epoch snapshot covers every base relation
   the rewritten program reads (see
   :meth:`~repro.engine.database.Database.epochs`), so updating the
   database silently invalidates exactly the dependent entries.
   :meth:`PreparedQuery.run` is "look up" then "evaluate and store";
   :meth:`PreparedQuery.lookup` is the first half alone, which the
   serving layer runs on the submitter's thread.
2. **Counting-set memoization.**  With a
   :class:`~repro.exec.cache.CountingTableStore` attached, the
   pointer/cyclic evaluators skip phase 1 (the left-graph DFS and
   ahead-arc construction) when the source node was already explored
   under the current epochs.
3. **The per-generation memo** handed to ``evaluate``, which keeps
   there what it derives from the database alone until an epoch of
   ``read_keys`` moves.

What a strategy does for one binding is :mod:`repro.exec.strategies`'
business alone; no strategy is named here.
"""

import time
import weakref

from ..datalog.rules import Query
from ..datalog.terms import Constant
from ..engine.instrumentation import EvalStats
from ..errors import NotApplicableError
from ..rewriting.pipeline import optimize
from .strategies import (
    ExecutionResult,
    FormParameter,
    prepare,
    run_strategy,
)


class _FormKey:
    """Structural identity of a query form, hashed once.

    The parts end in ``program.rules``, and a tuple re-hashes its
    elements on every dict probe — for a cache key that walked every
    rule of the program per lookup.  Taking the hash at prepare time
    leaves equality structural (two prepared instances of one form
    still exchange cache entries) and makes a probe with the owning
    instance's key an identity match.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, *parts):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, _FormKey)
            and other._hash == self._hash
            and other.parts == self.parts
        )

    def __repr__(self):
        return "_FormKey(%s/%d, %s, %s)" % (self.parts[0] + self.parts[1:3])


class _ScopedTableStore:
    """Adapter presenting a :class:`CountingTableStore` to one engine run.

    The engine keys entries by source node only; the adapter widens the
    key with the query form and carries the epoch snapshot the store
    validates against.
    """

    __slots__ = ("store", "form", "epochs")

    def __init__(self, store, form, epochs):
        self.store = store
        self.form = form
        self.epochs = epochs

    def get(self, node):
        return self.store.get((self.form, node), self.epochs)

    def put(self, node, table):
        self.store.put((self.form, node), self.epochs, table)


class PreparedQuery:
    """A query form prepared for repeated evaluation.

    Parameters
    ----------
    query : :class:`~repro.datalog.rules.Query`
        The query whose *form* (goal predicate, adornment, program) is
        prepared.  Its constants become the default binding.
    db : optional :class:`~repro.engine.database.Database`
        Used by ``method='auto'`` selection only; runs name their
        database explicitly.
    method : strategy name or ``'auto'``
        Same contract as :func:`repro.rewriting.pipeline.optimize`.
    cache : optional :class:`~repro.exec.cache.AnswerCache`
        Shared answer memo; hits skip evaluation entirely.
    counting_store : optional :class:`~repro.exec.cache.CountingTableStore`
        Shared counting-set memo for the pointer/cyclic evaluators.
    """

    def __init__(self, query, db=None, method="auto", cache=None,
                 counting_store=None):
        plan = optimize(query, db, method=method)
        self.method = plan.method
        #: The plan's query — may differ from the input when the
        #: optimizer linearized square rules; it is the template every
        #: binding re-instantiates.
        self.template = plan.query
        self.plan = plan
        self.cache = cache
        self.counting_store = counting_store
        goal = self.template.goal
        self.bound_positions = tuple(
            i for i, arg in enumerate(goal.args)
            if isinstance(arg, Constant)
        )
        self.default_constants = tuple(
            goal.args[i].value for i in self.bound_positions
        )
        program = self.template.program
        reads = set(program.body_predicates() - program.head_predicates())
        if goal.key not in program.head_predicates():
            reads.add(goal.key)
        #: Base relations the rewritten program may read — the epoch
        #: snapshot over these keys is the invalidation fingerprint.
        self.read_keys = tuple(sorted(reads))
        #: Structural identity of the query form; shared caches use it
        #: so two prepared instances of the same form exchange entries.
        self._form_key = _FormKey(
            goal.key, self.template.adornment(), self.method, program.rules
        )
        self._runs = 0
        #: The strategy's prepared form, or ``None`` when there is
        #: nothing to keep — a direct strategy, or a form the method
        #: does not apply to.  Those bindings take the cold route,
        #: which raises the error a cold run does.
        try:
            self._form = prepare(self.method, Query(
                self._bound_goal(map(FormParameter, self.bound_positions)),
                program,
            ))
        except NotApplicableError:
            self._form = None
        #: ``(weakref(db), epochs, memo)`` of the database generation
        #: evaluated last; see :meth:`_memo`.
        self._generation = None

    # -- binding helpers -----------------------------------------------

    def _normalize(self, constants, db=None):
        if constants is None:
            constants = self.default_constants
        constants = tuple(constants)
        if len(constants) != len(self.bound_positions):
            raise ValueError(
                "query form binds %d position(s), got %d constant(s)"
                % (len(self.bound_positions), len(constants))
            )
        if db is not None:
            constants = db.intern_pool.intern_row(constants)
        return constants

    def _bound_goal(self, constants):
        goal = self.template.goal
        args = list(goal.args)
        for pos, value in zip(self.bound_positions, constants):
            args[pos] = Constant(value)
        return goal.with_args(tuple(args))

    def bind(self, constants=None):
        """The plain bound :class:`Query` for ``constants``.

        This is exactly what a cold ``run_strategy(prepared.method,
        prepared.bind(c), db)`` call evaluates — benchmarks use it as
        the uncached baseline.
        """
        return Query(
            self._bound_goal(self._normalize(constants)),
            self.template.program,
        )

    def size_bound(self, db):
        """Static work estimate for this form against ``db``.

        The adornment bounds the answer space — every *free* goal
        position multiplies the tuples a run may have to touch — and
        the EDB sizes of ``read_keys`` bound the facts any evaluation
        can read, so the product ``sum(|R| for R in read_keys) * free
        positions`` is a crude but monotone size bound in the spirit of
        the size-bound-adorned pricing literature.  The tenancy layer's
        :class:`~repro.tenancy.forms.FormRegistry` buckets it into cost
        classes; it is an *ordering* signal (light vs heavy forms on the
        same database), never a cardinality estimate.
        """
        edb = sum(len(db.get(key)) for key in self.read_keys)
        frees = len(self.template.goal.args) - len(self.bound_positions)
        return max(1, edb) * max(1, frees)

    # -- evaluation ----------------------------------------------------

    def run(self, constants=None, db=None, budget=None):
        """Evaluate the form for one binding; returns an
        :class:`~repro.exec.strategies.ExecutionResult`.

        ``stats.cache_hits`` / ``stats.cache_misses`` record the answer
        cache's verdict; ``stats.prepare_reuse`` is 1 when this run
        reused the prepared rewriting instead of building it.
        """
        if db is None:
            raise TypeError("PreparedQuery.run() requires a database")
        constants = self._normalize(constants, db)
        started = time.perf_counter()
        key, hit = self._probe(constants, db, started)
        if hit is not None:
            return hit
        stats = EvalStats()
        stats.cache_misses = 1
        if self._runs:
            stats.prepare_reuse = 1
        self._runs += 1
        result = self._execute(constants, db, stats, budget, started)
        if key is not None:
            # A copy: the caller owns (and the service extends) its own.
            self.cache.put(
                key, (db.lineage, result.answers, dict(result.extras))
            )
        return result

    def lookup(self, constants=None, db=None):
        """The look-up half of :meth:`run` alone: the cached
        :class:`~repro.exec.strategies.ExecutionResult` for one binding
        (``stats.cache_hits == 1``, no join work), or ``None`` on a
        miss or without a cache — nothing is evaluated or stored.

        By Theorems 1-2 every strategy answers a bound query with the
        same set, so the entry *is* the answer; the serving layer
        resolves hits from it on the submitter's thread and queues only
        the misses.  Each call is one ``AnswerCache`` probe, so a miss
        here followed by :meth:`run` counts two lookups.
        """
        if db is None:
            raise TypeError("PreparedQuery.lookup() requires a database")
        constants = self._normalize(constants, db)
        return self._probe(constants, db, time.perf_counter())[1]

    def _probe(self, constants, db, started):
        """``(cache key, hit result or None)``; both ``None`` without
        a cache."""
        if self.cache is None:
            return None, None
        key = (self._form_key, constants, db.epochs(self.read_keys))
        # Entries are validated by lineage, not object identity:
        # snapshots of the same database — and a durably *recovered*
        # database, which restores its lineage from disk — share the
        # token, so a warm cache survives recovery; an unrelated
        # database that merely has equal epochs does not match.
        lineage = db.lineage
        cached = self.cache.get(
            key, valid=lambda entry: entry[0] == lineage
        )
        if cached is None:
            return key, None
        stats = EvalStats()
        stats.cache_hits = 1
        extras = dict(cached[2])
        extras["cache_hit"] = True
        return key, ExecutionResult(
            self.method, cached[1], stats, extras,
            elapsed=time.perf_counter() - started,
        )

    def run_batch(self, bindings, db=None, budget=None):
        """Evaluate many bindings; results in the order of ``bindings``."""
        return [self.run(binding, db=db, budget=budget)
                for binding in bindings]

    def _execute(self, constants, db, stats, budget, started):
        form = self._form
        if form is None:
            cold = run_strategy(
                self.method, self.bind(constants), db, budget=budget
            )
            cold.stats.merge(stats)
            cold.extras.update(prepared=False, cache_hit=False)
            return cold
        epochs = db.epochs(self.read_keys)
        options = {}
        if form.phase1:
            options["table_store"] = None if self.counting_store is None \
                else _ScopedTableStore(self.counting_store, self._form_key,
                                       epochs)
        answers, extras = form.evaluate(
            db, stats, budget, constants=constants,
            memo=self._memo(db, epochs), **options
        )
        extras.update(prepared=True, cache_hit=False)
        return ExecutionResult(
            self.method, answers, stats, extras,
            elapsed=time.perf_counter() - started,
        )

    def _memo(self, db, epochs):
        """The per-generation memo handed to ``evaluate``: one dict per
        ``(db, epochs)``, replaced as soon as either moves — so at most
        one generation's derived relations are alive here."""
        entry = self._generation
        if entry is None or entry[0]() is not db or entry[1] != epochs:
            entry = self._generation = (weakref.ref(db), epochs, {})
        return entry[2]

    def __repr__(self):
        return "PreparedQuery(%s, %s, %d run(s))" % (
            self.template.goal.pred, self.method, self._runs
        )
