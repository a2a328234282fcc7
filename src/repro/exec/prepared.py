"""Prepared queries: rewrite once, evaluate many bindings.

Interactive and benchmark workloads in the paper's setting re-run the
same query *form* — ``sg(c, Y)?`` — for a stream of different constants
``c``.  Every ``run_strategy`` call repeats work that does not depend on
``c`` at all: adornment, the method-specific rewriting, rule
compilation, support-rule materialization.  :class:`PreparedQuery` does
that work once and keeps three layers of reusable state:

1. **Rewriting reuse.**  The bound goal positions are replaced by
   :class:`FormParameter` sentinels — placeholder constants compared by
   identity, so they can never collide with real program constants —
   and the strategy's rewriting runs once over the sentinel query.  A
   per-binding run substitutes real constants into the (few) rules that
   mention a sentinel; all other rules are reused as the *same objects*,
   which keeps the compiled-rule cache (keyed by ``id``) hot.  For the
   dedicated counting evaluators the canonical clique is
   constant-independent by construction, so only the source values
   change between runs.
2. **Answer caching.**  With an :class:`~repro.exec.cache.AnswerCache`
   attached, results are memoized under ``(query form, constants,
   epoch snapshot)``.  The epoch snapshot covers every base relation
   the rewritten program reads (see
   :meth:`~repro.engine.database.Database.epochs`), so updating the
   database silently invalidates exactly the dependent entries.
   :meth:`PreparedQuery.run` is "look up" then "evaluate and store";
   :meth:`PreparedQuery.lookup` is the first half alone, which the
   serving layer runs on the submitter's thread.
3. **Counting-set memoization.**  With a
   :class:`~repro.exec.cache.CountingTableStore` attached, the
   pointer/cyclic evaluators skip phase 1 (the left-graph DFS and
   ahead-arc construction) when the source node was already explored
   under the current epochs.

Answers are always byte-identical to a cold ``run_strategy`` call on
the equivalent bound query (:meth:`PreparedQuery.bind` builds that
query for comparison).
"""

import time
import weakref

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import Compound, Constant
from ..engine.compile import compiled_rule
from ..engine.fixpoint import goal_filter, project_free
from ..engine.instrumentation import EvalStats
from ..engine.seminaive import SemiNaiveEngine
from ..errors import (
    CountingDivergenceError,
    EvaluationError,
    NotApplicableError,
)
from ..rewriting.adornment import adorn_query
from ..rewriting.canonical import canonicalize_clique
from ..rewriting.counting import classical_counting_rewrite
from ..rewriting.encoded import encoded_counting_rewrite
from ..rewriting.extended import extended_counting_rewrite
from ..rewriting.magic import magic_rewrite
from ..rewriting.pipeline import optimize
from ..rewriting.reduction import reduce_rewriting
from ..rewriting.supplementary import supplementary_magic_rewrite
from ..rewriting.support import goal_clique_of
from .counting_engine import CountingEngine
from .strategies import (
    ExecutionResult,
    _check_left_graph_acyclic,
    _divergence_bound,
    _support_resolver,
    check_pushing_cycles,
    run_strategy,
)


def _reduced_rewrite(query):
    return reduce_rewriting(extended_counting_rewrite(query))


#: Strategies whose rewritten program runs on the generic semi-naive
#: engine; the rewriting is constant-independent except for seed facts.
ENGINE_REWRITES = {
    "magic": magic_rewrite,
    "sup_magic": supplementary_magic_rewrite,
    "classical_counting": classical_counting_rewrite,
    "encoded_counting": encoded_counting_rewrite,
    "extended_counting": extended_counting_rewrite,
    "reduced_counting": _reduced_rewrite,
}

#: Strategies served by the dedicated counting evaluators.
COUNTING_METHODS = ("pointer_counting", "cyclic_counting", "magic_counting")

#: Engine-family strategies that need the divergence iteration guard.
GUARDED_METHODS = ("classical_counting", "encoded_counting")


class FormParameter:
    """Placeholder constant standing for one bound goal position.

    Compared and hashed by identity (the ``object`` default), so a
    sentinel can never be confused with a program constant — not even
    with another sentinel of the same position from a different
    prepared query.
    """

    __slots__ = ("position",)

    def __init__(self, position):
        self.position = position

    def __repr__(self):
        return "<?%d>" % self.position


# -- sentinel detection and substitution over terms/literals/rules -----

def _term_mentions(term):
    if isinstance(term, Constant):
        return isinstance(term.value, FormParameter)
    if isinstance(term, Compound):
        return any(_term_mentions(arg) for arg in term.args)
    return False


def _literal_mentions(literal):
    if isinstance(literal, Atom):
        return any(_term_mentions(arg) for arg in literal.args)
    if isinstance(literal, Negation):
        return any(_term_mentions(arg) for arg in literal.atom.args)
    if isinstance(literal, Comparison):
        return _term_mentions(literal.left) or _term_mentions(literal.right)
    return False


def _rule_mentions(rule):
    return any(_term_mentions(arg) for arg in rule.head.args) or any(
        _literal_mentions(lit) for lit in rule.body
    )


def _substitute_term(term, mapping):
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, FormParameter):
            return Constant(mapping[value])
        return term
    if isinstance(term, Compound):
        return Compound(
            term.functor,
            tuple(_substitute_term(arg, mapping) for arg in term.args),
        )
    return term


def _substitute_atom(atom, mapping):
    return Atom(
        atom.pred, tuple(_substitute_term(arg, mapping) for arg in atom.args)
    )


def _substitute_literal(literal, mapping):
    if isinstance(literal, Atom):
        return _substitute_atom(literal, mapping)
    if isinstance(literal, Negation):
        return Negation(_substitute_atom(literal.atom, mapping))
    return Comparison(
        literal.op,
        _substitute_term(literal.left, mapping),
        _substitute_term(literal.right, mapping),
    )


def _substitute_rule(rule, mapping):
    return Rule(
        _substitute_atom(rule.head, mapping),
        tuple(_substitute_literal(lit, mapping) for lit in rule.body),
        label=rule.label,
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
        self._params = tuple(FormParameter(i) for i in self.bound_positions)
        sentinel_args = list(goal.args)
        for param, pos in zip(self._params, self.bound_positions):
            sentinel_args[pos] = Constant(param)
        self._sentinel_query = Query(
            goal.with_args(tuple(sentinel_args)), program
        )
        #: Structural identity of the query form; shared caches use it
        #: so two prepared instances of the same form exchange entries.
        self._form_key = _FormKey(
            goal.key, self.template.adornment(), self.method, program.rules
        )
        self._runs = 0
        self._family = "fallback"
        self._compiled = {}
        self._prepare()

    # -- one-time preparation ------------------------------------------

    def _prepare(self):
        method = self.method
        if method == "naive":
            self._family = "naive"
            self._naive_entry = None
            for rule in self.template.program.rules:
                if not rule.is_fact():
                    self._compiled[id(rule)] = compiled_rule(rule)
            return
        if method in ENGINE_REWRITES:
            try:
                rewriting = ENGINE_REWRITES[method](self._sentinel_query)
            except NotApplicableError:
                # Leave family='fallback': the per-run path reports the
                # same error a cold run would.
                return
            self._family = "engine"
            self.rewriting = rewriting
            self._exec_goal = rewriting.query.goal
            self._goal_parametric = any(
                _term_mentions(arg) for arg in self._exec_goal.args
            )
            #: (rule, mentions-sentinel) in program order; fixed rules
            #: are reused per run as the same objects so the shared
            #: compiled cache (keyed by id) stays hot.
            self._rule_slots = tuple(
                (rule, _rule_mentions(rule))
                for rule in rewriting.query.program.rules
            )
            for rule, parametric in self._rule_slots:
                if not parametric and not rule.is_fact():
                    self._compiled[id(rule)] = compiled_rule(rule)
            self._check_canonical = None
            self._check_entry = None
            self._path_free = True
            if method == "extended_counting":
                self._path_free = False
                self._prepare_check(rewriting.adorned)
            elif method == "reduced_counting":
                self._path_free = (
                    rewriting.path_deleted_counting
                    and rewriting.path_deleted_answer
                )
                if not self._path_free:
                    self._prepare_check(rewriting.source.adorned)
            return
        if method in COUNTING_METHODS:
            try:
                adorned = adorn_query(self._sentinel_query)
                clique, support_rules = goal_clique_of(adorned)
                canonical = canonicalize_clique(clique, adorned)
            except NotApplicableError:
                return
            self._family = "counting"
            self._adorned = adorned
            self._goal_key = adorned.goal.key
            self._support_rules = support_rules
            self._canonical = canonical
            #: Shared compiled-BoundQuery cache for the dedicated
            #: evaluators (keyed on canonical rule identity, so it is
            #: valid across bindings and databases alike).
            self._bound_query_cache = {}
            self._support_entry = None
            return
        # qsq and any unknown method: prepare nothing, delegate per run.

    def _prepare_check(self, adorned):
        try:
            clique, support_rules = goal_clique_of(adorned)
            self._check_canonical = canonicalize_clique(clique, adorned)
        except NotApplicableError:
            self._check_canonical = None
            return
        self._check_support = support_rules
        self._check_goal_key = adorned.goal.key

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

    def run(self, constants=None, db=None, budget=None, workers=None,
            recovery=None):
        """Evaluate the form for one binding; returns an
        :class:`~repro.exec.strategies.ExecutionResult`.

        ``stats.cache_hits`` / ``stats.cache_misses`` record the answer
        cache's verdict; ``stats.prepare_reuse`` is 1 when this run
        reused the prepared rewriting instead of building it.

        ``workers`` (>= 2) asks for data-parallel evaluation: the
        pointer/cyclic counting family parallelizes phase 1 of the
        counting-set build, every other family first attempts the
        sharded-fixpoint ``parallel`` strategy.  Either path degrades
        to the prepared serial evaluation on any worker or planning
        failure — ``extras["parallel_fallback"]`` then names the error
        class.  ``recovery`` tunes the sharded stage's self-healing
        (a :class:`~repro.parallel.supervisor.RecoveryPolicy` or mode
        string; default shard reassignment), so a worker crash is
        repaired in place before this serial fallback is considered.
        Answers are byte-identical either way, so the answer cache is
        keyed without ``workers`` or ``recovery``.
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
        result = self._execute(constants, db, stats, budget, started,
                               workers=workers, recovery=recovery)
        if key is not None:
            extras = {
                name: value
                for name, value in result.extras.items()
                if name != "cache_hit"
            }
            self.cache.put(key, (db.lineage, result.answers, extras))
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

    def run_batch(self, bindings, db=None, budget=None, workers=None,
                  recovery=None):
        """Evaluate many bindings; results in the order of ``bindings``."""
        return [
            self.run(binding, db=db, budget=budget, workers=workers,
                     recovery=recovery)
            for binding in bindings
        ]

    def _execute(self, constants, db, stats, budget, started,
                 workers=None, recovery=None):
        family = self._family
        parallel_fallback = None
        phase1_parallel = (
            family == "counting" and self.method != "magic_counting"
        )
        if workers is not None and workers >= 2 and not phase1_parallel:
            # Sharded-fixpoint attempt; serial families below are the
            # fallback.  Budget errors propagate — they describe the
            # caller's limits, and a serial retry cannot beat them.
            try:
                result = run_strategy(
                    "parallel", self.bind(constants), db,
                    budget=budget, workers=workers, recovery=recovery,
                )
            except (NotApplicableError, EvaluationError) as exc:
                parallel_fallback = type(exc).__name__
            else:
                result.stats.cache_misses += stats.cache_misses
                result.stats.prepare_reuse += stats.prepare_reuse
                result.extras["prepared"] = False
                result.extras["cache_hit"] = False
                return result
        if family == "fallback":
            result = run_strategy(
                self.method, self.bind(constants), db, budget=budget
            )
            result.stats.cache_misses += stats.cache_misses
            result.stats.prepare_reuse += stats.prepare_reuse
            result.extras["prepared"] = False
            result.extras["cache_hit"] = False
            if parallel_fallback is not None:
                result.extras["parallel_fallback"] = parallel_fallback
            return result
        if family == "naive":
            answers, extras = self._run_naive(constants, db, stats, budget)
        elif family == "engine":
            answers, extras = self._run_engine(constants, db, stats, budget)
        else:
            answers, extras = self._run_counting(
                constants, db, stats, budget, workers=workers
            )
        if parallel_fallback is not None:
            extras["parallel_fallback"] = parallel_fallback
        extras["prepared"] = True
        extras["cache_hit"] = False
        return ExecutionResult(
            self.method, answers, stats, extras,
            elapsed=time.perf_counter() - started,
        )

    def _run_naive(self, constants, db, stats, budget):
        goal = self._bound_goal(constants)
        epochs = db.epochs(self.read_keys)
        entry = self._naive_entry
        if (
            entry is not None
            and entry[0]() is db
            and entry[1] == epochs
        ):
            relation = entry[2]
        else:
            # The original program never mentions the query constants,
            # so one evaluation serves every binding until the database
            # moves.
            engine = SemiNaiveEngine(
                self.template.program, db, stats=stats, budget=budget,
                compiled_cache=dict(self._compiled),
            )
            engine.run()
            relation = engine.relation(goal.key)
            self._naive_entry = (weakref.ref(db), epochs, relation)
        tuples = set(goal_filter(goal, relation))
        answers = project_free(goal, tuples)
        extras = {"derived_facts": len(relation)}
        return answers, extras

    def _run_engine(self, constants, db, stats, budget):
        method = self.method
        if not self._path_free:
            self._run_check(constants, db, stats, budget)
        mapping = dict(zip(self._params, constants))
        rules = tuple(
            _substitute_rule(rule, mapping) if parametric else rule
            for rule, parametric in self._rule_slots
        )
        goal = (
            _substitute_atom(self._exec_goal, mapping)
            if self._goal_parametric
            else self._exec_goal
        )
        max_iterations = None
        if method in GUARDED_METHODS:
            max_iterations = _divergence_bound(db)
        # Copy the shared compiled cache so entries for this run's
        # substituted seed rules do not pile up in it.
        engine = SemiNaiveEngine(
            Program(rules), db, stats=stats,
            max_iterations=max_iterations, budget=budget,
            compiled_cache=dict(self._compiled),
        )
        try:
            derived = engine.run()
        except EvaluationError as exc:
            if method in GUARDED_METHODS:
                raise CountingDivergenceError(
                    "%s diverged (cyclic left-part relation?): %s"
                    % (method, exc)
                ) from exc
            raise
        relation = engine.relation(goal.key)
        tuples = set(goal_filter(goal, relation))
        answers = project_free(goal, tuples)
        extras = {
            "derived_facts": sum(len(rel) for rel in derived.values()),
        }
        return answers, extras

    def _run_check(self, constants, db, stats, budget):
        """Per-binding divergence guard for the list-based methods."""
        label = self.method.replace("_", " ")
        if self._check_canonical is None:
            _check_left_graph_acyclic(
                adorn_query(self.bind(constants)), db, stats, label
            )
            return
        epochs = db.epochs(self.read_keys)
        entry = self._check_entry
        if (
            entry is not None
            and entry[0]() is db
            and entry[1] == epochs
        ):
            resolver = entry[2]
        else:
            resolver = _support_resolver(
                None, self._check_support, db, stats, budget=budget
            )
            self._check_entry = (weakref.ref(db), epochs, resolver)
        check_pushing_cycles(
            self._check_canonical, self._check_goal_key, constants,
            resolver, label,
        )

    def _run_counting(self, constants, db, stats, budget, workers=None):
        epochs = db.epochs(self.read_keys)
        entry = self._support_entry
        if (
            entry is not None
            and entry[0]() is db
            and entry[1] == epochs
        ):
            resolver = entry[2]
        else:
            resolver = _support_resolver(
                self._adorned, self._support_rules, db, stats,
                budget=budget,
            )
            self._support_entry = (weakref.ref(db), epochs, resolver)
        method = self.method
        if method == "magic_counting":
            from .magic_counting import MagicCountingEngine

            engine = MagicCountingEngine(
                self._canonical, self._goal_key, constants, resolver,
                stats=stats, budget=budget,
            )
            answers = engine.run()
            extras = {
                "recurring_nodes": len(engine.recurring),
                "counting_rows": (
                    0 if engine.table is None else len(engine.table)
                ),
                "answer_states": engine.state_count,
            }
            return answers, extras
        store = None
        if self.counting_store is not None:
            store = _ScopedTableStore(
                self.counting_store, self._form_key, epochs
            )
        engine = CountingEngine(
            self._canonical, self._goal_key, constants, resolver,
            stats=stats,
            require_acyclic=(method == "pointer_counting"),
            budget=budget,
            query_cache=self._bound_query_cache,
            table_store=store,
        )
        parallel_fallback = None
        parallel_used = False
        if (
            workers is not None
            and workers >= 2
            and not self._support_rules  # support resolvers don't ship
            and (store is None
                 or store.get((self._goal_key, constants)) is None)
        ):
            from ..parallel.counting import parallel_successor_map

            try:
                engine.successor_resolver = parallel_successor_map(
                    engine, db, workers
                )
                parallel_used = True
            except EvaluationError as exc:
                parallel_fallback = type(exc).__name__
        answers = engine.run()
        extras = {
            "counting_rows": len(engine.table),
            "counting_triples": engine.table.triple_count,
            "answer_states": engine.state_count,
            "max_frontier": engine.max_frontier,
            "counting_table_reused": engine.table_reused,
        }
        if parallel_used:
            extras["parallel_phase1_workers"] = workers
        if parallel_fallback is not None:
            extras["parallel_fallback"] = parallel_fallback
        if method == "cyclic_counting":
            extras["back_arcs"] = engine.table.back_arc_count
        return answers, extras

    def __repr__(self):
        return "PreparedQuery(%s, %s, %d run(s))" % (
            self.template.goal.pred, self.method, self._runs
        )
