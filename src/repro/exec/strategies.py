"""Every evaluation strategy, written once as prepare → evaluate.

In each method of the paper's framework the query constant enters in
exactly one place — the magic / counting seed fact of Algorithm 1, the
source node of §3.4 and Algorithm 2 — and everything else is a function
of the adorned query *form*.  So a strategy is :func:`prepare`, the
binding-independent work, and the returned form's ``evaluate``, the
per-binding work; ``run_strategy`` is the two run once, and
:class:`~repro.exec.prepared.PreparedQuery` keeps the form and calls
the same ``evaluate`` per binding.  Answers are projections onto the
original goal's free argument positions, so results of different
methods compare directly; docs/api.md lists each strategy's ``extras``.

Strategies
----------

Rewriting + the generic semi-naive engine:

``naive``              the original program, goal filter applied
                       afterwards (no binding propagation — the paper's
                       worst baseline).
``magic``              magic-set rewriting.
``sup_magic``          supplementary magic sets [6] (prefixes
                       materialized once).
``classical_counting`` classical counting (Example 1); raises
                       :class:`CountingDivergenceError` on cyclic data.
``encoded_counting``   the [15] integer-encoded rule log (historical;
                       exponential value growth).
``extended_counting``  Algorithm 1 (list path arguments); requires an
                       acyclic left graph (more precisely: no cycle
                       through a pushing rule).
``reduced_counting``   Algorithm 1 + Algorithm 3 reduction; safe on
                       any data when the path argument disappears.

Dedicated evaluators over the canonical goal clique:

``pointer_counting``   §3.4 pointer implementation; requires an acyclic
                       left graph.
``cyclic_counting``    Algorithm 2; cyclic and acyclic data alike.
``magic_counting``     the [16] hybrid: counting on the non-recurring
                       part, magic on the recurring part.

Direct — the bound query is its only input, nothing is prepared:

``parallel``           data-parallel sharded semi-naive fixpoint over a
                       multiprocess worker pool (:mod:`repro.parallel`);
                       linear positive programs only.
"""

import time

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import Compound, Constant, Variable
from ..engine.compile import compiled_rule
from ..engine.database import Database
from ..engine.fixpoint import (
    agreeing,
    free_repeats,
    goal_filter,
    index_goal,
    project_free,
)
from ..engine.instrumentation import EvalStats
from ..engine.seminaive import SemiNaiveEngine
from ..errors import CountingDivergenceError, EvaluationError
from ..rewriting.adornment import adorn_query
from ..rewriting.canonical import canonicalize_clique, query_constants
from ..rewriting.counting import classical_counting_rewrite
from ..rewriting.encoded import encoded_counting_rewrite
from ..rewriting.extended import extended_counting_rewrite
from ..rewriting.magic import magic_rewrite, magic_set_size
from ..rewriting.reduction import reduce_rewriting
from ..rewriting.supplementary import supplementary_magic_rewrite
from ..rewriting.support import goal_clique_of
from .counting_engine import CountingEngine
from .magic_counting import MagicCountingEngine


class ExecutionResult:
    """Answers plus measurements for one strategy run."""

    __slots__ = ("method", "answers", "stats", "extras", "rewriting",
                 "elapsed")

    def __init__(self, method, answers, stats, extras=None, rewriting=None,
                 elapsed=0.0):
        self.method = method
        self.answers = frozenset(answers)
        self.stats = stats
        self.extras = dict(extras or {})
        self.rewriting = rewriting
        #: Wall-clock seconds of the run (rewriting + evaluation).
        self.elapsed = elapsed

    @property
    def profile(self):
        """Per-rule (label, seconds, calls, derived) rows, slowest first.

        Collected by the engine's batched join path; empty for the
        dedicated evaluators that do not run whole rules through
        :class:`~repro.engine.seminaive.SemiNaiveEngine`.
        """
        return self.stats.profile_table()

    def __repr__(self):
        return "ExecutionResult(%s, %d answers, work=%d)" % (
            self.method, len(self.answers), self.stats.total_work
        )


# -- form parameters ---------------------------------------------------

class FormParameter:
    """Placeholder constant standing for one bound goal position.

    A form prepared over a goal whose constants are ``FormParameter``
    values serves every binding: ``evaluate`` substitutes the real
    constants.  Compared and hashed by identity (the ``object``
    default), so a sentinel can never be confused with a program
    constant — not even with another sentinel of the same position from
    a different prepared query.
    """

    __slots__ = ("position",)

    def __init__(self, position):
        self.position = position

    def __repr__(self):
        return "<?%d>" % self.position


def _substitute(node, mapping):
    """``node`` — a rule, literal or term — with every
    :class:`FormParameter` replaced by its ``mapping`` constant."""
    if isinstance(node, Constant):
        if isinstance(node.value, FormParameter):
            return Constant(mapping[node.value])
        return node
    if isinstance(node, Compound):
        return Compound(
            node.functor,
            tuple(_substitute(arg, mapping) for arg in node.args),
        )
    if isinstance(node, Atom):
        return Atom(
            node.pred, tuple(_substitute(arg, mapping) for arg in node.args)
        )
    if isinstance(node, Negation):
        return Negation(_substitute(node.atom, mapping))
    if isinstance(node, Comparison):
        return Comparison(
            node.op,
            _substitute(node.left, mapping),
            _substitute(node.right, mapping),
        )
    if isinstance(node, Rule):
        return Rule(
            _substitute(node.head, mapping),
            tuple(_substitute(lit, mapping) for lit in node.body),
            label=node.label,
        )
    return node


def _base_facts(program):
    """``program``'s ground facts of predicates no proper rule derives,
    as ``(name, values)`` — base facts (the paper's definition) that a
    rewritten program or a dedicated evaluator, reading rules only,
    would otherwise never see."""
    derived = {rule.head.key for rule in program.rules if not rule.is_fact()}
    return tuple(
        (key[0], values) for key, values in program.facts()
        if key not in derived
    )


def _lift_derived_facts(query):
    """``query`` with the ground facts of each derived predicate — one
    a proper rule also derives — turned into one exit rule over a fresh
    base predicate holding them: ``p(c, z).`` beside rules of ``p``
    becomes ``p(X0, X1) :- p__fact(X0, X1).`` plus ``p__fact(c, z).``

    A counting rewriting or a dedicated evaluator reads a derived
    predicate through its rules only, and so would drop the fact; as an
    exit rule it is carried like any other, and the fresh predicate's
    facts reach the database as :func:`_base_facts`.  The answers do
    not change, so :func:`prepare` lifts for every method but
    ``naive``.  ``query`` itself when there is nothing to lift, or when
    it is already adorned.
    """
    if hasattr(query, "origins"):
        return query
    program = query.program
    derived = {rule.head.key for rule in program.rules if not rule.is_fact()}
    if not any(rule.is_fact() and rule.head.key in derived
               and rule.head.is_ground() for rule in program.rules):
        return query
    taken = {rule.head.pred for rule in program.rules} | {
        key[0] for key in program.body_predicates()
    }
    labels = {rule.label for rule in program.rules}
    fresh = {}
    rules = []
    facts = []
    for rule in program.rules:
        head = rule.head
        if not (rule.is_fact() and head.is_ground() and head.key in derived):
            rules.append(rule)
            continue
        if head.key not in fresh:
            name = head.pred + "__fact"
            while name in taken:
                name += "_"
            taken.add(name)
            fresh[head.key] = name
            args = tuple(Variable("X%d" % i) for i in range(head.arity))
            rules.append(Rule(Atom(head.pred, args), (Atom(name, args),),
                              label=rule.label))
        label = rule.label + "_fact"
        while label in labels:
            label += "_"
        labels.add(label)
        facts.append(Rule(Atom(fresh[head.key], head.args), label=label))
    return Query(query.goal, Program(rules + facts))


def _with_facts(db, facts, memo):
    """``db`` joined by ``facts``: a copy, kept in ``memo`` (see
    :func:`prepare`) while the database does not move; ``db`` itself
    when there are none."""
    if not facts:
        return db
    joined = memo.get("facts")
    if joined is None:
        joined = memo["facts"] = db.copy()
        joined.add_facts(facts)
    return joined


class _Form:
    """What :func:`prepare` keeps of one strategy for one query form."""

    #: True when ``evaluate`` builds the counting set in a separable
    #: phase 1 and so accepts ``table_store`` and ``phase1``.
    phase1 = False
    #: The method's rewriting, for ``ExecutionResult.rewriting``.
    rewriting = None
    #: The query program's :func:`_base_facts` the evaluated program
    #: does not carry; ``evaluate`` adds them to the database.
    facts = ()

    def __init__(self, method, goal):
        self.method = method
        #: The source node's values (§3.4): the goal's bound arguments.
        self.source_values = query_constants(goal)
        #: Those of them that are parameters, in position order — none
        #: when the form was prepared over a plain bound query.
        self.parameters = tuple(
            value for value in self.source_values
            if isinstance(value, FormParameter)
        )

    def _bind(self, constants):
        """``(sentinel → constant, source values)`` for one binding of
        the form's parameters."""
        mapping = dict(zip(self.parameters, constants))
        return mapping, tuple(
            mapping[value] if isinstance(value, FormParameter) else value
            for value in self.source_values
        )


def _materialize_support(support_rules, db, stats, budget, memo):
    """Lookup ``key -> relation`` over the database plus the support
    (lower-clique) rules, which the goal clique reads like base
    relations.

    Support rules never mention the query constants, so ``memo`` (see
    :func:`prepare`) keeps the materialization for every binding until
    the database moves.
    """
    if not support_rules:
        return db.get
    if "support" not in memo:
        engine = SemiNaiveEngine(Program(support_rules), db, stats=stats,
                                 budget=budget)
        engine.run()
        memo["support"] = engine.relation
    return memo["support"]


# -- divergence guards -------------------------------------------------

def _divergence_bound(db):
    """Iteration bound for the classical counting clique.

    On acyclic data the counting index never exceeds the number of
    database constants, so a fixpoint running longer than that has hit
    a cycle.  The cap counts every round of a clique — the initial
    naive round included — hence the extra slack beyond the constant
    count.
    """
    return len(db.constants()) + 3


def _left_graph(canonical, goal_key, source_values, get_relation):
    """The :class:`~repro.graph.dfs.IdClassification` of the left graph
    reachable from one source node; the exploration's work is not
    charged to any run."""
    return CountingEngine(
        canonical, goal_key, tuple(source_values), get_relation,
        stats=EvalStats(),
    ).left_graph()


def classify_left_graph(query, db):
    """Arc classification of the left graph ``query`` (adorned or not)
    reaches in ``db`` — what ``choose_method`` decides between the
    §3.4 pointer evaluator and Algorithm 2 on."""
    form = _CountingForm("cyclic_counting", query)
    return _left_graph(
        form.canonical, form.goal_key, form.source_values,
        _materialize_support(form.support_rules, db, EvalStats(), None, {}),
    ).view()


def check_pushing_cycles(canonical, goal_key, source_values, get_relation,
                         method):
    """Raise if the path argument would grow without bound.

    The list-based programs diverge exactly when the reachable left
    graph contains a cycle through a *pushing* arc — one generated by a
    rule that is neither left- nor right-linear shaped (those rules are
    the ones extending the path argument).  ``canonical`` is prepared
    once per query form; only this data-dependent classification runs
    per binding, and not even that when no rule pushes.  The decision
    reads the classification's integer ranks: no back arc means no
    cycle, else a pushing arc inside one strongly connected component
    closes one.
    """
    from ..graph.properties import strongly_connected_components
    from ..rewriting.linearity import GENERAL, rule_shape

    pushing = {
        rule.label
        for rule in canonical.recursive_rules
        if rule_shape(rule) == GENERAL
    }
    if not pushing:
        return
    graph = _left_graph(canonical, goal_key, source_values, get_relation)
    if not graph.back:
        return
    adjacency = {}
    for source, target, _label in graph.arcs:
        adjacency.setdefault(source, set()).add(target)
    sccs = strongly_connected_components(adjacency)
    for source, target, (label, _shared) in graph.arcs:
        if label not in pushing:
            continue
        if sccs.get(source) == sccs.get(target):
            raise CountingDivergenceError(
                "%s: the left graph has a cycle through pushing rule %s; "
                "the path argument would grow without bound"
                % (method, label)
            )


# -- rewriting + the generic engine ------------------------------------

def _reduced_rewrite(query):
    return reduce_rewriting(extended_counting_rewrite(query))


#: method -> its rewriting; ``None`` evaluates the original program.
_REWRITINGS = {
    "naive": None,
    "magic": magic_rewrite,
    "sup_magic": supplementary_magic_rewrite,
    "classical_counting": classical_counting_rewrite,
    "encoded_counting": encoded_counting_rewrite,
    "extended_counting": extended_counting_rewrite,
    "reduced_counting": _reduced_rewrite,
}

#: An integer counting index grows forever along a left-graph cycle:
#: these run under the :func:`_divergence_bound` iteration cap.
_INDEXED = ("classical_counting", "encoded_counting")


def _relation_sizes(derived, keys):
    return sum(len(derived[key]) for key in keys if key in derived)


class _RewritingForm(_Form):
    """A rewritten program (``naive``: the original one) for the
    generic semi-naive engine."""

    def __init__(self, method, query):
        super().__init__(method, query.goal)
        rewrite = _REWRITINGS[method]
        executed = query
        if rewrite is not None:
            self.rewriting = rewrite(query)
            executed = self.rewriting.query
            self.facts = _base_facts(query.program)
        self.program = executed.program
        self.goal = executed.goal
        #: The extended rewriting whose list path argument survives
        #: into the evaluated program and grows along cycles through a
        #: pushing rule — ``None`` when there is nothing to check.
        self.pathed = None
        if method == "extended_counting":
            self.pathed = self.rewriting
        elif method == "reduced_counting" and not (
            self.rewriting.path_deleted_counting
            and self.rewriting.path_deleted_answer
        ):
            self.pathed = self.rewriting.source
        #: (rule, substitution changes it) in program order; fixed
        #: rules are reused per binding as the same objects so the
        #: compiled cache (keyed by id) stays hot.
        blank = dict.fromkeys(self.parameters)
        self.slots = tuple(
            (rule, bool(blank) and _substitute(rule, blank) != rule)
            for rule in self.program.rules
        )
        self.compiled = {
            id(rule): compiled_rule(rule)
            for rule, parametric in self.slots
            if not parametric and not rule.is_fact()
        }

    def _extras(self, derived):
        method, rewriting = self.method, self.rewriting
        extras = {}
        if method == "magic":
            extras["magic_set_size"] = magic_set_size(derived, rewriting)
        elif method == "sup_magic":
            extras["sup_facts"] = sum(
                len(rel) for key, rel in derived.items()
                if key[0].startswith("sup_")
            )
        elif method in _INDEXED:
            counting = derived.get(rewriting.counting_pred, ())
            extras["counting_set_size"] = len(counting)
            if method == "encoded_counting":
                # The largest encoded value's bit length — the
                # exponential growth §3.4 criticizes.
                extras["max_index_bits"] = max(
                    (int(row[-1]).bit_length() for row in counting),
                    default=0,
                )
        elif method == "extended_counting":
            extras["counting_set_size"] = _relation_sizes(
                derived, rewriting.counting_preds.values()
            )
        elif method == "reduced_counting":
            # A counting predicate keeps its arity or loses the path.
            preds = rewriting.source.counting_preds.values()
            extras["counting_set_size"] = _relation_sizes(
                derived, preds
            ) + _relation_sizes(
                derived, [(name, arity - 1) for name, arity in preds]
            )
            extras["path_deleted"] = self.pathed is None
        extras["derived_facts"] = sum(len(rel) for rel in derived.values())
        return extras

    def evaluate(self, db, stats, budget=None, constants=(), memo=None):
        kept = memo is not None
        memo = {} if memo is None else memo
        db = _with_facts(db, self.facts, memo)
        mapping, source = self._bind(constants)
        label = self.method.replace("_", " ")
        pathed = self.pathed
        if pathed is not None:
            check_pushing_cycles(
                pathed.canonical, pathed.adorned.goal.key, source,
                _materialize_support(pathed.support_rules, db, stats,
                                     budget, memo),
                label,
            )
        goal = _substitute(self.goal, mapping) if mapping else self.goal
        fixpoint = memo.get("fixpoint")
        if fixpoint is None:
            program = self.program
            if mapping:
                program = Program(
                    _substitute(rule, mapping) if parametric else rule
                    for rule, parametric in self.slots
                )
            indexed = self.method in _INDEXED
            # A copy of the compiled cache: entries for this run's
            # substituted rules must not pile up in the form's (their
            # ids are reused once the rules are collected).
            engine = SemiNaiveEngine(
                program, db, stats=stats, budget=budget,
                max_iterations=_divergence_bound(db) if indexed else None,
                compiled_cache=dict(self.compiled),
            )
            try:
                derived = engine.run()
            except EvaluationError as exc:
                if not indexed:
                    raise
                raise CountingDivergenceError(
                    "%s diverged (cyclic left-part relation?): %s"
                    % (label, exc)
                ) from exc
            fixpoint = (engine.relation(goal.key), self._extras(derived))
            if self.rewriting is None:
                # The original program never mentions the query
                # constants, so one evaluation serves every binding
                # until the database moves: a caller that keeps the
                # memo selects from it again.
                memo["fixpoint"] = fixpoint
                if kept:
                    index_goal(goal, fixpoint[0])
        relation, extras = fixpoint
        return project_free(goal, goal_filter(goal, relation)), dict(extras)


# -- dedicated counting evaluators -------------------------------------

class _CountingForm(_Form):
    """The goal clique's canonical form for the pointer (§3.4), cyclic
    (Algorithm 2) and magic-counting [16] evaluators.

    The canonical clique is constant-independent by construction, so
    only the source values change between bindings.
    """

    def __init__(self, method, query):
        adorned = query if hasattr(query, "origins") else adorn_query(query)
        super().__init__(method, adorned.goal)
        clique, self.support_rules = goal_clique_of(adorned)
        self.canonical = canonicalize_clique(clique, adorned)
        self.goal_key = adorned.goal.key
        self.facts = _base_facts(query.program)
        #: The evaluators answer on the free positions as if each held
        #: its own variable; a repeated one is checked afterwards.
        self.repeats = free_repeats(adorned.goal)
        #: Whether ``evaluate`` builds a counting table, and so takes a
        #: ``table_store``.
        self.phase1 = method != "magic_counting"
        #: Compiled-BoundQuery cache shared by every engine of the form
        #: (keyed on canonical rule identity, so it is valid across
        #: bindings and databases alike).
        self.queries = {}

    def evaluate(self, db, stats, budget=None, constants=(), memo=None,
                 table_store=None):
        """``table_store`` is a node-keyed counting-table store for
        this form and database generation."""
        memo = {} if memo is None else memo
        db = _with_facts(db, self.facts, memo)
        get_relation = _materialize_support(self.support_rules, db, stats,
                                            budget, memo)
        _mapping, source = self._bind(constants)
        if self.method == "magic_counting":
            engine = MagicCountingEngine(
                self.canonical, self.goal_key, source, get_relation,
                stats=stats, budget=budget, query_cache=self.queries,
            )
            answers = agreeing(engine.run(), self.repeats)
            return answers, {
                "recurring_nodes": len(engine.recurring),
                "counting_rows": (
                    0 if engine.table is None else len(engine.table)
                ),
                "answer_states": engine.state_count,
                "state_key": engine.state_key,
            }
        engine = CountingEngine(
            self.canonical, self.goal_key, source, get_relation,
            stats=stats, budget=budget,
            require_acyclic=self.method == "pointer_counting",
            query_cache=self.queries, table_store=table_store,
        )
        answers = agreeing(engine.run(), self.repeats)
        extras = {
            "counting_rows": len(engine.table),
            "counting_triples": engine.table.triple_count,
            "answer_states": engine.state_count,
            "state_key": engine.state_key,
            "max_frontier": engine.max_frontier,
        }
        if self.method == "cyclic_counting":
            extras["back_arcs"] = engine.table.back_arc_count
        if table_store is not None:
            extras["counting_table_reused"] = engine.table_reused
        return answers, extras


def prepare(method, query):
    """The binding-independent half of strategy ``method`` for the form
    of ``query`` — adornment, rewriting, Algorithm 3 reduction, the goal
    clique's canonical form, rule compilation; raises
    :class:`~repro.errors.NotApplicableError` exactly where a cold run
    of the method would.

    Returns ``None`` for the direct strategy ``parallel``, which prepares
    nothing, and otherwise a form whose ``evaluate(db, stats, budget=None,
    constants=(), memo=None)`` gives ``(answers, extras)`` for one
    binding: ``constants`` holds one value per :class:`FormParameter`
    of the goal, in position order; ``memo`` is a dict the caller keeps
    while the database does not move, where ``evaluate`` leaves what it
    derived from the database alone (the support relations; the
    fixpoint of an unrewritten program; the database joined by the
    program's own base facts) for the next binding.  A cold
    call evaluates one binding and so passes none.
    """
    if method != "naive":
        # Answer-preserving, and needed by every method that reads a
        # derived predicate through its rules alone; ``naive`` runs the
        # program as written.
        query = _lift_derived_facts(query)
    if method in _REWRITINGS:
        return _RewritingForm(method, query)
    if method in ("pointer_counting", "cyclic_counting", "magic_counting"):
        return _CountingForm(method, query)
    return None


def _one_binding(method):
    """The public ``run_<method>``: prepare, evaluate the query's own
    binding once, discard the form."""

    def run(query, db, budget=None):
        stats = EvalStats()
        started = time.perf_counter()
        form = prepare(method, query)
        answers, extras = form.evaluate(db, stats, budget)
        return ExecutionResult(method, answers, stats, extras,
                               form.rewriting,
                               time.perf_counter() - started)

    run.__name__ = run.__qualname__ = "run_" + method
    run.__doc__ = (
        "The ``%s`` strategy (described in the module docstring) for "
        "the query's own binding." % method
    )
    return run


run_naive = _one_binding("naive")
run_magic = _one_binding("magic")
run_sup_magic = _one_binding("sup_magic")
run_classical_counting = _one_binding("classical_counting")
run_encoded_counting = _one_binding("encoded_counting")
run_extended_counting = _one_binding("extended_counting")
run_reduced_counting = _one_binding("reduced_counting")
run_pointer_counting = _one_binding("pointer_counting")
run_cyclic_counting = _one_binding("cyclic_counting")
run_magic_counting = _one_binding("magic_counting")


# -- the direct strategy ----------------------------------------------

def run_parallel(query, db, budget=None, workers=2, inline=False,
                 plan=None, recovery=None):
    """Data-parallel sharded fixpoint over a multiprocess worker pool.

    Plans with :func:`~repro.parallel.plan.plan_partitions`, executes
    with :class:`~repro.parallel.executor.ParallelEngine`; see
    :mod:`repro.parallel`.  ``workers=0`` (or ``inline=True``) runs the
    same engine serially in-process — the baseline whose answers *and*
    merged counters every multiprocess run must reproduce.

    ``recovery`` selects the self-healing behaviour: a
    :class:`~repro.parallel.supervisor.RecoveryPolicy`, a mode string,
    or ``None`` for the default (shard reassignment).  Under
    ``"reassign"``/``"respawn"`` worker death and hangs are repaired in
    place from the last barrier checkpoint; only under ``"serial"`` (or
    once the repair allowance is spent) do failures surface as typed
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.WorkerHungError` /
    :class:`~repro.errors.RecoveryExhaustedError`, which a fallback
    chain degrades past instead of hanging.
    """
    from ..parallel import ParallelEngine

    stats = EvalStats()
    started = time.perf_counter()
    engine = ParallelEngine(
        query, db, workers=workers, stats=stats, budget=budget,
        plan=plan, inline=inline, recovery=recovery,
    )
    engine.run()
    elapsed = time.perf_counter() - started
    return ExecutionResult("parallel", engine.answers, stats,
                           engine.extras(), elapsed=elapsed)


#: Registry used by the benchmark harness and the optimizer pipeline.
STRATEGIES = {
    "naive": run_naive,
    "magic": run_magic,
    "classical_counting": run_classical_counting,
    "extended_counting": run_extended_counting,
    "reduced_counting": run_reduced_counting,
    "pointer_counting": run_pointer_counting,
    "cyclic_counting": run_cyclic_counting,
    "magic_counting": run_magic_counting,
    "sup_magic": run_sup_magic,
    "encoded_counting": run_encoded_counting,
    "parallel": run_parallel,
}


def run_strategy(name, query, db, budget=None, **options):
    """Run one registered strategy by name.

    ``budget`` is an optional
    :class:`~repro.engine.guard.ResourceBudget` threaded through to the
    underlying engines; a budget firing surfaces as a typed
    :class:`~repro.errors.BudgetExceededError` carrying partial stats.
    Extra keyword ``options`` are forwarded to the strategy runner —
    the ``parallel`` strategy takes ``workers``, ``inline``, ``plan``
    and ``recovery`` this way.
    """
    try:
        runner = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            "unknown strategy %r; available: %s"
            % (name, ", ".join(sorted(STRATEGIES)))
        ) from None
    if not isinstance(query, Query):
        raise TypeError("expected a Query")
    if not isinstance(db, Database):
        raise TypeError("expected a Database")
    return runner(query, db, budget=budget, **options)
