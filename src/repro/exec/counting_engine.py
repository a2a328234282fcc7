"""Pointer-based counting evaluator (§3.4 and Algorithm 2).

This module is the executable form of the paper's implementation notes:
instead of evaluating the weakly-stratified rewritten program through a
generic engine, the counting set is built directly during the DFS over
the left-part graph (the paper's Bushy-Depth-First fixpoint), back-arc
information is folded into the counting tuples (making the predicate
``f`` unnecessary), and the answer phase navigates tuple identifiers —
"a direct access to the memory".

Data model
----------

* A *node* is a pair ``(predicate key, bound-argument values)`` — the
  clique may contain several mutually recursive predicates.
* The :class:`CountingTable` holds one row per node reachable from the
  query constants.  Each row carries the set of *in-triples*
  ``(rule label, shared values, predecessor id)`` — one per left-part
  arc entering the node, ahead and back arcs alike.  The source row
  carries the sentinel triple ``(None, (), None)``.
* The answer phase derives *states* ``(predicate key, answer values,
  row id)``: the predicate instance holds at ``(row.values, answer
  values)``.  Exit rules seed states; each modified-rule step consumes
  one in-triple of the state's row, applies the source rule's right
  part and moves to the predecessor row.  A state whose row is the
  source row yields an answer.

The state space is finite — at most ``|answers| × |rows|`` states — for
*any* database, cyclic or not, which is the effective content of
Theorem 2(3).  On acyclic data the table coincides with the §3.4
pointer implementation; the back-arc triples are exactly the extra
information Algorithm 2 adds.
"""

from array import array

from ..engine import faults
from ..engine.compile import bound_query
from ..engine.instrumentation import EvalStats
from ..errors import EvaluationError, NotApplicableError
from ..graph.dfs import classify_arcs

#: Sentinel triple marking the source row.
SOURCE_TRIPLE = (None, (), None)

#: Flat-array encoding of "no predecessor" (the source sentinel).
_NO_PREV = -1


class _TripleView:
    """One row's in-triples, viewed over the table's flat arrays.

    Keeps the historical ``row.triples`` list surface — ``append``,
    iteration, ``len``, ``in``, indexing — while the storage lives in
    the :class:`CountingTable`'s parallel arrays.  Iteration
    materializes ``(label, shared values, predecessor id)`` tuples on
    the fly; hot loops inside the engine skip the tuples and read the
    arrays through the ordinals directly.
    """

    __slots__ = ("_table", "_row_id", "ordinals")

    def __init__(self, table, row_id):
        self._table = table
        self._row_id = row_id
        #: Positions of this row's triples in the flat arrays, in
        #: append order.
        self.ordinals = []

    def append(self, triple):
        label, shared, prev = triple
        table = self._table
        self.ordinals.append(len(table.t_label))
        table.t_label.append(label)
        table.t_shared.append(shared)
        table.t_prev.append(_NO_PREV if prev is None else prev)
        table.t_row.append(self._row_id)

    def _triple(self, ordinal):
        table = self._table
        prev = table.t_prev[ordinal]
        return (
            table.t_label[ordinal],
            table.t_shared[ordinal],
            None if prev == _NO_PREV else prev,
        )

    def __len__(self):
        return len(self.ordinals)

    def __iter__(self):
        for ordinal in self.ordinals:
            yield self._triple(ordinal)

    def __getitem__(self, index):
        picked = self.ordinals[index]
        if isinstance(index, slice):
            return [self._triple(o) for o in picked]
        return self._triple(picked)

    def __contains__(self, triple):
        return any(candidate == triple for candidate in self)

    def __repr__(self):
        return "_TripleView(o%d, %r)" % (self._row_id, list(self))


class CountingRow:
    """One node of the counting set."""

    __slots__ = ("id", "pred", "values", "triples")

    def __init__(self, row_id, pred, values, table):
        self.id = row_id
        self.pred = pred
        self.values = values
        #: View of (rule label, shared values, predecessor row id)
        #: in-triples; storage lives in the table's flat arrays.
        self.triples = _TripleView(table, row_id)

    def __repr__(self):
        return "CountingRow(o%d, %s%r, %d triples)" % (
            self.id, self.pred[0], self.values, len(self.triples)
        )


class CountingTable:
    """The per-node counting set with predecessor triples.

    Triples are stored as flat parallel arrays — ``t_label`` /
    ``t_shared`` (lists) and ``t_prev`` / ``t_row`` (``array('q')``
    machine words, ``-1`` encoding "no predecessor") — with each row
    keeping the ordinals of its own triples.  One triple therefore
    costs two list slots and two machine words instead of a dedicated
    tuple object, and the answer phase unwinds by indexing the arrays
    directly instead of destructuring tuples.
    """

    __slots__ = ("rows", "index", "source_id", "back_arc_count",
                 "ahead_arc_count", "t_label", "t_shared", "t_prev",
                 "t_row")

    def __init__(self):
        self.rows = []
        self.index = {}
        self.source_id = 0
        self.back_arc_count = 0
        self.ahead_arc_count = 0
        #: Flat parallel triple arrays; entry ``i`` is one in-triple of
        #: row ``t_row[i]``.
        self.t_label = []
        self.t_shared = []
        self.t_prev = array("q")
        self.t_row = array("q")

    def row_for(self, pred, values):
        key = (pred, values)
        row_id = self.index.get(key)
        if row_id is None:
            row_id = len(self.rows)
            self.index[key] = row_id
            self.rows.append(CountingRow(row_id, pred, values, self))
        return self.rows[row_id]

    def __len__(self):
        return len(self.rows)

    @property
    def triple_count(self):
        """Total in-triples: the §3.4 per-arc counting-set size."""
        return len(self.t_label)

    def is_acyclic(self):
        return self.back_arc_count == 0

    def render(self):
        """The paper's notation for counting sets, e.g.
        ``o4 : (d, {(r1, [], o3), (r1, [], o5)})``."""
        from ..datalog.pretty import format_value

        def fmt_id(row_id):
            return "nil" if row_id is None else "o%d" % (row_id + 1)

        lines = []
        for row in self.rows:
            triples = ", ".join(
                "(%s, %s, %s)" % (
                    label if label is not None else "r0",
                    format_value(tuple(shared)),
                    fmt_id(prev),
                )
                for label, shared, prev in row.triples
            )
            values = ", ".join(format_value(v) for v in row.values)
            lines.append(
                "%s : (%s, {%s})" % (fmt_id(row.id), values, triples)
            )
        return "\n".join(lines)


class CountingEngine:
    """Two-phase counting evaluation of one canonical clique.

    Parameters
    ----------
    canonical : :class:`~repro.rewriting.canonical.CanonicalClique`
    goal_key : adorned predicate key of the query goal.
    source_values : tuple of the goal's bound constants.
    get_relation : callable key -> relation (database plus support
        predicates materialized by lower cliques).
    stats : optional shared :class:`EvalStats`.
    require_acyclic : raise :class:`NotApplicableError` if the left
        graph has back arcs (the §3.4 acyclic pointer method).
    """

    def __init__(self, canonical, goal_key, source_values, get_relation,
                 stats=None, require_acyclic=False, answer_order="bfs",
                 budget=None, query_cache=None, table_store=None):
        self.canonical = canonical
        self.goal_key = goal_key
        self.source_values = tuple(source_values)
        self.get_relation = get_relation
        self.stats = stats if stats is not None else EvalStats()
        self.require_acyclic = require_acyclic
        #: Optional :class:`~repro.engine.guard.ResourceBudget` checked
        #: per node expansion in the counting-set DFS and per state pop
        #: in the answer phase.
        self.budget = budget
        if answer_order not in ("bfs", "dfs"):
            raise ValueError("answer_order must be 'bfs' or 'dfs'")
        #: Exploration order of the answer phase.  ``"dfs"`` is the
        #: Bushy-Depth-First discipline of the LDL prototype [7] the
        #: paper's implementation notes assume: each exit tuple is
        #: unwound to the source before the next is touched, keeping
        #: the frontier small.  Both orders visit the same state set.
        self.answer_order = answer_order
        self.rules_by_label = {
            rule.label: rule for rule in canonical.recursive_rules
        }
        #: Per-call-site compiled bound queries (see
        #: :class:`~repro.engine.compile.BoundQuery`), keyed by rule
        #: identity.  Each body is compiled once and re-run under fresh
        #: positional bindings for every node/state, replacing the
        #: per-visit dict-substitution evaluation.  A prepared query
        #: passes a shared ``query_cache`` dict so the compilation
        #: survives across engine instances for the same clique.
        self._queries = query_cache if query_cache is not None else {}
        #: Per-engine bound runners (``BoundQuery.bind``): these embed
        #: this engine's resolver and its hoisted relation/view state,
        #: so they must never travel through the shared ``query_cache``
        #: — a later engine over a different database would otherwise
        #: probe the first database's relations.
        self._bound = {}

        # A closure over ``get_relation`` alone, not a bound method:
        # the runners in ``_bound`` capture the resolver, and a
        # reference back to the engine would make every engine cyclic
        # garbage that pins ``get_relation`` — a whole snapshot
        # generation — until the collector runs.
        def resolver(_index, atom):
            return get_relation(atom.key)

        self._resolver = resolver
        #: Optional node-keyed counting-table store (``get(node)`` /
        #: ``put(node, table)``): when the source node was already
        #: explored by an earlier run, phase 1 (the left-graph DFS and
        #: ahead/back-arc construction) is skipped entirely and the run
        #: goes straight to the answer phase.
        self.table_store = table_store
        #: True when phase 1 was served from ``table_store``.
        self.table_reused = False
        #: Optional replacement for :meth:`_successors` during phase 1 —
        #: :func:`repro.parallel.counting.parallel_successor_map` installs
        #: a cache-backed resolver here so the counting-set DFS replays
        #: worker-computed expansions instead of probing the database.
        self.successor_resolver = None
        self.table = None
        self._answers = None
        self._parents = {}
        self._state_count = 0
        #: Largest pending-frontier size seen (memory high-water mark).
        self.max_frontier = 0
        # Per-site caches resolving rule -> (rule, bound runner) without
        # rebuilding the positional in-name tuples on every state (the
        # answer phase visits |answers| x |rows| states; the queries
        # themselves are shared through ``self._queries``).
        self._unwind_entries = {}
        self._left_linear_entries = {}
        self._exit_entries = {}

    # -- phase 1: counting set ---------------------------------------

    def _query(self, site, rule, body, in_names, out_names):
        """The cached bound runner for one (call site, rule).

        The shared :class:`BoundQuery` is bound to this engine's
        resolver (``BoundQuery.bind``), so repeated runs reuse the
        resolved relations and hoisted probe views across every state
        expansion of the run.  Safe because ``get_relation`` is a
        fixed mapping for one engine's lifetime: the support engine
        (if any) finished before construction, and evaluation never
        creates or replaces database relations.
        """
        key = (site, id(rule))
        runner = self._bound.get(key)
        if runner is None:
            query = self._queries.get(key)
            if query is None:
                query = bound_query(body, in_names, out_names)
                self._queries[key] = query
            runner = query.bind(self._resolver)
            self._bound[key] = runner
        return runner

    def _successors(self, node):
        """Left-graph successors of ``node`` with (label, shared) labels."""
        if self.budget is not None:
            self.budget.check(self.stats)
        pred, values = node
        results = []
        for rule in self.canonical.recursive_rules:
            if rule.head_key != pred:
                continue
            if rule.is_left_linear_shape():
                # Empty left part: the rule contributes no arc to G_L;
                # the answer phase applies it in place (same row).
                continue
            query = self._query(
                "left", rule, rule.left, rule.bound_vars,
                rule.rec_bound_vars + rule.shared_vars,
            )
            split = len(rule.rec_bound_vars)
            self.stats.rule_firings += 1
            for result in query(values, self.stats):
                results.append(
                    ((rule.rec_key, result[:split]),
                     (rule.label, result[split:]))
                )
        return results

    def classify(self):
        """DFS arc classification of the left graph reachable from the
        source node — phase 1 up to, not including, the table.

        Goes through ``successor_resolver`` when one is installed, so
        every reader of the left graph (the counting set, the
        divergence check, ``choose_method``, the magic-counting split)
        sees the same arcs in the same discovery order.
        """
        return classify_arcs(
            (self.goal_key, self.source_values),
            self.successor_resolver or self._successors,
        )

    def build_counting_set(self):
        """DFS the left graph and materialize the counting table.

        With a ``table_store``, a node already explored by an earlier
        run returns its memoized table without touching the database —
        the §3.4 counting set is node-keyed, so it is independent of
        which query instance reached the node first.  The store is
        responsible for epoch validity (see
        :class:`~repro.exec.cache.CountingTableStore`); a memoized
        table with back arcs still raises under ``require_acyclic``
        exactly like a freshly built one.
        """
        source = (self.goal_key, self.source_values)
        if self.table_store is not None:
            table = self.table_store.get(source)
            if table is not None:
                if self.require_acyclic and not table.is_acyclic():
                    raise NotApplicableError(
                        "left-part graph contains %d back arcs; the "
                        "acyclic pointer method does not apply"
                        % table.back_arc_count
                    )
                self.table = table
                self.table_reused = True
                return table
        classification = self.classify()
        if self.require_acyclic and not classification.is_acyclic():
            raise NotApplicableError(
                "left-part graph contains %d back arcs; the acyclic "
                "pointer method does not apply"
                % len(classification.back)
            )
        table = CountingTable()
        source_row = table.row_for(*source)
        table.source_id = source_row.id
        source_row.triples.append(SOURCE_TRIPLE)
        # Discovery order assigns ids; arcs become in-triples.
        for node in classification.order:
            table.row_for(*node)
        for arc in classification.ahead:
            target = table.row_for(*arc.target)
            source_id = table.row_for(*arc.source).id
            label, shared = arc.label
            target.triples.append((label, shared, source_id))
            table.ahead_arc_count += 1
            self.stats.facts_derived += 1
        for arc in classification.back:
            target = table.row_for(*arc.target)
            source_id = table.row_for(*arc.source).id
            label, shared = arc.label
            target.triples.append((label, shared, source_id))
            table.back_arc_count += 1
            self.stats.facts_derived += 1
        self.table = table
        if self.table_store is not None:
            self.table_store.put(source, table)
        return table

    # -- phase 2: answers ---------------------------------------------

    def _exit_queries(self, pred):
        """Cached ``(rule, query)`` pairs of the exit rules for ``pred``."""
        entries = self._exit_entries.get(pred)
        if entries is None:
            exit_rules, _ = self.canonical.rules_by_head(pred)
            entries = tuple(
                (exit_rule,
                 self._query("exit", exit_rule, exit_rule.body,
                             exit_rule.bound_vars, exit_rule.free_vars))
                for exit_rule in exit_rules
            )
            self._exit_entries[pred] = entries
        return entries

    def _exit_states(self):
        """Seed states from the exit rules at every counting node."""
        for row in self.table.rows:
            for exit_rule, query in self._exit_queries(row.pred):
                self.stats.rule_firings += 1
                for values in query(row.values, self.stats):
                    yield (row.pred, values, row.id), exit_rule.label

    def _apply_left_linear(self, state):
        """Apply left-linear rules in place (no triple is consumed).

        A left-linear rule has an empty left part and carries the bound
        arguments through unchanged, so it transforms the answer values
        while staying at the same counting row.
        """
        pred, values, row_id = state
        row = self.table.rows[row_id]
        entries = self._left_linear_entries.get(pred)
        if entries is None:
            entries = tuple(
                (rule,
                 self._query("right", rule, rule.right,
                             rule.rec_free_vars + rule.bound_vars,
                             rule.free_vars))
                for rule in self.canonical.recursive_rules
                if rule.is_left_linear_shape() and rule.head_key == pred
            )
            self._left_linear_entries[pred] = entries
        for rule, query in entries:
            self.stats.rule_firings += 1
            for out in query(values + row.values, self.stats):
                yield (rule.head_key, out, row_id), rule.label

    def _unwind_entry(self, label):
        """Cached ``(rule, query)`` for one modified-rule pop step."""
        entry = self._unwind_entries.get(label)
        if entry is None:
            rule = self.rules_by_label[label]
            entry = (
                rule,
                self._query(
                    "unwind", rule, rule.right,
                    rule.rec_free_vars + rule.shared_vars
                    + rule.bound_vars + rule.rec_bound_vars,
                    rule.free_vars,
                ),
            )
            self._unwind_entries[label] = entry
        return entry

    def _unwind(self, state):
        """Apply one pop step: consume a triple of the state's row.

        Reads the table's flat triple arrays through the row's
        ordinals — no per-triple tuple is materialized on this path.
        """
        pred, values, row_id = state
        table = self.table
        rows = table.rows
        row = rows[row_id]
        labels = table.t_label
        shareds = table.t_shared
        prevs = table.t_prev
        stats = self.stats
        for ordinal in row.triples.ordinals:
            label = labels[ordinal]
            if label is None:
                continue
            rule, query = self._unwind_entry(label)
            if rule.rec_key != pred:
                continue
            prev_id = prevs[ordinal]
            stats.rule_firings += 1
            for out in query(
                values + shareds[ordinal] + rows[prev_id].values
                + row.values,
                stats,
            ):
                yield (rule.head_key, out, prev_id), rule.label

    def compute_answers(self):
        """Run the answer phase; returns the set of answer tuples.

        Answers are projections onto the goal's free arguments: states
        that reach the source row with the goal predicate.
        """
        from collections import deque

        if self.table is None:
            self.build_counting_set()
        parents = {}
        answers = set()
        pending = deque()
        for state, label in self._exit_states():
            if state not in parents:
                parents[state] = (label, None)
                pending.append(state)
            else:
                self.stats.facts_duplicate += 1
        self.max_frontier = len(pending)
        while pending:
            if self.budget is not None:
                self.budget.check(self.stats)
            faults.fire("unwind", self.stats)
            self.stats.iterations += 1
            if self.answer_order == "dfs":
                state = pending.pop()
            else:
                state = pending.popleft()
            if (
                state[2] == self.table.source_id
                and state[0] == self.goal_key
            ):
                answers.add(state[1])
            for producer in (self._unwind, self._apply_left_linear):
                for new_state, label in producer(state):
                    if new_state in parents:
                        self.stats.facts_duplicate += 1
                        continue
                    parents[new_state] = (label, state)
                    self.stats.facts_derived += 1
                    pending.append(new_state)
            self.max_frontier = max(self.max_frontier, len(pending))
        self._answers = frozenset(answers)
        self._parents = parents
        self._state_count = len(parents)
        return self._answers

    def answer_path(self, answer_values):
        """The derivation steps behind one answer tuple.

        Returns the list of ``(rule_label, node_values, answer_values)``
        steps from the exit tuple to the source row — the unwinding of
        the counting prefix.  The first entry is the exit-rule firing.
        Raises :class:`EvaluationError` if :meth:`compute_answers` has
        not run yet, and :class:`KeyError` for values that are not
        answers.
        """
        if self._answers is None:
            raise EvaluationError("answer phase has not run")
        state = (self.goal_key, tuple(answer_values),
                 self.table.source_id)
        if state not in self._parents:
            raise KeyError(answer_values)
        steps = []
        while state is not None:
            label, parent = self._parents[state]
            pred, values, row_id = state
            steps.append(
                (label, self.table.rows[row_id].values, values)
            )
            state = parent
        steps.reverse()
        return steps

    @property
    def state_count(self):
        """Number of distinct answer-phase states (Theorem 2 bound)."""
        return self._state_count

    def run(self):
        """Build (or reuse) the counting set and compute the answers."""
        if self.table is None:
            self.build_counting_set()
        return self.compute_answers()
