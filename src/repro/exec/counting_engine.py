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
  query constants, as arrays.  Each row has a set of *in-triples*
  ``(rule label, shared values, predecessor id)`` — one per left-part
  arc entering the node, ahead and back arcs alike.  The source row
  has the sentinel triple ``(None, (), None)``.
* The answer phase derives *states* ``(predicate key, answer values,
  key)``: the predicate instance holds at ``(values[row], answer
  values)`` for a row with that key.  Exit rules seed states; each
  modified-rule step consumes one in-triple of such a row, applies the
  source rule's right part and moves to the predecessor's key.  A state
  with the source row's key and the goal predicate yields an answer.
* The key is the coarsest one that is sound — a quotient of the table
  (``key_of[row id]``, ``groups[(key, predicate)]``, memoized on the
  table) handed to one loop, generated per clique by
  :func:`~repro.engine.codegen.generate_answer_loop`.  ``"node"``,
  the row id, whenever a right part reads something phase 1 produced;
  ``"distance"`` (Algorithm 3(i), the classical index) for one
  arc-producing rule over a table giving each row one distance from
  the source; ``"none"`` (Fact 1) when every arc-producing rule is
  right-linear shaped.  DESIGN.md §7 has the soundness arguments.

The state space is finite — at most ``|values| × |keys|`` states, i.e.
``× |rows|`` under the node key, ``× |depths|`` under the distance key
and ``× 1`` under none — for *any* database, cyclic or not, which is the
effective content of Theorem 2(3).  On acyclic data the table coincides
with the §3.4 pointer implementation; the back-arc triples are exactly
the extra information Algorithm 2 adds.
"""

from array import array
from collections import deque
from itertools import chain

from ..engine.compile import answer_loop, bound_query
from ..engine.instrumentation import EvalStats
from ..errors import EvaluationError, NotApplicableError
from ..graph.dfs import classify_ids, explore

#: Sentinel triple marking the source row.
SOURCE_TRIPLE = (None, (), None)

#: Flat-array encoding of "no predecessor" (the source sentinel).
_NO_PREV = -1


def _step_names(rule):
    """``(in names, out names)`` of a step rule's right part: a pop
    step reads ``Y1 + C_r + X + X1`` (answer values, then the
    in-triple's shared values and the two rows' bound values), an
    in-place (left-linear) step ``Y1 + X``; both yield ``Y``."""
    if rule.is_left_linear_shape():
        ins = rule.rec_free_vars + rule.bound_vars
    else:
        ins = (rule.rec_free_vars + rule.shared_vars + rule.bound_vars
               + rule.rec_bound_vars)
    return ins, rule.free_vars


class CountingTable:
    """The per-node counting set with predecessor triples, as arrays.

    Row ``i`` is the node ``(pred[i], values[i])``; ``index`` maps a
    node back to its row id.  In-triples are flat parallel arrays —
    ``t_label`` / ``t_shared`` (lists) and ``t_prev`` / ``t_row``
    (``array('q')`` machine words, ``-1`` encoding "no predecessor") —
    entry ``i`` being one in-triple of row ``t_row[i]``.  No per-row or
    per-triple object exists: one triple costs two list slots and two
    machine words, and the answer phase reads the arrays directly.
    """

    __slots__ = ("pred", "values", "index", "source_id", "back_arc_count",
                 "ahead_arc_count", "t_label", "t_shared", "t_prev",
                 "t_row", "_depths", "_quotients")

    def __init__(self):
        self.pred = []
        self.values = []
        self.index = {}
        self.source_id = 0
        self.back_arc_count = 0
        self.ahead_arc_count = 0
        self.t_label = []
        self.t_shared = []
        self.t_prev = array("q")
        self.t_row = array("q")
        self._depths = None
        #: ``(state key name, canonical clique) -> (key_of, groups)``;
        #: see :meth:`quotient`.
        self._quotients = {}

    @classmethod
    def from_ranks(cls, nodes, ahead, back=()):
        """The table whose row ``i`` is ``nodes[i]`` (the source at 0),
        with one in-triple per ``(source row, target row, (label,
        shared))`` arc in the order given, ahead arcs first, after the
        source's sentinel."""
        table = cls()
        table.pred = [pred for pred, _values in nodes]
        table.values = [values for _pred, values in nodes]
        table.index = dict(zip(nodes, range(len(nodes))))
        arcs = [*ahead, *back]
        table.t_label = [None] + [arc[2][0] for arc in arcs]
        table.t_shared = [()] + [arc[2][1] for arc in arcs]
        table.t_prev = array("q", [_NO_PREV] + [arc[0] for arc in arcs])
        table.t_row = array("q", [0] + [arc[1] for arc in arcs])
        table.ahead_arc_count = len(ahead)
        table.back_arc_count = len(back)
        return table

    def __len__(self):
        return len(self.pred)

    @property
    def triple_count(self):
        """Total in-triples: the §3.4 per-arc counting-set size."""
        return len(self.t_label)

    def triples(self):
        """Each row's in-triples ``(rule label, shared values,
        predecessor id)`` in append order, one list per row id; the
        source's sentinel is :data:`SOURCE_TRIPLE`."""
        out = [[] for _ in self.pred]
        for label, shared, prev, row_id in zip(
                self.t_label, self.t_shared, self.t_prev, self.t_row):
            out[row_id].append(
                (label, shared, None if prev == _NO_PREV else prev)
            )
        return out

    def is_acyclic(self):
        return self.back_arc_count == 0

    def quotient(self, name, canonical):
        """``(key_of, groups)``: this table as the answer loop of
        ``canonical``'s clique sees it under state key ``name``.

        ``key_of[row id]`` is the third component of a state at that
        row.  ``groups[(key, predicate)]`` lists the distinct ``(rule
        index, arguments, target key)`` steps a state with that key and
        predicate takes, the rule indexing ``canonical.recursive_rules``:
        one per in-triple (the pop step; none under ``"none"``, where
        it is the identity), then one per left-linear rule, which stays
        at its key.  A key that merges rows keeps one step per rule —
        its right part reads nothing that tells the rows apart
        (``_state_key``) — and the merge is decided before a step's
        arguments are built.

        Memoized like :meth:`depths`, so a table served from a
        :class:`~repro.exec.cache.CountingTableStore` skips it; the
        memo holds only ids, values and keys, never a bound runner.
        """
        memo = self._quotients.get((name, canonical))
        if memo is None:
            memo = self._quotients[(name, canonical)] = self._quotient(
                name, canonical.recursive_rules
            )
        return memo

    def _quotient(self, name, rules):
        size = len(self.pred)
        if name == "node":
            key_of = range(size)
        elif name == "distance":
            key_of = self.depths()
        else:
            key_of = [self.source_id] * size
        values = self.values
        merged = None if name == "node" else set()
        groups = {}
        if name != "none":
            index_of = {rule.label: i for i, rule in enumerate(rules)}
            for label, shared, prev_id, row_id in zip(
                    self.t_label, self.t_shared, self.t_prev, self.t_row):
                if label is None:
                    continue
                index = index_of[label]
                key = key_of[row_id]
                if merged is not None:
                    if (key, index) in merged:
                        continue
                    merged.add((key, index))
                groups.setdefault((key, rules[index].rec_key), []).append(
                    (index, shared + values[prev_id] + values[row_id],
                     key_of[prev_id])
                )
        in_place = [(index, rule) for index, rule in enumerate(rules)
                    if rule.is_left_linear_shape()]
        for row_id, pred in enumerate(self.pred if in_place else ()):
            key = key_of[row_id]
            for index, rule in in_place:
                if rule.head_key != pred:
                    continue
                if merged is not None:
                    if (key, index) in merged:
                        continue
                    merged.add((key, index))
                groups.setdefault((key, rule.rec_key), []).append(
                    (index, values[row_id], key)
                )
        return key_of, groups

    def depths(self):
        """``depth[row id]`` if every row has one distance from the
        source — no back arc and ``depth[row] == depth[prev] + 1`` on
        every in-triple — else ``None``.

        One pass over ``t_row`` / ``t_prev`` of the finished table (a
        row's tree arc is its first triple and follows its
        predecessor's), no database read; memoized, so a table served
        from a :class:`~repro.exec.cache.CountingTableStore` keeps it.
        """
        if self._depths is None:
            depth = array("q", [-1]) * len(self.pred)
            depth[self.source_id] = 0
            uniform = self.back_arc_count == 0
            for row_id, prev_id in zip(self.t_row, self.t_prev):
                if prev_id == _NO_PREV:
                    continue
                below = depth[prev_id] + 1
                if depth[row_id] < 0 < below:
                    depth[row_id] = below
                elif not depth[row_id] == below > 0:
                    uniform = False
                    break
            self._depths = depth if uniform else False
        return self._depths or None

    def render(self):
        """The paper's notation for counting sets, e.g.
        ``o4 : (d, {(r1, [], o3), (r1, [], o5)})``."""
        from ..datalog.pretty import format_value

        def fmt_id(row_id):
            return "nil" if row_id is None else "o%d" % (row_id + 1)

        lines = []
        for row_id, (values, triples) in enumerate(
                zip(self.values, self.triples())):
            text = ", ".join(
                "(%s, %s, %s)" % (
                    label if label is not None else "r0",
                    format_value(tuple(shared)),
                    fmt_id(prev),
                )
                for label, shared, prev in triples
            )
            lines.append("%s : (%s, {%s})" % (
                fmt_id(row_id),
                ", ".join(format_value(v) for v in values),
                text,
            ))
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
        #: once per breadth wave of phase 1 and per state pop in the
        #: answer phase.
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
        self.table = None
        self._answers = None
        #: ``state -> (label, parent)``, recorded by :meth:`answer_path`.
        self._parents = None
        self._seeds = ()
        self._state_count = 0
        #: The state key of the last answer phase: ``"node"``,
        #: ``"distance"`` or ``"none"``.
        self.state_key = None
        #: Largest pending-frontier size seen (memory high-water mark).
        self.max_frontier = 0
        # Per-site caches resolving rule -> (rule, bound runner); the
        # queries themselves are shared through ``self._queries``.
        self._unwind_entries = {}
        self._exit_entries = {}
        self._arc_entries = None
        self._answer_fn = None

    # -- phase 1: counting set ---------------------------------------

    def _query(self, site, rule, body, in_names, out_names, batch=False):
        """The cached bound runner for one (call site, rule).

        The shared :class:`BoundQuery` is bound to this engine's
        resolver (``BoundQuery.bind``, or ``bind_batch`` for the sites
        that run a batch of bindings per call), so repeated runs reuse
        the resolved relations and hoisted probe views across every
        expansion of the run.  Safe because ``get_relation`` is a
        fixed mapping for one engine's lifetime: the support engine
        (if any) finished before construction, and evaluation never
        creates or replaces database relations.
        """
        key = (site, id(rule))
        runner = self._bound.get(key)
        if runner is None:
            query = self._shared_query(site, rule, body, in_names,
                                       out_names)
            bind = query.bind_batch if batch else query.bind
            runner = self._bound[key] = bind(self._resolver)
        return runner

    def _shared_query(self, site, rule, body, in_names, out_names):
        """The :class:`BoundQuery` for one (call site, rule), from the
        shared ``query_cache``."""
        key = (site, id(rule))
        query = self._queries.get(key)
        if query is None:
            query = self._queries[key] = bound_query(body, in_names,
                                                     out_names)
        return query

    def _expand(self, wave, nodes, ids):
        """Left-graph successors of each node of ``wave``, as ``(target
        id, (label, shared))`` pairs: one compiled call per
        arc-producing rule for all the wave's nodes it applies to (the
        expander of :func:`~repro.graph.dfs.explore`).  ``ids`` maps
        each predicate to its ``values -> id`` map: a target is looked
        up by its values alone, and only a new one is built as a
        ``(predicate, values)`` node."""
        entries = self._arc_entries
        if entries is None:
            # pred -> (rec key, label, split, batch runner) per rule.  A
            # left-linear shaped rule has an empty left part: it adds no
            # arc to G_L; the answer phase applies it in place.
            entries = self._arc_entries = {}
            for rule in self.canonical.recursive_rules:
                if not rule.is_left_linear_shape():
                    entries.setdefault(rule.head_key, []).append((
                        rule.rec_key, rule.label, len(rule.rec_bound_vars),
                        self._query("left", rule, rule.left,
                                    rule.bound_vars,
                                    rule.rec_bound_vars + rule.shared_vars,
                                    batch=True),
                    ))
        stats = self.stats
        expanded = [[] for _ in wave]
        groups = {}
        for (pred, values), successors in zip(wave, expanded):
            outs, batch = groups.setdefault(pred, ([], []))
            outs.append(successors)
            batch.append(values)
        for pred, (outs, batch) in groups.items():
            for rec_key, label, split, run in entries.get(pred, ()):
                stats.rule_firings += len(batch)
                known = ids.get(rec_key)
                if known is None:
                    known = ids[rec_key] = {}
                for successors, rows in zip(outs, run(batch, stats)):
                    append = successors.append
                    for row in rows:
                        values = row[:split]
                        target = known.get(values)
                        if target is None:
                            target = known[values] = len(nodes)
                            nodes.append((rec_key, values))
                        append((target, (label, row[split:])))
        return expanded

    def left_graph(self):
        """Phase 1 up to, not including, the table: the left graph
        reachable from the source, expanded one breadth wave at a time
        (one budget check and one :meth:`_expand` call per wave) and
        classified by Algorithm 2's DFS over integer ids — an
        :class:`~repro.graph.dfs.IdClassification` whose ranks are the
        counting table's row ids.  Every reader of the left graph goes
        through here, so all see the same arcs in the same order.
        """
        ids = {self.goal_key: {self.source_values: 0}}
        budget = self.budget
        stats = self.stats
        expand = self._expand

        def wave(nodes_of_wave, nodes):
            if budget is not None:
                budget.check(stats)
            return expand(nodes_of_wave, nodes, ids)

        return classify_ids(
            *explore((self.goal_key, self.source_values), wave)
        )

    def classify(self):
        """:meth:`left_graph` viewed as an
        :class:`~repro.graph.dfs.ArcClassification` — what the
        divergence check and ``choose_method`` read."""
        return self.left_graph().view()

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
        graph = self.left_graph()
        if self.require_acyclic and graph.back:
            raise NotApplicableError(
                "left-part graph contains %d back arcs; the acyclic "
                "pointer method does not apply" % len(graph.back)
            )
        # Discovery ranks are the row ids; every arc is an in-triple.
        table = CountingTable.from_ranks(graph.nodes, graph.ahead, graph.back)
        self.stats.facts_derived += len(graph.ahead) + len(graph.back)
        self.table = table
        if self.table_store is not None:
            self.table_store.put(source, table)
        return table

    # -- phase 2: answers ---------------------------------------------

    def _exit_queries(self, pred):
        """Cached ``(rule, batch query)`` pairs of the exit rules for
        ``pred``."""
        entries = self._exit_entries.get(pred)
        if entries is None:
            exit_rules, _ = self.canonical.rules_by_head(pred)
            entries = tuple(
                (exit_rule,
                 self._query("exit", exit_rule, exit_rule.body,
                             exit_rule.bound_vars, exit_rule.free_vars,
                             batch=True))
                for exit_rule in exit_rules
            )
            self._exit_entries[pred] = entries
        return entries

    def _exit_states(self, stats):
        """Seed ``((pred, values, row id), label)`` states from the
        exit rules at every counting node, in row order and then
        exit-rule order; one compiled call per (exit rule, predicate)
        covers all of the predicate's rows."""
        table = self.table
        by_pred = {}
        for pred, values in zip(table.pred, table.values):
            by_pred.setdefault(pred, []).append(values)
        results = {}
        for pred, batch in by_pred.items():
            queries = self._exit_queries(pred)
            stats.rule_firings += len(batch) * len(queries)
            results[pred] = [(exit_rule.label, iter(query(batch, stats)))
                             for exit_rule, query in queries]
        return [
            ((pred, values, row_id), label)
            for row_id, pred in enumerate(table.pred)
            for label, outs in results[pred]
            for values in next(outs)
        ]

    def unwind_entry(self, label):
        """Cached ``(rule, bound runner)`` for one modified-rule pop
        step; the runner takes ``Y1 + C_r + X + X1`` values and yields
        ``Y``."""
        entry = self._unwind_entries.get(label)
        if entry is None:
            rule = self.rules_by_label[label]
            entry = (rule, self._query("step", rule, rule.right,
                                       *_step_names(rule)))
            self._unwind_entries[label] = entry
        return entry

    def _loop(self):
        """``(generated answer loop, runners, heads, labels)`` of this
        clique.  The loop is shared by every clique of the same step
        bodies (:func:`~repro.engine.compile.answer_loop`) and reads
        each step rule's head key and label from ``heads`` /
        ``labels``; ``runners[index]`` is this engine's bound runner for
        a step rule the loop could not inline, None for the others."""
        if self._answer_fn is None:
            rules = self.canonical.recursive_rules
            loop = answer_loop(tuple(
                (self._shared_query("step", rule, rule.right,
                                    *_step_names(rule)),
                 len(rule.rec_free_vars))
                for rule in rules
            ))
            runners = [None] * len(rules)
            for index in loop.fallback:
                rule = rules[index]
                runners[index] = self._query(
                    "step", rule, rule.right, *_step_names(rule)
                )
            self._answer_fn = (
                loop, runners, tuple(rule.head_key for rule in rules),
                tuple(rule.label for rule in rules),
            )
        return self._answer_fn

    def _answer_loop(self, name, seeds, stats, budget=None, parents=None):
        """The answer phase under quotient ``name``; returns ``(answers,
        state count, largest frontier)``.

        ``seeds`` are extra ``((pred, values, row id), label)`` states
        beside the exit rules'.  Seeds are not ``facts_derived``; a
        repeated seed is one ``facts_duplicate``; every later new state
        is one ``facts_derived``.  ``parents``, when given, receives
        ``state -> (label, parent state)``.  Each pop runs the steps of
        its ``(key, predicate)`` group of :meth:`CountingTable.quotient`
        in the generated loop of :meth:`_loop`.
        """
        key_of, groups = self.table.quotient(name, self.canonical)
        seen = set()
        pending = deque()
        for (pred, values, row_id), label in chain(
                self._exit_states(stats), seeds):
            state = (pred, values, key_of[row_id])
            if state in seen:
                stats.facts_duplicate += 1
                continue
            seen.add(state)
            pending.append(state)
            if parents is not None:
                parents[state] = (label, None)
        loop, runners, heads, labels = self._loop()
        answers, frontier = loop(
            pending, seen, groups, self.goal_key,
            key_of[self.table.source_id],
            pending.pop if self.answer_order == "dfs" else pending.popleft,
            stats, budget, parents, self._resolver, runners, len(pending),
            heads, labels,
        )
        return frozenset(answers), len(seen), frontier

    def compute_answers(self, seeds=()):
        """Run the answer phase; returns the set of answer tuples.

        Answers are projections onto the goal's free arguments: states
        that reach the source's key with the goal predicate.  The key is
        the coarsest one the rules allow (``canonical.state_key``);
        ``"distance"`` falls back to ``"node"`` unless the table gives
        every row one distance from the source.  ``seeds`` adds states
        to the exit rules' (the magic-counting boundary).
        """
        if self.table is None:
            self.build_counting_set()
        name = self.canonical.state_key
        if name == "distance" and self.table.depths() is None:
            name = "node"
        self.state_key = name
        self._seeds = list(seeds)
        self._parents = None
        self._answers, self._state_count, self.max_frontier = (
            self._answer_loop(name, self._seeds, self.stats, self.budget)
        )
        return self._answers

    def answer_path(self, answer_values):
        """The derivation steps behind one answer tuple.

        Returns the list of ``(rule_label, node_values, answer_values)``
        steps from the exit tuple to the source row — the unwinding of
        the counting prefix.  The first entry is the exit-rule firing.
        Raises :class:`EvaluationError` if :meth:`compute_answers` has
        not run yet, and :class:`KeyError` for values that are not
        answers.  The first call re-runs the answer loop node-keyed
        against scratch statistics to record each state's parent (a
        run keeps none); later calls walk the recorded map.
        """
        if self._answers is None:
            raise EvaluationError("answer phase has not run")
        if self._parents is None:
            self._parents = {}
            self._answer_loop("node", self._seeds, EvalStats(),
                              parents=self._parents)
        state = (self.goal_key, tuple(answer_values),
                 self.table.source_id)
        if state not in self._parents:
            raise KeyError(answer_values)
        steps = []
        while state is not None:
            label, parent = self._parents[state]
            pred, values, row_id = state
            steps.append((label, self.table.values[row_id], values))
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
