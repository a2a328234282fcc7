"""The magic-counting hybrid of Saccà & Zaniolo [16].

Section 4 of the paper cites two earlier ways out of the counting
method's divergence on cyclic data: extending counting itself (which
became Algorithm 2) and *magic counting* — "based on the combination
of the magic-set and the counting method".  This module implements the
hybrid as an additional comparison strategy:

* the reachable left graph is split into the **non-recurring** nodes
  ``A`` (finitely many source paths; the subgraph they induce is
  acyclic) and the **recurring** nodes ``R`` (on or below a cycle —
  §2's node classes);
* the recursive predicate restricted to ``R`` is evaluated by the
  magic-set method: seeds are the *boundary* nodes (targets in ``R``
  of arcs leaving ``A``, or the source itself when it is recurring),
  and a standard magic program runs to a fixpoint — no level
  synchronization, cycles are harmless;
* the ``A`` part runs the pointer-counting unwinding: exit rules seed
  states at ``A`` rows as usual, and each boundary arc contributes
  "virtual exit" states by applying its rule's right part to the
  magic-computed answers at the boundary node.

When the data is acyclic ``R`` is empty and the method degenerates to
the §3.4 pointer implementation; when the source itself is recurring
it degenerates to pure magic.  Either way the answers equal the
original query's (tested against naive evaluation on the paper's
examples and on random cyclic data).
"""

from ..datalog.atoms import Atom
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Variable
from ..engine.instrumentation import EvalStats
from ..engine.relation import WILDCARD
from ..engine.seminaive import SemiNaiveEngine
from ..graph.dfs import recurring_ids
from .counting_engine import CountingEngine, CountingTable

#: Prefixes of the hybrid's internal predicates (kept out of the way
#: of user predicates and of the other rewritings).
MAGIC_PART_PREFIX = "mcm_"
ANSWER_PART_PREFIX = "mca_"


class _ResolverDatabase:
    """Duck-typed database over a ``key -> relation`` lookup."""

    def __init__(self, get_relation):
        self._get = get_relation

    def get(self, key):
        return self._get(key)


def recurring_nodes(classification):
    """Nodes of the reachable left graph with infinitely many paths:
    those on or below a cycle (:meth:`ArcClassification.recurring
    <repro.graph.dfs.ArcClassification.recurring>`)."""
    return classification.recurring()


class MagicCountingEngine:
    """Hybrid evaluator; same interface as :class:`CountingEngine`."""

    def __init__(self, canonical, goal_key, source_values, get_relation,
                 stats=None, budget=None, query_cache=None):
        self.canonical = canonical
        self.goal_key = goal_key
        self.source_values = tuple(source_values)
        self.get_relation = get_relation
        self.stats = stats if stats is not None else EvalStats()
        #: Optional :class:`~repro.engine.guard.ResourceBudget`; shared
        #: with the embedded pointer engine and the magic-part
        #: semi-naive run.
        self.budget = budget
        self._pointer = CountingEngine(
            canonical, goal_key, source_values, get_relation,
            stats=self.stats, budget=budget, query_cache=query_cache,
        )
        self.table = None
        self.recurring = frozenset()
        self.magic_relations = None

    # -- structure ---------------------------------------------------

    def _magic_part_program(self, boundary_seeds):
        """Magic program computing the recursive predicate over R.

        ``boundary_seeds`` maps predicate key -> set of bound-value
        tuples (the magic seeds).  Magic rules follow the recursive
        clique's left parts; answer rules are the canonical exit and
        recursive rules guarded by the magic predicate.
        """
        rules = []
        for key, seeds in boundary_seeds.items():
            name = MAGIC_PART_PREFIX + key[0]
            for values in sorted(seeds, key=repr):
                rules.append(
                    Rule(Atom(name, tuple(Constant(v) for v in values)))
                )
        for rule in self.canonical.recursive_rules:
            if rule.is_left_linear_shape():
                continue
            magic_head = Atom(
                MAGIC_PART_PREFIX + rule.rec_key[0],
                tuple(Variable(v) for v in rule.rec_bound_vars),
            )
            guard = Atom(
                MAGIC_PART_PREFIX + rule.head_key[0],
                tuple(Variable(v) for v in rule.bound_vars),
            )
            rules.append(
                Rule(magic_head, (guard,) + rule.left,
                     label="m_%s" % rule.label)
            )
        for exit_rule in self.canonical.exit_rules:
            guard = Atom(
                MAGIC_PART_PREFIX + exit_rule.head_key[0],
                tuple(Variable(v) for v in exit_rule.bound_vars),
            )
            head = Atom(
                ANSWER_PART_PREFIX + exit_rule.head_key[0],
                tuple(Variable(v) for v in exit_rule.bound_vars)
                + tuple(Variable(v) for v in exit_rule.free_vars),
            )
            rules.append(
                Rule(head, (guard,) + exit_rule.body,
                     label=exit_rule.label)
            )
        for rule in self.canonical.recursive_rules:
            guard = Atom(
                MAGIC_PART_PREFIX + rule.head_key[0],
                tuple(Variable(v) for v in rule.bound_vars),
            )
            rec_answer = Atom(
                ANSWER_PART_PREFIX + rule.rec_key[0],
                tuple(Variable(v) for v in rule.rec_bound_vars)
                + tuple(Variable(v) for v in rule.rec_free_vars),
            )
            head = Atom(
                ANSWER_PART_PREFIX + rule.head_key[0],
                tuple(Variable(v) for v in rule.bound_vars)
                + tuple(Variable(v) for v in rule.free_vars),
            )
            rules.append(
                Rule(
                    head,
                    (guard,) + rule.left + (rec_answer,) + rule.right,
                    label=rule.label,
                )
            )
        return Program(rules)

    # -- phases -------------------------------------------------------

    def run(self):
        graph = self._pointer.left_graph()
        nodes, arcs = graph.nodes, graph.arcs
        flags = recurring_ids(len(nodes), arcs, graph.back)
        self.recurring = frozenset(
            node for node, flag in zip(nodes, flags) if flag
        )
        source = nodes[0]

        # Boundary seeds: recurring targets of arcs from the acyclic
        # part, plus the source itself when recurring.
        boundary_arcs = [
            arc for arc in arcs if flags[arc[1]] and not flags[arc[0]]
        ]
        boundary = {}
        for arc in boundary_arcs:
            pred, values = nodes[arc[1]]
            boundary.setdefault(pred, set()).add(values)
        if flags[0]:
            boundary.setdefault(source[0], set()).add(source[1])

        self.magic_relations = {}
        if boundary:
            program = self._magic_part_program(boundary)
            engine = SemiNaiveEngine(
                program,
                _ResolverDatabase(self.get_relation),
                stats=self.stats,
                budget=self.budget,
            )
            self.magic_relations = engine.run()

        if flags[0]:
            # Pure magic: read the answers straight off.
            relation = self.magic_relations.get(
                (ANSWER_PART_PREFIX + source[0][0],
                 len(source[1]) + self._free_arity(source[0]))
            )
            answers = set()
            if relation is not None:
                width = len(source[1])
                for row in relation:
                    if row[:width] == source[1]:
                        answers.add(row[width:])
            return frozenset(answers)

        # Counting table over the acyclic (non-recurring) part: its
        # nodes in discovery order, and the ahead arcs between them (a
        # non-recurring target has a non-recurring source; no back arc
        # has one).
        kept = [rank for rank, flag in enumerate(flags) if not flag]
        row_of = dict(zip(kept, range(len(kept))))
        table = CountingTable.from_ranks(
            [nodes[rank] for rank in kept],
            [(row_of[s], row_of[t], label)
             for s, t, label in graph.ahead if not flags[t]],
        )
        self.table = self._pointer.table = table
        # One answer loop for all three evaluators: the boundary states
        # join the exit rules' as seeds.
        return self._pointer.compute_answers(
            self._boundary_states(boundary_arcs, nodes, row_of)
        )

    def _free_arity(self, key):
        for rule in self.canonical.exit_rules:
            if rule.head_key == key:
                return len(rule.free_vars)
        for rule in self.canonical.recursive_rules:
            if rule.head_key == key:
                return len(rule.free_vars)
            if rule.rec_key == key:
                return len(rule.rec_free_vars)
        raise KeyError(key)

    def _boundary_states(self, boundary_arcs, nodes, row_of):
        """Virtual exits: magic answers at boundary nodes, pulled one
        right-part application back into the acyclic part.
        ``boundary_arcs`` are ``(source rank, target rank, (label,
        shared))`` over ``nodes``; ``row_of`` maps a non-recurring rank
        to its table row."""
        for source, target, (label, shared) in boundary_arcs:
            pred, target_values = nodes[target]
            answer_key = (
                ANSWER_PART_PREFIX + pred[0],
                len(target_values) + self._free_arity(pred),
            )
            relation = self.magic_relations.get(answer_key)
            if relation is None:
                continue
            row_id = row_of[source]
            source_values = nodes[source][1]
            width = len(target_values)
            pattern = tuple(target_values) + (WILDCARD,) * (
                relation.arity - width
            )
            # The pointer engine's pop step for this rule (bound to its
            # resolver, which is this engine's too).
            rule, query = self._pointer.unwind_entry(label)
            for row in relation.match(pattern, self.stats):
                self.stats.tuples_scanned += 1
                y1_values = row[width:]
                self.stats.rule_firings += 1
                for out in query(
                    y1_values + shared + source_values + target_values,
                    self.stats,
                ):
                    yield (rule.head_key, out, row_id), rule.label

    @property
    def state_count(self):
        return self._pointer.state_count

    @property
    def state_key(self):
        """The answer loop's state key; ``None`` if it did not run."""
        return self._pointer.state_key
