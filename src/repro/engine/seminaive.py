"""Stratified semi-naive bottom-up evaluation.

Programs are evaluated clique by clique in topological order (Section 2
of the paper: "the computation follows the topological order").  Inside
a recursive clique the classical semi-naive discipline applies: after an
initial naive round, each subsequent round evaluates every recursive
rule once per occurrence of a same-clique body atom, with that
occurrence restricted to the facts newly derived in the previous round.

Facts derived for lower cliques are visible to higher ones exactly like
database facts, matching the paper's evaluation model.
"""

from time import perf_counter

from ..datalog.analysis import ProgramAnalysis
from ..datalog.atoms import Atom
from ..errors import EvaluationError
from . import faults
from .compile import clique_loop, compiled_rule
from .instrumentation import EvalStats
from .relation import EmptyRelation, Relation
from .stratify import check_stratified


class SemiNaiveEngine:
    """Evaluator holding derived relations for one program run."""

    def __init__(self, program, db, stats=None, max_iterations=None,
                 reorder=False, seminaive=True, trace=None, budget=None,
                 compiled_cache=None):
        if reorder:
            from ..datalog.rules import Program
            from .planner import reorder_program_rules

            program = Program(reorder_program_rules(program.rules))
        self.program = program
        self.db = db
        self.stats = stats if stats is not None else EvalStats()
        self.max_iterations = max_iterations
        #: Optional :class:`~repro.engine.guard.ResourceBudget` checked
        #: at every round boundary (never mid-round), so deadlines and
        #: fact budgets fire within one round of being exceeded.
        self.budget = budget
        #: With ``seminaive=False`` recursive rounds re-evaluate every
        #: rule against the full relations (the textbook naive
        #: fixpoint) — kept as an ablation baseline.
        self.seminaive = seminaive
        #: Optional :class:`~repro.engine.tracing.DerivationTrace`;
        #: when set, the first derivation of every fact is recorded.
        self.trace = trace
        self.analysis = ProgramAnalysis(program)
        check_stratified(self.analysis)
        #: Rule → :class:`~repro.engine.compile.CompiledRule` cache,
        #: filled on first use.  Callers that evaluate the same rule
        #: objects repeatedly (the prepared-query layer) may pass a
        #: pre-populated ``compiled_cache`` dict (``id(rule) ->
        #: CompiledRule``) so compilation happens once per query form
        #: instead of once per engine instance.
        self._compiled = compiled_cache if compiled_cache is not None \
            else {}
        self.derived = {}
        #: Program facts for predicates with no rules are base facts
        #: (the paper's definition); they overlay the database.
        self._overlay = {}
        self._load_program_facts()

    # -- relation plumbing ------------------------------------------

    def _load_program_facts(self):
        for key, values in self.program.facts():
            if key in self.analysis.derived:
                self._relation(key).add(values)
            else:
                overlay = self._overlay.get(key)
                if overlay is None:
                    base = self.db.get(key)
                    overlay = Relation(key[0], key[1])
                    for row in base:
                        overlay.add(row)
                    self._overlay[key] = overlay
                overlay.add(values)

    def _relation(self, key):
        rel = self.derived.get(key)
        if rel is None:
            rel = Relation(key[0], key[1])
            self.derived[key] = rel
        return rel

    def full(self, key):
        """The current full relation for ``key`` (derived or base)."""
        if key in self.analysis.derived:
            return self._relation(key)
        overlay = self._overlay.get(key)
        if overlay is not None:
            return overlay
        return self.db.get(key)

    def _full_resolver(self, _index, atom):
        return self.full(atom.key)

    # -- evaluation ---------------------------------------------------

    def run(self):
        """Evaluate the whole program; returns the derived relations."""
        for clique in self.analysis.components:
            self._evaluate_clique(clique)
        return self.derived

    def relation(self, key):
        """Post-run lookup: derived, overlay or database relation."""
        return self.full(key)

    def _compiled_rule(self, rule):
        compiled = self._compiled.get(id(rule))
        if compiled is None:
            compiled = self._compiled[id(rule)] = compiled_rule(rule)
        return compiled

    def _head(self, key, width):
        """The relation a rule head of ``width`` arguments derives into."""
        relation = self._relation(key)
        if width != relation.arity:
            raise ValueError(
                "arity mismatch for %s: expected %d, got a head of %d"
                % (key[0], relation.arity, width)
            )
        return relation

    def _rule_pass(self, rule, occurrence, delta, deltas):
        """One traced rule pass into the head relation, recording the
        new rows in ``delta`` — with ``occurrence``, as the
        ``delta_first`` variant whose body literal ``occurrence`` reads
        ``deltas`` (the previous round's new rows)."""
        stats = self.stats
        compiled = self._compiled_rule(rule)
        relation = self._head(rule.head.key, len(compiled.head_spec))
        resolver = self._full_resolver
        if occurrence is not None:
            compiled = compiled.delta_variant(occurrence)
            key = compiled.delta_key()
            if compiled.skippable and key not in deltas:
                stats.rule_firings += 1
                stats.note_rule(rule.label, 0.0, 0)
                return
            delta_at = compiled.delta_at
            rows = deltas.get(key) or EmptyRelation(*key)
            full = self.full

            def resolver(index, atom):
                return rows if index == delta_at else full(atom.key)
        started = perf_counter()
        derived_before = stats.facts_derived
        self._apply_traced(rule, compiled, resolver, relation, delta)
        stats.note_rule(
            rule.label,
            perf_counter() - started,
            stats.facts_derived - derived_before,
        )

    def _apply_traced(self, rule, compiled, resolver, relation, delta):
        """Rule pass recording the first derivation of every fact."""
        stats = self.stats
        stats.rule_firings += 1
        key = rule.head.key
        premise_keys = tuple(atom.key for atom in rule.body_atoms())
        body = compiled.compiled
        head = compiled.head
        for slots in body.execute(resolver, body.make_slots(), stats):
            row = head(slots)
            if relation.add(row):
                stats.facts_derived += 1
                delta.setdefault(key, Relation(key[0], key[1])).add(row)
                premises = tuple(
                    (pkey, fn(slots))
                    for pkey, fn in zip(premise_keys, compiled.premises)
                )
                self.trace.record(key, row, rule.label, premises)
            else:
                stats.facts_duplicate += 1

    def _round_boundary(self, rounds):
        """Pre-round checkpoint: iteration cap, budget, fault hook.

        Runs *before* the round it guards, so ``max_iterations=N``
        executes at most N rounds per clique and budget errors fire
        before — never after — an over-limit round would start.
        """
        if (
            self.max_iterations is not None
            and rounds >= self.max_iterations
        ):
            raise EvaluationError(
                "fixpoint did not converge within %d iterations"
                % self.max_iterations
            )
        if self.budget is not None:
            self.budget.check(self.stats)
        faults.fire("round", self.stats)

    def _passes(self, clique):
        """The ``(rule, occurrence)`` passes of a recursive round.

        Semi-naive: one pass per (rule, body index), that literal
        restricted to the delta.  Positive atoms only: a Negation
        wrapping a same-clique atom must never become a delta-driven
        occurrence (stratification already rejects such programs at
        construction time), and duck typing on ``.key`` would silently
        misclassify literal kinds.  Naive: every recursive rule over
        the full relations (occurrence None).
        """
        if not self.seminaive:
            return [(rule, None) for rule in clique.recursive_rules]
        return [
            (rule, index)
            for rule in clique.recursive_rules
            for index, lit in enumerate(rule.body)
            if isinstance(lit, Atom) and lit.key in clique.predicates
        ]

    def _evaluate_clique(self, clique):
        """Evaluate one clique to its fixpoint.

        Untraced, the clique runs in one generated function
        (:func:`~repro.engine.compile.clique_loop`, shared by every
        clique of the same rules and pass plan): an initial naive round
        over every rule, then rounds of the :meth:`_passes` while the
        last round derived anything.  Its counters and the per-rule
        profile are flushed to ``stats`` once per round.  Traced, the
        same rounds run pass by pass (:meth:`_evaluate_passes`).
        """
        if self.trace is not None:
            return self._evaluate_passes(clique)
        rules = [rule for rule in clique.rules if not rule.is_fact()]
        passes = self._passes(clique) if clique.is_recursive() else []
        compiled = self._compiled_rule
        loop = clique_loop(
            tuple(map(compiled, rules)),
            tuple((compiled(rule), index) for rule, index in passes),
        )
        loop(self._head, self._full_resolver, self.stats, self.budget,
             self.max_iterations,
             tuple(rule.label for rule in rules)
             + tuple(rule.label for rule, _index in passes),
             self._round_boundary)

    def _evaluate_passes(self, clique):
        """The rounds of :meth:`_evaluate_clique`, one :meth:`_rule_pass`
        at a time, over delta relations."""
        delta = {}
        rounds = 0
        self._round_boundary(rounds)
        # Initial naive round over every rule of the clique.
        for rule in clique.rules:
            if rule.is_fact():
                continue
            self._rule_pass(rule, None, delta, None)
        rounds += 1
        self.stats.iterations += 1
        if not clique.is_recursive() or not delta:
            return
        passes = self._passes(clique)
        while delta:
            self._round_boundary(rounds)
            rounds += 1
            self.stats.iterations += 1
            new_delta = {}
            for rule, occurrence in passes:
                self._rule_pass(rule, occurrence, new_delta, delta)
            delta = new_delta


def evaluate_program(program, db, stats=None, max_iterations=None,
                     reorder=False, budget=None):
    """Evaluate ``program`` over ``db``; returns {key: Relation}."""
    engine = SemiNaiveEngine(
        program, db, stats=stats, max_iterations=max_iterations,
        reorder=reorder, budget=budget,
    )
    return engine.run()
