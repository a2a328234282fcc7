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
from .codegen import KEY_EVAL
from .compile import compiled_rule
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

    def _rule_pass(self, rule, occurrence=None):
        """Plan one rule's pass once; returns ``run(delta, deltas)``.

        ``run`` evaluates the rule into the head relation, recording the
        new rows in ``delta`` — with ``occurrence``, as the
        ``delta_first`` variant whose body literal ``occurrence`` reads
        ``deltas`` (the previous round's new rows).  Everything that
        does not change between the rounds of a clique is fixed here:
        the compiled variant, its batched function, the head relation
        and, once resolved, the full relations the other literals read.
        """
        stats = self.stats
        compiled = self._compiled_rule(rule)
        key = rule.head.key
        relation = self._relation(key)
        if len(compiled.head_spec) != relation.arity:
            raise ValueError(
                "arity mismatch for %s: expected %d, got a head of %d"
                % (key[0], relation.arity, len(compiled.head_spec))
            )
        resolver = self._full_resolver
        current = [None]
        skip = None
        if occurrence is not None:
            compiled = compiled.delta_variant(occurrence)
            resolver = self._plan_resolver(compiled, current)
            first = compiled.compiled.steps[0]
            if compiled.delta_at == 0 and all(
                kind != KEY_EVAL for kind, _data in first[4]
            ):
                # The delta drives the outermost loop, and its probe key
                # evaluates nothing: with no delta rows the pass scans
                # and probes nothing.
                skip = first[2].key
        label = rule.label
        if self.trace is not None:
            def apply(delta):
                self._apply_traced(rule, compiled, resolver, relation, delta)
        else:
            apply = self._apply_batched(compiled, resolver, relation)

        def run(delta, deltas):
            if skip is not None and skip not in deltas:
                stats.rule_firings += 1
                stats.note_rule(label, 0.0, 0)
                return
            started = perf_counter()
            derived_before = stats.facts_derived
            current[0] = deltas
            apply(delta)
            stats.note_rule(
                label,
                perf_counter() - started,
                stats.facts_derived - derived_before,
            )

        return run

    def _plan_resolver(self, compiled, current):
        """The resolver of a delta pass: literal ``compiled.delta_at``
        reads ``current[0]``, the round's deltas; every other literal
        its full relation, resolved on first use and kept."""
        delta_at = compiled.delta_at
        delta_key = compiled.compiled.body[delta_at].key
        empty = EmptyRelation(*delta_key)
        fixed = {}
        full = self.full

        def resolver(index, atom):
            if index == delta_at:
                return current[0].get(delta_key) or empty
            relation = fixed.get(index)
            if relation is None:
                relation = fixed[index] = full(atom.key)
            return relation

        return resolver

    def _apply_batched(self, compiled, resolver, relation):
        """The set-at-a-time pass body: batched probes, batched writes.

        A pass that reads the head's relation inserts one batch per
        innermost probe (per match without a vectorized body) before
        the next is produced: later probes see derivations exactly as
        they would row at a time.  Any other pass cannot observe what
        it derives: it is collected eagerly and inserted once.  Rows
        have the head's width by construction (checked when the pass is
        planned), so they go in through the trusted insert, and the new
        ones into the delta without a second deduplication.
        """
        stats = self.stats
        key = relation.name, relation.arity
        body = compiled.compiled
        head = compiled.head
        reads_head = compiled.reads_head
        if reads_head:
            emit = body.emitter(compiled.head_spec)
        else:
            collect = body.collector(compiled.head_spec)

        def apply(delta):
            stats.rule_firings += 1
            args = (resolver, body.make_slots(), stats)
            if reads_head:
                batches = emit(*args) if emit is not None else (
                    (head(match),) for match in body.execute(*args)
                )
            else:
                batches = (collect(*args) if collect is not None else list(
                    map(head, body.execute(*args))
                ),)
            for batch in filter(None, batches):
                new = relation.add_trusted(batch)
                stats.facts_duplicate += len(batch) - len(new)
                if new:
                    stats.facts_derived += len(new)
                    target = delta.get(key)
                    if target is None:
                        target = delta[key] = Relation(key[0], key[1])
                    target.extend_new(new)

        return apply

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

    def _evaluate_clique(self, clique):
        delta = {}
        rounds = 0
        self._round_boundary(rounds)
        # Initial naive round over every rule of the clique.
        for rule in clique.rules:
            if rule.is_fact():
                continue
            self._rule_pass(rule)(delta, None)
        rounds += 1
        self.stats.iterations += 1
        if not clique.is_recursive() or not delta:
            return
        if self.seminaive:
            # Recursive occurrences: one pass per (rule, body index),
            # that literal restricted to the delta.  Positive atoms
            # only: a Negation wrapping a same-clique atom must never
            # become a delta-driven occurrence (stratification already
            # rejects such programs at construction time), and duck
            # typing on ``.key`` would silently misclassify literal
            # kinds.
            passes = [
                self._rule_pass(rule, index)
                for rule in clique.recursive_rules
                for index, lit in enumerate(rule.body)
                if isinstance(lit, Atom) and lit.key in clique.predicates
            ]
        else:
            passes = [self._rule_pass(rule) for rule in clique.recursive_rules]
        while delta:
            self._round_boundary(rounds)
            rounds += 1
            self.stats.iterations += 1
            new_delta = {}
            for run in passes:
                run(new_delta, delta)
            delta = new_delta


def evaluate_program(program, db, stats=None, max_iterations=None,
                     reorder=False, budget=None):
    """Evaluate ``program`` over ``db``; returns {key: Relation}."""
    engine = SemiNaiveEngine(
        program, db, stats=stats, max_iterations=max_iterations,
        reorder=reorder, budget=budget,
    )
    return engine.run()
