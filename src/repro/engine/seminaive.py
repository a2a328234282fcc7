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

    def _delta_resolver(self, deltas, delta_at):
        def resolver(index, atom):
            key = atom.key
            if index != delta_at:
                return self.full(key)
            return deltas.get(key) or EmptyRelation(key[0], key[1])

        return resolver

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

    def _apply_rule(self, rule, delta, deltas=None, occurrence=None):
        """Run one rule pass, optionally recording derivations — the
        ``delta_first`` variant when body ``occurrence`` reads ``deltas``."""
        stats = self.stats
        started = perf_counter()
        derived_before = stats.facts_derived
        compiled = self._compiled_rule(rule)
        resolver = self._full_resolver
        if occurrence is not None:
            compiled = compiled.delta_variant(occurrence)
            resolver = self._delta_resolver(deltas, compiled.delta_at)
        if self.trace is None:
            self._apply_compiled(compiled, resolver, delta)
        else:
            self._apply_traced(rule, compiled, resolver, delta)
        stats.note_rule(
            rule.label,
            perf_counter() - started,
            stats.facts_derived - derived_before,
        )

    def _apply_compiled(self, compiled, resolver, delta):
        """Set-at-a-time rule pass: batched probes, batched writes.

        A pass that reads the head's relation inserts one batch per
        innermost probe (per match without a vectorized body) before
        the next is produced: later probes see derivations exactly as
        they would row at a time.  Any other pass cannot observe what
        it derives: it is collected eagerly and inserted once.
        """
        stats = self.stats
        stats.rule_firings += 1
        key = compiled.rule.head.key
        relation = self._relation(key)
        body = compiled.compiled
        args = (resolver, body.make_slots(), stats)
        if compiled.reads_head:
            emit = body.emitter(compiled.head_spec)
            batches = emit(*args) if emit is not None else (
                (compiled.head(match),) for match in body.execute(*args)
            )
        else:
            collect = body.collector(compiled.head_spec)
            batches = (collect(*args) if collect is not None else list(
                map(compiled.head, body.execute(*args))
            ),)
        for batch in filter(None, batches):
            new = relation.add_all(batch)
            stats.facts_duplicate += len(batch) - len(new)
            if new:
                stats.facts_derived += len(new)
                (delta.get(key) or delta.setdefault(
                    key, Relation(key[0], key[1])
                )).add_all(new)

    def _apply_traced(self, rule, compiled, resolver, delta):
        """Rule pass recording the first derivation of every fact."""
        stats = self.stats
        stats.rule_firings += 1
        key = rule.head.key
        relation = self._relation(key)
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
            self._apply_rule(rule, delta)
        rounds += 1
        self.stats.iterations += 1
        if not clique.is_recursive():
            return
        # Recursive occurrences: (rule, body index) pairs to drive with
        # the delta relation.
        # Positive atoms only: a Negation wrapping a same-clique atom
        # must never become a delta-driven occurrence (stratification
        # already rejects such programs at construction time), and duck
        # typing on ``.key`` would silently misclassify literal kinds.
        occurrences = []
        for rule in clique.recursive_rules:
            for index, lit in enumerate(rule.body):
                if isinstance(lit, Atom) and lit.key in clique.predicates:
                    occurrences.append((rule, index))
        while delta:
            self._round_boundary(rounds)
            rounds += 1
            self.stats.iterations += 1
            new_delta = {}
            if self.seminaive:
                for rule, index in occurrences:
                    self._apply_rule(rule, new_delta, delta, index)
            else:
                for rule in clique.recursive_rules:
                    self._apply_rule(rule, new_delta)
            delta = new_delta


def evaluate_program(program, db, stats=None, max_iterations=None,
                     reorder=False, budget=None):
    """Evaluate ``program`` over ``db``; returns {key: Relation}."""
    engine = SemiNaiveEngine(
        program, db, stats=stats, max_iterations=max_iterations,
        reorder=reorder, budget=budget,
    )
    return engine.run()
