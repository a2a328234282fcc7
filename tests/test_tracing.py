"""Derivation tracing tests."""

import pytest

from repro import Database, parse_program, parse_query
from repro.data import WORKLOADS
from repro.datalog.atoms import Atom
from repro.engine import EvalStats, SemiNaiveEngine
from repro.engine.join import evaluate_rule
from repro.engine.relation import Relation
from repro.engine.tracing import DerivationTrace
from repro.exec.strategies import prepare


def run_traced(program_text, db_text):
    program = parse_program(program_text)
    db = Database.from_text(db_text)
    trace = DerivationTrace()
    engine = SemiNaiveEngine(program, db, trace=trace)
    derived = engine.run()
    return derived, trace


class TestRecording:
    def test_records_first_derivation(self):
        derived, trace = run_traced(
            """
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), arc(Z, Y).
            """,
            "arc(a, b). arc(b, c).",
        )
        derivation = trace.derivation_of(("tc", 2), ("a", "c"))
        assert derivation is not None
        premise_keys = {key for key, _v in derivation.premises}
        assert premise_keys == {("tc", 2), ("arc", 2)}

    def test_base_facts_not_recorded(self):
        _derived, trace = run_traced(
            "p(X) :- q(X).", "q(a)."
        )
        assert trace.derivation_of(("q", 1), ("a",)) is None
        assert len(trace) == 1

    def test_first_derivation_kept(self):
        # Two rules can derive p(a); only one derivation is stored.
        _derived, trace = run_traced(
            """
            p(X) :- r1(X).
            p(X) :- r2(X).
            """,
            "r1(a). r2(a).",
        )
        derivation = trace.derivation_of(("p", 1), ("a",))
        assert derivation.rule_label in ("r0", "r1")
        assert len(trace) == 1


class TestExplain:
    def test_tree_reaches_base_facts(self):
        _derived, trace = run_traced(
            """
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), arc(Z, Y).
            """,
            "arc(a, b). arc(b, c). arc(c, d).",
        )
        tree = trace.explain(("tc", 2), ("a", "d"))
        assert not tree.is_base()
        leaves = []

        def collect(node):
            if node.is_base():
                leaves.append((node.key, node.values))
            for child in node.children:
                collect(child)

        collect(tree)
        assert (("arc", 2), ("a", "b")) in leaves
        assert (("arc", 2), ("c", "d")) in leaves
        assert tree.size() >= 5

    def test_render_is_readable(self):
        _derived, trace = run_traced(
            """
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), arc(Z, Y).
            """,
            "arc(a, b). arc(b, c).",
        )
        text = trace.explain(("tc", 2), ("a", "c")).render()
        assert "tc(a, c)" in text
        assert "[r1]" in text
        assert "arc(a, b)" in text

    def test_explains_counting_answers(self, sg_query, sg_db):
        from repro.rewriting import extended_counting_rewrite

        rewriting = extended_counting_rewrite(sg_query)
        trace = DerivationTrace()
        engine = SemiNaiveEngine(
            rewriting.query.program, sg_db, trace=trace
        )
        engine.run()
        tree = trace.explain(("sg__bf", 2), ("e1", ()))
        text = tree.render()
        # The explanation threads through the counting predicate.
        assert "c_sg__bf" in text

    def test_unknown_fact_is_leaf(self):
        trace = DerivationTrace()
        node = trace.explain(("nope", 1), ("x",))
        assert node.is_base()
        assert node.size() == 1

    def test_max_depth_guard(self):
        trace = DerivationTrace()
        # Artificial self-supporting record (cannot arise from the
        # engine, which only records first derivations).
        trace.record(("p", 1), ("a",), "r0", ((("p", 1), ("a",)),))
        tree = trace.explain(("p", 1), ("a",), max_depth=5)
        assert tree.size() <= 7


REWRITINGS = (
    "naive", "magic", "sup_magic", "classical_counting",
    "encoded_counting", "extended_counting", "reduced_counting",
)


def _matrix():
    for name, workload in sorted(WORKLOADS.items()):
        for method in REWRITINGS:
            if method in workload.applicable:
                yield name, method


class TestTracedRunIsTheUntracedRun:
    """Tracing observes the evaluation, it must not be another one:
    a traced pass runs the same delta-first variant as the untraced
    pass, and reports its premises in the order the rule was written."""

    @pytest.mark.parametrize("name,method", list(_matrix()))
    def test_same_counters_and_written_order_premises(self, name, method):
        workload = WORKLOADS[name]
        program = prepare(method, workload.query).program
        db, _source = workload.make_db()
        plain = EvalStats()
        SemiNaiveEngine(program, db, stats=plain).run()
        traced = EvalStats()
        trace = DerivationTrace()
        engine = SemiNaiveEngine(program, db, stats=traced, trace=trace)
        derived = engine.run()
        assert traced.as_dict() == plain.as_dict()

        facts = {(key, values) for key, values in program.facts()}
        checked = 0
        for key, relation in derived.items():
            rules = [r for r in program.rules if r.head.key == key]
            for row in relation:
                derivation = trace.derivation_of(key, row)
                if derivation is None:
                    assert (key, row) in facts
                    continue
                assert any(
                    rule.label == derivation.rule_label
                    and self.rederives(rule, derivation.premises, row,
                                       engine)
                    for rule in rules
                ), (key, row, derivation)
                checked += 1
        assert checked == len(trace) > 0

    @staticmethod
    def rederives(rule, premises, row, engine):
        """True if ``premises`` are, atom by atom in written order,
        facts of the run under which ``rule`` derives ``row``."""
        atoms = rule.body_atoms()
        if tuple(key for key, _v in premises) != tuple(
            atom.key for atom in atoms
        ):
            return False
        singles = {}
        ordinal = 0
        for index, lit in enumerate(rule.body):
            if isinstance(lit, Atom):
                key, values = premises[ordinal]
                ordinal += 1
                if values not in engine.relation(key):
                    return False
                singles[index] = Relation(key[0], key[1])
                singles[index].add(values)

        def resolver(index, atom):
            single = singles.get(index)
            return engine.relation(atom.key) if single is None else single

        return row in set(evaluate_rule(rule, resolver))
