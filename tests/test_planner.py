"""Join-order planner tests."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import Database, parse_program
from repro.datalog import format_rule
from repro.datalog.atoms import Atom
from repro.datalog.safety import check_rule_safety
from repro.engine import EvalStats, evaluate_program
from repro.engine.join import evaluate_rule
from repro.engine.planner import (
    delta_first,
    delta_position,
    reorder_body,
    reorder_program_rules,
)
from repro.errors import SafetyError


def rule_of(text):
    return parse_program(text).rules[0]


class TestReorderBody:
    def test_constant_atom_first(self):
        rule = rule_of("ans(X) :- big(Y, Z), sel(a, Y), pick(Z, X).")
        ordered = reorder_body(rule)
        preds = [a.pred for a in ordered.body_atoms()]
        assert preds[0] == "sel"
        # big becomes joinable through Y after sel.
        assert preds == ["sel", "big", "pick"]

    def test_comparison_placed_when_ready(self):
        rule = rule_of("p(X) :- q(X), r(X, Y), Y > 3.")
        ordered = reorder_body(rule)
        # Y > 3 must come after r (which binds Y), not at the end by
        # accident of the original order — here it already is; check a
        # shuffled variant:
        rule2 = rule_of("p(X) :- Y > 3, q(X), r(X, Y).")
        ordered2 = reorder_body(rule2)
        kinds = [type(lit).__name__ for lit in ordered2.body]
        assert kinds[-1] == "Comparison" or kinds[1] == "Comparison"
        # and the comparison never precedes r's binding of Y:
        names = [getattr(lit, "pred", "CMP") for lit in ordered2.body]
        assert names.index("CMP") > names.index("r")

    def test_negation_after_bindings(self):
        rule = rule_of("p(X) :- not bad(X), q(X).")
        ordered = reorder_body(rule)
        assert ordered.body_atoms()[0].pred == "q"

    def test_is_placed_after_right_side_bound(self):
        rule = rule_of("p(X, J) :- J is I + 1, q(X, I).")
        ordered = reorder_body(rule)
        names = [getattr(lit, "pred", "IS") for lit in ordered.body]
        assert names.index("IS") > names.index("q")

    def test_semantics_preserved(self):
        program = parse_program(
            "ans(X) :- big(Y, Z), sel(a, Y), pick(Z, X)."
        )
        db = Database.from_text("""
            big(1, 10). big(2, 20). big(3, 30).
            sel(a, 2). pick(20, win). pick(30, lose).
        """)
        plain = evaluate_program(program, db)
        planned = evaluate_program(program, db, reorder=True)
        assert plain[("ans", 1)].tuples == planned[("ans", 1)].tuples

    def test_unsafe_rule_kept_in_order(self):
        rule = rule_of("p(X) :- X > 3, q(X).")
        # Planner defers the comparison; if the rule were truly
        # unsafe (nothing can bind), original order is kept.
        from repro.datalog.atoms import Comparison
        from repro.datalog.rules import Rule
        from repro.datalog.terms import Constant, Variable

        unsafe = Rule(
            rule.head,
            (Comparison(">", Variable("Z"), Constant(1)),),
        )
        ordered = reorder_body(unsafe)
        assert ordered.body == unsafe.body

    def test_labels_preserved(self):
        rule = rule_of("p(X) :- q(X).").with_label("mine")
        assert reorder_body(rule).label == "mine"

    def test_reorder_program_rules(self):
        program = parse_program("""
            p(X) :- big(Y), sel(a, X), link(X, Y).
            q(X) :- p(X).
        """)
        rules = reorder_program_rules(program.rules)
        assert len(rules) == 2
        assert rules[0].body_atoms()[0].pred == "sel"


class TestWorkReduction:
    def test_reorder_reduces_work(self):
        program = parse_program(
            "ans(X) :- big(Y, Z), sel(a, Y), pick(Z, X)."
        )
        db = Database()
        for i in range(200):
            db.add_fact("big", i, i * 10)
        db.add_fact("sel", "a", 3)
        db.add_fact("pick", 30, "win")
        plain_stats = EvalStats()
        evaluate_program(program, db, stats=plain_stats)
        planned_stats = EvalStats()
        evaluate_program(program, db, stats=planned_stats, reorder=True)
        assert planned_stats.tuples_scanned < plain_stats.tuples_scanned
        assert planned_stats.tuples_scanned <= 5

    def test_recursive_program_unaffected_semantically(self):
        program = parse_program("""
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- arc(Z, Y), tc(X, Z).
        """)
        db = Database.from_text("arc(a, b). arc(b, c). arc(c, d).")
        plain = evaluate_program(program, db)
        planned = evaluate_program(program, db, reorder=True)
        assert plain[("tc", 2)].tuples == planned[("tc", 2)].tuples


# -- delta-first variants ----------------------------------------------

#: Literal pool of the property below: flat joins, a repeated variable,
#: a constant, the list patterns of the extended counting rewriting,
#: binding and testing comparisons, negation.
POOL = (
    "e(X, Y)", "e(Y, Z)", "f(Z, W)", "e(X, X)", "e(n0, Y)", "g(Y)",
    "c(X, [(r1, C) | L])", "c(Y, L)", "c(Z, [H | T])",
    "X != Y", "C > 0", "N is C + 1", "H in L", "W = Z",
    "not g(X)", "not e(Y, X)",
)
HEAD_VARS = ("X", "Y", "Z", "W", "C", "L", "N", "H")

nodes = st.sampled_from(["n0", "n1", "n2", "n3"])
paths = st.lists(
    st.tuples(st.sampled_from(["r1", "r2"]), st.integers(0, 2)),
    max_size=3,
).map(tuple)


@st.composite
def rules(draw):
    body = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=5,
                         unique=True))
    head = draw(st.lists(st.sampled_from(HEAD_VARS), min_size=1,
                         max_size=3))
    rule = rule_of("h(%s) :- %s." % (", ".join(head), ", ".join(body)))
    try:
        check_rule_safety(rule)
    except SafetyError:
        assume(False)
    return rule


@st.composite
def databases(draw):
    db = Database()
    for x, y in draw(st.lists(st.tuples(nodes, nodes), max_size=8)):
        db.add_fact("e", x, y)
        db.add_fact("f", y, x)
    for x in draw(st.lists(nodes, max_size=3)):
        db.add_fact("g", x)
    for x, path in draw(st.lists(st.tuples(nodes, paths), max_size=6)):
        db.add_fact("c", x, path)
    return db


class TestDeltaFirst:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(rules(), databases())
    def test_a_safe_permutation_with_the_same_matches(self, rule, db):
        def resolver(_index, atom):
            return db.get(atom.key)

        written = sorted(evaluate_rule(rule, resolver), key=repr)
        for index, lit in enumerate(rule.body):
            if not isinstance(lit, Atom):
                continue
            variant = delta_first(rule, index)
            assert delta_position(rule, index) == 0
            assert variant.body[0] is lit
            assert sorted(map(id, variant.body)) == sorted(
                map(id, rule.body)
            )
            assert (variant.head, variant.label) == (rule.head,
                                                     rule.label)
            check_rule_safety(variant)
            assert sorted(
                evaluate_rule(variant, resolver), key=repr
            ) == written

    def test_bound_first_after_the_delta(self):
        rule = rule_of("sup(X, Y) :- m(X), up(X, X1), reach(X1, Y).")
        variant = delta_first(rule, 2)
        assert [a.pred for a in variant.body_atoms()] == [
            "reach", "up", "m",
        ]

    def test_evaluated_argument_keeps_the_written_order(self):
        # ``N + 1`` is a probe key only once q has bound N: moved in
        # front of q it would match nothing.
        rule = rule_of("p(X, N) :- q(N), p(X, N + 1).")
        assert delta_first(rule, 1) is rule
        assert delta_position(rule, 1) == 1
        program = parse_program(
            "p(X, 5) :- s(X). p(X, N) :- q(N), p(X, N + 1)."
        )
        db = Database.from_text("s(a). q(0). q(1). q(2). q(3). q(4).")
        derived = evaluate_program(program, db)
        assert derived[("p", 2)].tuples == {("a", n) for n in range(6)}
