"""The set-at-a-time compiled join path: parity with the reference
tuple-at-a-time evaluator, batched relation lookups, and constant
interning.

The compiled engine's contract is strict: it must enumerate the same
results in the same order as the stack evaluator in
:mod:`repro.engine.join`, update the paper's work counters identically
and raise the same typed errors when an unsafe literal is reached — so
most tests here are differential.
"""

import pytest

from repro import Database, parse_program
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.rules import Program, Rule
from repro.datalog.safety import check_rule_safety
from repro.datalog.terms import Compound, Constant, Variable
from repro.engine import DerivationTrace, EvalStats, SemiNaiveEngine
from repro.engine.compile import BoundQuery, CompiledRule, compile_body
from repro.engine.fixpoint import index_goal
from repro.engine.interning import InternPool
from repro.engine.join import evaluate_body, evaluate_rule, ground_head
from repro.engine.planner import delta_first, delta_position
from repro.engine.relation import WILDCARD, EmptyRelation, Relation
from repro.engine.seminaive import evaluate_program
from repro.errors import EvaluationError, SafetyError
from repro.exec.strategies import run_strategy


WORK_KEYS = (
    "rule_firings", "tuples_scanned", "facts_derived",
    "facts_duplicate", "iterations",
)


def work_counters(stats):
    d = stats.as_dict()
    return {k: d[k] for k in WORK_KEYS}


class ReferenceEngine(SemiNaiveEngine):
    """The semi-naive fixpoint with every rule pass driven through the
    tuple-at-a-time reference evaluator instead of generated code:
    each derivation enters the relation before the next is computed,
    so equal work counters prove the generated clique loop's
    pass-level drain changes nothing a probe can see.  Rounds run pass
    by pass, nothing is planned and no pass is skipped: an occurrence
    reading an empty delta runs.  Each pass is noted in the per-rule
    profile (no time), so its ``calls`` / ``derived`` compare too."""

    def _evaluate_clique(self, clique):
        self._evaluate_passes(clique)

    def _rule_pass(self, rule, occurrence, delta, deltas):
        stats = self.stats
        derived = stats.facts_derived
        self._reference_pass(rule, occurrence, delta, deltas)
        stats.note_rule(rule.label, 0.0, stats.facts_derived - derived)

    def _reference_pass(self, rule, occurrence, delta, deltas):
        stats = self.stats
        key = rule.head.key
        relation = self._relation(key)
        resolver = self._full_resolver
        if occurrence is not None:
            delta_at = delta_position(rule, occurrence)

            def resolver(index, atom):
                if index != delta_at:
                    return self.full(atom.key)
                return deltas.get(atom.key) or EmptyRelation(*atom.key)

            rule = delta_first(rule, occurrence)
        for row in evaluate_rule(rule, resolver, stats):
            if relation.add(row):
                stats.facts_derived += 1
                delta.setdefault(key, Relation(key[0], key[1])).add(row)
            else:
                stats.facts_duplicate += 1


def run_reference(program, db):
    """Evaluate via the reference path only, returning (derived, stats)."""
    stats = EvalStats()
    return ReferenceEngine(program, db, stats=stats).run(), stats


def run_compiled(program, db):
    stats = EvalStats()
    derived = evaluate_program(program, db, stats=stats)
    return derived, stats


def assert_differential(text, facts):
    program = parse_program(text)
    db_a = Database.from_text(facts)
    db_b = Database.from_text(facts)
    compiled, cstats = run_compiled(program, db_a)
    reference, rstats = run_reference(program, db_b)
    assert {k: set(rel) for k, rel in compiled.items()} == {
        k: set(rel) for k, rel in reference.items()
    }
    assert work_counters(cstats) == work_counters(rstats)
    return compiled, cstats


def db_resolver(db):
    def resolver(_index, atom):
        return db.get(atom.key)

    return resolver


def assert_same_enumeration(rule, db):
    """Order matters downstream (counting-table discovery order): the
    generated runner against the reference stack discipline on one
    body.  Returns the rows."""
    resolver = db_resolver(db)
    compiled = CompiledRule(rule)
    body = compiled.compiled
    got = [
        compiled.head(slots)
        for slots in body.execute(resolver, body.make_slots())
    ]
    assert got == [
        ground_head(rule.head, subst)
        for subst in evaluate_body(rule.body, resolver, {})
    ]
    return got


class TestCompiledVsLegacy:
    def test_flat_join(self):
        assert_differential(
            "path(X, Y) :- edge(X, Y). "
            "path(X, Y) :- edge(X, Z), path(Z, Y).",
            "edge(a, b). edge(b, c). edge(c, d). edge(a, c).",
        )

    def test_repeated_variable(self):
        assert_differential(
            "loop(X) :- edge(X, X). refl(X, X) :- node(X).",
            "edge(a, a). edge(a, b). edge(c, c). node(a). node(b).",
        )

    def test_constants_and_comparisons(self):
        assert_differential(
            "big(X) :- val(X, N), N > 2. "
            "next(X, M) :- val(X, N), M is N + 1. "
            "special(X) :- val(X, 3).",
            "val(a, 1). val(b, 3). val(c, 5).",
        )

    def test_negation(self):
        assert_differential(
            "orphan(X) :- node(X), not parent(X). "
            "parent(X) :- edge(X, Y).",
            "node(a). node(b). node(c). edge(a, b).",
        )

    def test_structured_list_terms(self):
        # The extended-counting shape: path arguments as cons cells.
        assert_differential(
            "p(X, [X]) :- seed(X). "
            "p(Y, [Y | L]) :- p(X, L), edge(X, Y). "
            "first(H) :- p(x3, [H | T]).",
            "seed(x0). edge(x0, x1). edge(x1, x2). edge(x2, x3).",
        )

    def test_counting_strategies_match_naive(self, sg_query, sg_db):
        baseline = run_strategy("naive", sg_query, sg_db)
        for method in ("extended_counting", "pointer_counting",
                       "magic_counting"):
            result = run_strategy(method, sg_query, sg_db)
            assert result.answers == baseline.answers

    def test_enumeration_order_identical(self):
        program = parse_program(
            "q(X, Z) :- e(X, Y), e(Y, Z)."
        )
        db = Database.from_text(
            "e(a, b). e(b, c). e(a, c). e(c, d). e(b, d)."
        )
        assert len(assert_same_enumeration(program.rules[0], db)) == 4


def chain_program(length, extra_at=None, extra=""):
    """``p(X0, Xn) :- e(X0, X1), ..., e(Xn-1, Xn).`` with the ``extra``
    literals (over ``X<extra_at>``) spliced in before that body atom."""
    literals = ["e(X%d, X%d)" % (i, i + 1) for i in range(length)]
    if extra_at is not None:
        literals.insert(extra_at, extra % {"i": extra_at})
    return parse_program(
        "p(X0, X%d) :- %s." % (length, ", ".join(literals))
    )


class TestDeepBodies:
    """A body may nest more loops than one CPython code object can
    (20 blocks): it still runs through generated code, with the
    reference's answers, enumeration order and counters."""

    FACTS = "e(a, b). e(a, c). e(b, c). e(c, a). f(b)."

    def assert_same_as_reference(self, program):
        db = Database.from_text(self.FACTS)
        assert len(assert_same_enumeration(program.rules[0], db)) > 100
        derived, stats = run_compiled(program, db)
        reference, ref_stats = run_reference(program, db)
        assert set(derived[("p", 2)]) == set(reference[("p", 2)])
        ours, theirs = stats.as_dict(), ref_stats.as_dict()
        for key in WORK_KEYS + ("index_probes",):
            assert ours[key] == theirs[key], key
        # Batches are the compiled path's own attribution of the rows
        # the reference counts one at a time.
        assert ours["batch_rows"] == theirs["tuples_scanned"]

    def test_chain_of_24_atoms(self):
        self.assert_same_as_reference(chain_program(24))

    def test_comparison_and_negation_past_position_20(self):
        # Every splice point from below the nesting budget to the end
        # of the body, so the filters land before, at and after the
        # place where the generated code continues in a tail runner.
        for position in range(12, 25):
            self.assert_same_as_reference(chain_program(
                24, position, "X%(i)d != b, not f(X%(i)d)"
            ))


#: Bodies outside what ``datalog/safety.py`` accepts: each has one
#: literal the evaluator can only reject once it is reached.
UNSAFE_RULES = {
    "unbound_head_variable": "p(X, Y) :- q(X).",
    "non_ground_negation": "p(X) :- q(X), not r(Y).",
    "ordering_on_unbound": "p(X) :- q(X), Y < 3.",
    "is_non_ground_right": "p(X) :- q(X), Z is Y + 1.",
    "in_non_ground_right": "p(X) :- q(X), X in S.",
}


class TestCompiledFragment:
    """The compiled fragment is the whole language: an unsafe literal
    raises the reference evaluator's typed error when — and only when —
    it is reached."""

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["plain", "traced"])
    @pytest.mark.parametrize("shape", sorted(UNSAFE_RULES))
    def test_reference_error_only_when_reached(self, shape, traced):
        program = parse_program(UNSAFE_RULES[shape])

        def run(db):
            trace = DerivationTrace() if traced else None
            return SemiNaiveEngine(program, db, trace=trace).run()

        assert not any(len(rel) for rel in run(Database()).values())
        with pytest.raises(EvaluationError) as expected:
            run_reference(program, Database.from_text("q(a)."))
        with pytest.raises(EvaluationError) as raised:
            run(Database.from_text("q(a)."))
        assert str(raised.value) == str(expected.value)

    def test_bound_query_raises_when_reached(self):
        body = parse_program("p(X) :- q(X), Y < 3.").rules[0].body
        full = db_resolver(Database.from_text("q(a)."))
        empty = db_resolver(Database())
        query = BoundQuery(body, (), ("X",))
        assert list(query.run(empty, ())) == []
        with pytest.raises(EvaluationError, match="on non-ground terms"):
            list(query.run(full, ()))
        # An out name the body never binds (``q(X)`` alone).
        query = BoundQuery(body[:1], (), ("X", "Y"))
        assert list(query.run(empty, ())) == []
        with pytest.raises(ValueError, match="variable Y not bound"):
            list(query.run(full, ()))

    def test_equality_of_two_free_variables_raises(self):
        # The one documented difference from the reference, which
        # answers this rule by aliasing X to Y in its substitution.
        program = parse_program("p(X) :- r(Z), X = Y, q(Y).")
        message = r"'=' cannot bind variables \['X', 'Y'\]"
        with pytest.raises(SafetyError, match=message):
            check_rule_safety(program.rules[0])
        db = Database.from_text("q(a).")
        assert len(run_compiled(program, db)[0][("p", 1)]) == 0
        db.add_fact("r", "z")
        assert set(run_reference(program, db)[0][("p", 1)]) == {("a",)}
        with pytest.raises(EvaluationError, match=message):
            run_compiled(program, db)

    def test_supported_body_binds_all(self):
        program = parse_program("p(X, Y) :- e(X, Y), Y != X.")
        compiled = compile_body(program.rules[0].body)
        assert compiled.bound_after == {"X", "Y"}


class TestBoundQuery:
    def test_projection(self):
        program = parse_program("q(X) :- e(X, Y), f(Y, Z).")
        body = program.rules[0].body
        resolver = db_resolver(Database.from_text(
            "e(a, b). e(a, c). f(b, n1). f(c, n2)."
        ))
        query = BoundQuery(body, ("X",), ("Y", "Z"))
        got = set(query.run(resolver, ("a",)))
        assert got == {("b", "n1"), ("c", "n2")}

    def test_compiled_matches_legacy_order_and_stats(self):
        program = parse_program("q(X) :- e(X, Y), f(Y, Z).")
        body = program.rules[0].body
        resolver = db_resolver(Database.from_text(
            "e(a, b). e(a, c). f(b, n1). f(c, n2). f(b, n3)."
        ))
        query = BoundQuery(body, ("X",), ("Y", "Z"))
        fast_stats = EvalStats()
        fast = list(query.run(resolver, ("a",), fast_stats))
        slow_stats = EvalStats()
        slow = [
            (subst["Y"].value, subst["Z"].value)
            for subst in evaluate_body(
                body, resolver, {"X": Constant("a")}, slow_stats
            )
        ]
        assert fast == slow
        assert fast_stats.tuples_scanned == slow_stats.tuples_scanned

    def test_duplicate_in_names_later_wins(self):
        program = parse_program("q(X) :- e(X, Y).")
        body = program.rules[0].body
        resolver = db_resolver(Database.from_text("e(a, b). e(z, w)."))
        query = BoundQuery(body, ("X", "X"), ("Y",))
        assert set(query.run(resolver, ("z", "a"))) == {("b",)}


class TestRelationLookup:
    def make(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        rel.add(("x", "y"))
        return rel

    def test_scalar_key_single_position(self):
        rel = self.make()
        assert sorted(rel.lookup((0,), "a")) == [("a", "b"), ("a", "c")]
        assert list(rel.lookup((1,), "y")) == [("x", "y")]
        assert list(rel.lookup((0,), "zzz")) == []

    def test_tuple_key_multi_position(self):
        rel = self.make()
        assert list(rel.lookup((0, 1), ("a", "c"))) == [("a", "c")]
        assert list(rel.lookup((0, 1), ("a", "zzz"))) == []

    def test_full_scan(self):
        rel = self.make()
        assert sorted(rel.lookup((), None)) == sorted(rel.tuples)

    def test_without_indexes_filters(self):
        rel = self.make()
        rel.use_indexes = False
        assert sorted(rel.lookup((0,), "a")) == [("a", "b"), ("a", "c")]
        assert rel._indexes == {}

    def test_stats_counters(self):
        rel = self.make()
        stats = EvalStats()
        rel.lookup((0,), "a", stats)
        assert stats.index_builds == 1
        assert stats.index_probes == 1
        rel.lookup((0,), "x", stats)
        assert stats.index_builds == 1
        assert stats.index_probes == 2

    def test_index_maintained_after_add(self):
        rel = self.make()
        rel.lookup((0,), "a")
        rel.add(("a", "zz"))
        assert sorted(rel.lookup((0,), "a")) == [
            ("a", "b"), ("a", "c"), ("a", "zz")
        ]

    def test_ensure_index_prebuilds(self):
        rel = Relation("p", 2)
        rel.ensure_index((0,))
        assert (0,) in rel._indexes
        rel.add(("a", "b"))
        stats = EvalStats()
        assert list(rel.lookup((0,), "a", stats)) == [("a", "b")]
        assert stats.index_builds == 0

    def test_empty_relation_lookup(self):
        empty = EmptyRelation("p", 2)
        assert list(empty.lookup((0,), "a")) == []

    def test_select_scans_without_an_index(self):
        # A goal selection on a relation read once builds nothing.
        rel = self.make()
        assert sorted(rel.select((0,), "a")) == [("a", "b"), ("a", "c")]
        assert rel._indexes == {}

    def test_index_goal_keeps_the_goals_index(self):
        rel = self.make()
        index_goal(Atom("p", (Constant("a"), Variable("Y"))), rel)
        assert (0,) in rel._indexes
        assert sorted(rel.select((0,), "a")) == [("a", "b"), ("a", "c")]
        assert list(rel.select((0,), "x")) == [("x", "y")]

    def test_index_goal_never_indexes_a_database_relation(self):
        db = Database.from_text("p(a, b). p(a, c). p(x, y).")
        rel = db.get(("p", 2))
        index_goal(Atom("p", (Constant("a"), Variable("Y"))), rel)
        assert sorted(rel.select((0,), "a")) == [("a", "b"), ("a", "c")]
        assert rel._indexes == {}


class TestRelationCopy:
    def test_copy_carries_indexes(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        list(rel.match(("a", WILDCARD)))  # build an index
        clone = rel.copy()
        assert clone._indexes.keys() == rel._indexes.keys()

    def test_copy_answers_match_after_divergent_adds(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        list(rel.match(("a", WILDCARD)))
        clone = rel.copy()
        rel.add(("a", "orig-only"))
        clone.add(("a", "clone-only"))
        assert sorted(rel.match(("a", WILDCARD))) == [
            ("a", "b"), ("a", "orig-only")
        ]
        assert sorted(clone.match(("a", WILDCARD))) == [
            ("a", "b"), ("a", "clone-only")
        ]


@pytest.mark.parametrize("make_relation", [
    lambda: Relation("p", 2),
    lambda: EmptyRelation("p", 2),
], ids=["Relation", "EmptyRelation"])
class TestMatchArityParity:
    """Both relation classes reject patterns of the wrong arity."""

    def test_wrong_arity_raises(self, make_relation):
        rel = make_relation()
        with pytest.raises(ValueError):
            list(rel.match(("a",)))
        with pytest.raises(ValueError):
            list(rel.match(("a", "b", "c")))

    def test_right_arity_accepted(self, make_relation):
        rel = make_relation()
        assert list(rel.match((WILDCARD, WILDCARD))) == []


class TestInterning:
    def test_equal_rows_share_instances(self):
        db = Database()
        db.add_fact("e", "node-1", "node-2")
        db.add_fact("f", "node-1", ("node-2", "node-1"))
        (row_e,) = db.get(("e", 2))
        (row_f,) = db.get(("f", 2))
        assert row_e[0] is row_f[0]
        assert row_f[1][0] is row_e[1]

    def test_equal_but_distinct_types_kept_apart(self):
        pool = InternPool()
        assert pool.intern(1) == pool.intern(True)
        assert pool.intern(1) is not pool.intern(True)
        assert type(pool.intern(1.0)) is float

    def test_ids_stable_and_append_only(self):
        pool = InternPool()
        first = pool.ident("a")
        second = pool.ident("b")
        assert first != second
        assert pool.ident("a") == first
        assert len(pool) == 2

    def test_copy_shares_pool(self):
        db = Database.from_text("e(a, b).")
        ident = db.intern_pool.ident("a")
        clone = db.copy()
        assert clone.intern_pool is db.intern_pool
        assert clone.intern_pool.ident("a") == ident

    def test_rendered_output_unchanged(self):
        text = 'e(a, b).\ne(a, c).\nv(1, x).'
        db = Database.from_text(text)
        assert db.to_text() == text


class TestProfile:
    def test_rule_profile_collected(self, sg_query, sg_db):
        stats = EvalStats()
        engine = SemiNaiveEngine(sg_query.program, sg_db, stats=stats)
        engine.run()
        assert stats.rule_profile
        table = stats.profile_table()
        labels = [entry[0] for entry in table]
        assert set(labels) == set(stats.rule_profile)
        for _label, seconds, calls, derived in table:
            assert seconds >= 0.0
            assert calls >= 1
            assert derived >= 0
        assert stats.batch_rows > 0
        assert stats.index_probes > 0


# -- trailing arithmetic: the batched form past the last scan ----------


def outcome(engine, program, facts):
    """``(answer or error, work counters)`` of one evaluation."""
    stats = EvalStats()
    try:
        derived = engine(program, Database.from_facts(facts),
                         stats=stats).run()
    except Exception as exc:  # noqa: BLE001 — compared, not handled
        return (type(exc).__name__, str(exc)), stats
    return {
        key: sorted(rel, key=repr) for key, rel in derived.items() if len(rel)
    }, stats


def floor_division(text):
    """Parse ``text`` reading every ``*`` as ``//``, which the parser
    does not have."""
    def term(node):
        if not isinstance(node, Compound):
            return node
        functor = "//" if node.functor == "*" else node.functor
        return Compound(functor, tuple(term(arg) for arg in node.args))

    def literal(lit):
        if not isinstance(lit, Comparison):
            return lit
        return Comparison(lit.op, term(lit.left), term(lit.right))

    return tuple(
        Rule(rule.head, tuple(literal(lit) for lit in rule.body))
        for rule in parse_program(text).rules
    )


def closure_outcome(program, facts):
    """:func:`outcome` with no inline expression compiled: every ``is``
    / comparison runs its closure, and a body ending in one has no
    batched form — the executor as it was before expressions were
    rendered as source."""
    from repro.engine import compile as compile_module

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compile_module, "_inline", lambda *args: None)
        patch.setattr(compile_module, "_COMPILED_RULE_CACHE", {})
        return outcome(SemiNaiveEngine, program, facts)


def assert_trailing_parity(text, facts):
    """Answers or error equal to the reference engine's and to the
    closures'; every counter equal to the closures', and the work
    counters to the reference's when nothing raised (a batch that
    raises is not inserted, while the reference has inserted the rows
    before the failing one)."""
    program = parse_program(text) if isinstance(text, str) else text
    got, stats = outcome(SemiNaiveEngine, program, facts)
    expected, reference = outcome(ReferenceEngine, program, facts)
    closures, before = closure_outcome(program, facts)
    assert got == expected == closures
    assert stats.as_dict() == before.as_dict()
    if isinstance(got, dict):
        assert work_counters(stats) == work_counters(reference)
    return got, stats


COUNTING_ANSWER = """
    c(n0, 0).
    c(X1, J) :- c(X, I), up(X, X1), J is I + 1.
    a(Y, I) :- c(X, I), flat(X, Y).
    a(Y, I) :- a(Y1, J), down(Y1, Y), I is J - 1, I >= 0.
"""


class TestTrailingArithmetic:
    """A body whose last scan is followed by ``is`` / comparisons runs
    batched, with integer arithmetic rendered as source and the closure
    as the fallback — observably the reference evaluator."""

    CHAIN = [
        ("up", ("n%d" % i, "n%d" % (i + 1))) for i in range(6)
    ] + [("flat", ("n%d" % i, "m%d" % i)) for i in range(7)] + [
        ("down", ("m%d" % (i + 1), "m%d" % i)) for i in range(6)
    ]

    def test_is_then_ordering_counting_answer_rule(self):
        answer = parse_program(
            "a(Y, I) :- a(Y1, J), down(Y1, Y), I is J - 1, I >= 0."
        ).rules[0]
        compiled = CompiledRule(answer)
        assert compiled.compiled.steps[-1][0] == "filter"
        assert compiled.compiled.collector(compiled.head_spec) is not None
        got, _stats = assert_trailing_parity(COUNTING_ANSWER, self.CHAIN)
        assert ("m0", 0) in got[("a", 2)]

    def test_classical_rewriting_of_sg(self, sg_query, sg_db):
        from repro.rewriting.counting import classical_counting_rewrite

        program = classical_counting_rewrite(sg_query).query.program
        facts = [(key[0], row) for key in sg_db.keys()
                 for row in sg_db.get(key)]
        assert_trailing_parity(program, facts)

    def test_encoded_rule_big_integers_and_floor_division(self):
        program = Program(parse_program(
            "e(n0, %d). e(X1, K) :- e(X, I), up(X, X1), K is I * 4 + 1."
            % 2 ** 70
        ).rules + floor_division(
            "d(X, J) :- e(X, K), K > 1, J is K * 2, J * 3 >= 0."
        ))
        facts = [("up", ("n%d" % i, "n%d" % (i + 1))) for i in range(8)]
        got, _stats = assert_trailing_parity(program, facts)
        assert max(row[1] for row in got[("d", 2)]) > 2 ** 63

    @pytest.mark.parametrize("value", [1.5, True, -2.0],
                             ids=["float", "bool", "negative-float"])
    def test_float_and_bool_operands_take_the_fallback(self, value):
        program = Program(parse_program(
            "p(X, J) :- v(X, I), J is I + 1, J > 0."
        ).rules + floor_division("q(X, J) :- v(X, I), J is I * 1, J >= 0."))
        facts = [("v", ("a", value)), ("v", ("b", 2))]
        got, _stats = assert_trailing_parity(program, facts)
        assert ("a", value + 1) in got.get(("p", 2), []) or value + 1 <= 0

    def test_non_numeric_operand_raises_the_same_error(self):
        text = "p(X, J) :- v(X, I), J is I + 1."
        facts = [("v", ("a", 1)), ("v", ("b", "x"))]
        got, _stats = assert_trailing_parity(text, facts)
        assert got == ("EvaluationError",
                       "arithmetic on non-numeric value 'x'")

    def test_ordering_across_types_raises_the_same_error(self):
        got, _stats = assert_trailing_parity(
            "p(X) :- v(X, I), I < 3.", [("v", ("a", 1)), ("v", ("b", "x"))]
        )
        assert got[0] == "EvaluationError"

    def test_floor_division_by_zero(self):
        program = Program(floor_division("p(X, J) :- v(X, I), J is 6 * I."))
        got, _stats = assert_trailing_parity(
            program, [("v", ("a", 2)), ("v", ("b", 0))]
        )
        assert got == ("ZeroDivisionError",
                       "integer division or modulo by zero")

    def test_head_reading_rule_sees_each_batch(self):
        # The initial round reads ``p`` in full after ``e``: each probe
        # of ``p`` must see what every earlier e-row's batch derived.
        text = """
            p(a, 0) :- seed(a).
            p(X, J) :- e(Y, X), p(Y, I), J is I + 1, J < 6.
        """
        facts = [("seed", ("a",))] + [
            ("e", (x, y)) for x, y in
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("d", "a")]
        ]
        rule = parse_program(text).rules[1]
        compiled = CompiledRule(rule)
        assert compiled.reads_head
        assert compiled.compiled.collector(compiled.head_spec) is not None
        assert_trailing_parity(text, facts)

    def test_inline_and_closures_agree_on_every_counter(
        self, sg_query, sg_db, monkeypatch
    ):
        def matrix():
            return {
                method: run_strategy(method, sg_query, sg_db)
                for method in ("classical_counting", "encoded_counting",
                               "magic", "sup_magic")
            }

        inline = matrix()
        # No inline expression: every ``is`` / comparison runs its
        # closure, and a body ending in one has no batched form.
        from repro.engine import compile as compile_module

        monkeypatch.setattr(compile_module, "_inline", lambda *a: None)
        monkeypatch.setattr(compile_module, "_COMPILED_RULE_CACHE", {})
        closures = matrix()
        for method, result in inline.items():
            assert result.answers == closures[method].answers
            assert result.stats.as_dict() == closures[method].stats.as_dict()


class TestEmptyDeltaPass:
    """A delta pass whose first step reads an empty delta only counts
    its firing; the reference runs it and must count the same."""

    TEXT = """
        a(X, Y) :- e(X, Y).
        a(X, Y) :- b(X, Z), e(Z, Y).
        b(X, Y) :- a(X, Z), f(Z, Y).
        b(X, Y) :- b(X, Z), g(Z, Y).
    """
    FACTS = [("e", ("n%d" % i, "n%d" % (i + 1))) for i in range(5)] + [
        ("f", ("n%d" % i, "n%d" % (i + 2))) for i in range(0, 6, 2)
    ] + [("g", ("n3", "n4"))]

    def test_rule_firings_equal_with_and_without_the_fast_path(
        self, monkeypatch
    ):
        from repro.engine import codegen
        from repro.engine import compile as compile_module

        program = parse_program(self.TEXT)
        applied = []
        entry = compile_module.CompiledRule.loop_entry

        def counting(self):
            *plan, runner, nslots = entry(self)

            def run(*args):
                applied.append(1)
                return runner(*args)
            return (*plan, run, nslots)

        # Every body runs through its runner, so each pass that runs is
        # seen; the loops are generated afresh under the patch.
        monkeypatch.setattr(codegen, "_CLIQUE_BLOCKS", codegen._MAX_LOOPS)
        monkeypatch.setattr(compile_module, "_LOOP_CACHE", {})
        monkeypatch.setattr(compile_module.CompiledRule, "loop_entry",
                            counting)
        got, stats = outcome(SemiNaiveEngine, program, self.FACTS)
        expected, reference = outcome(ReferenceEngine, program, self.FACTS)
        assert got == expected
        assert stats.as_dict()["rule_firings"] == \
            reference.as_dict()["rule_firings"]
        assert work_counters(stats) == work_counters(reference)
        # Some passes really were skipped.
        assert len(applied) < stats.rule_firings
        assert sum(entry["calls"] for entry in stats.rule_profile.values()) \
            == stats.rule_firings
