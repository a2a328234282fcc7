"""Extended counting (Algorithm 1) tests, anchored on Examples 3-4."""

import pytest

from repro import Database, parse_query
from repro.datalog import format_rule
from repro.engine import SemiNaiveEngine, evaluate_query
from repro.rewriting.extended import extended_counting_rewrite


def rules_text(rules):
    return [format_rule(rule) for rule in rules]


class TestExample3Structure:
    def test_counting_rules_push_rule_labels(self, example3_query):
        rewriting = extended_counting_rewrite(example3_query)
        # Seed plus one counting rule per recursive rule.
        assert len(rewriting.counting_rules) == 3
        pushes = [
            rule for rule in rewriting.counting_rules if rule.body
        ]
        for rule in pushes:
            head_path = rule.head.args[-1]
            # The head path is a cons cell [(label, [...]) | L].
            assert head_path.functor == "."

    def test_distinct_rule_labels(self, example3_query):
        rewriting = extended_counting_rewrite(example3_query)
        labels = set()
        for rule in rewriting.counting_rules:
            if rule.body:
                entry = rule.head.args[-1].args[0]
                labels.add(entry.args[0].value)
        assert len(labels) == 2

    def test_modified_rules_pop(self, example3_query):
        rewriting = extended_counting_rewrite(example3_query)
        recs = [
            rule for rule in rewriting.modified_rules
            if rule.body[0].pred == rewriting.query.goal.pred
        ]
        assert len(recs) == 2
        for rule in recs:
            body_path = rule.body[0].args[-1]
            assert body_path.functor == "."

    def test_goal_empty_path(self, example3_query):
        rewriting = extended_counting_rewrite(example3_query)
        assert rewriting.query.goal.args[-1].value == ()


class TestExample4Structure:
    """The rewriting printed in Example 4, checked textually."""

    def test_program_matches_paper(self, example4_query):
        rewriting = extended_counting_rewrite(example4_query)
        text = "\n".join(
            rules_text(rewriting.counting_rules + rewriting.modified_rules)
        )
        # Shared variable W rides the path entry of rule r1.
        assert "c_p__bf(X1, [(r1, [W]) | CNT_PATH]) :- "\
            "c_p__bf(X, CNT_PATH), up1(X, X1, W)." in text
        # Rule r2 pushes an empty shared list.
        assert "c_p__bf(X1, [(r2, []) | CNT_PATH]) :- "\
            "c_p__bf(X, CNT_PATH), up2(X, X1)." in text
        # D_r = {X} for r2: the counting atom stays in the body.
        assert "p__bf(Y, CNT_PATH) :- p__bf(Y1, [(r2, []) | CNT_PATH]), "\
            "c_p__bf(X, CNT_PATH), down2(Y1, Y, X)." in text

    def test_counting_atom_omitted_when_no_bound_use(self, example4_query):
        rewriting = extended_counting_rewrite(example4_query)
        r1_modified = [
            rule for rule in rewriting.modified_rules
            if any(a.pred == "down1" for a in rule.body_atoms())
        ][0]
        body_preds = [a.pred for a in r1_modified.body_atoms()]
        # D_r = {} for r1: no counting atom in the body.
        assert "c_p__bf" not in body_preds


class TestExample4Semantics:
    """The two databases worked through in Example 4."""

    def test_database_a(self, example4_query, example4_db_a):
        rewriting = extended_counting_rewrite(example4_query)
        engine = SemiNaiveEngine(rewriting.query.program, example4_db_a)
        derived = engine.run()
        counting = derived[("c_p__bf", 2)]
        assert ("a", ()) in counting
        assert ("b", (("r1", (1,)),)) in counting
        answers = derived[("p__bf", 2)]
        # The paper: {p(c, [(r1,[1])]), p(e, [])}.
        assert ("c", (("r1", (1,)),)) in answers
        assert ("e", ()) in answers
        assert ("d", ()) not in answers.tuples

    def test_database_b(self, example4_query, example4_db_b):
        rewriting = extended_counting_rewrite(example4_query)
        engine = SemiNaiveEngine(rewriting.query.program, example4_db_b)
        derived = engine.run()
        answers = derived[("p__bf", 2)]
        assert ("e", ()) in answers
        result = evaluate_query(rewriting.query, example4_db_b)
        assert result.answers == {("e",)}

    def test_agrees_with_naive(self, example4_query):
        from repro.data.workloads import shared_vars_chain

        db, _source = shared_vars_chain(depth=8)
        rewriting = extended_counting_rewrite(example4_query)
        extended = evaluate_query(rewriting.query, db)
        naive = evaluate_query(example4_query, db)
        assert extended.answers == naive.answers
        assert extended.answers  # non-degenerate


class TestSpecialShapes:
    def test_right_linear_no_push(self):
        query = parse_query("""
            reach(X, Y) :- flat(X, Y).
            reach(X, Y) :- up(X, X1), reach(X1, Y).
            ?- reach(a, Y).
        """)
        rewriting = extended_counting_rewrite(query)
        push_rules = [r for r in rewriting.counting_rules if r.body]
        assert len(push_rules) == 1
        # Head path equals body path: no push.
        rule = push_rules[0]
        assert rule.head.args[-1] == rule.body[0].args[-1]
        # Right-linear rules produce no modified recursive rule.
        assert len(rewriting.modified_rules) == 1

    def test_left_linear_no_counting_rule(self):
        query = parse_query("""
            desc(X, Y) :- flat(X, Y).
            desc(X, Y) :- desc(X, Y1), down(Y1, Y).
            ?- desc(a, Y).
        """)
        rewriting = extended_counting_rewrite(query)
        # Only the seed.
        assert len(rewriting.counting_rules) == 1
        recs = [
            r for r in rewriting.modified_rules
            if any(a.pred == "desc__bf" for a in r.body_atoms())
        ]
        assert len(recs) == 1
        rule = recs[0]
        assert rule.head.args[-1] == rule.body[0].args[-1]

    def test_mutual_recursion_counting_predicates(self):
        query = parse_query("""
            even(X, Y) :- flat(X, Y).
            even(X, Y) :- up(X, X1), odd(X1, Y1), down(Y1, Y).
            odd(X, Y) :- up(X, X1), even(X1, Y1), down(Y1, Y).
            ?- even(a, Y).
        """)
        rewriting = extended_counting_rewrite(query)
        counting_names = {
            name for name, _ in rewriting.counting_preds.values()
        }
        assert counting_names == {"c_even__bf", "c_odd__bf"}

    def test_mutual_recursion_answers(self):
        query = parse_query("""
            even(X, Y) :- flat(X, Y).
            even(X, Y) :- up(X, X1), odd(X1, Y1), down(Y1, Y).
            odd(X, Y) :- up(X, X1), even(X1, Y1), down(Y1, Y).
            ?- even(a, Y).
        """)
        from repro.data.workloads import mutual_chain

        db, _source = mutual_chain(depth=9)
        rewriting = extended_counting_rewrite(query)
        extended = evaluate_query(rewriting.query, db)
        naive = evaluate_query(query, db)
        assert extended.answers == naive.answers


class TestPathValues:
    def test_paths_record_rule_sequence(self, example3_query):
        db = Database.from_text("""
            up1(a, b). up2(b, c).
            flat(c, c).
            down2(c, d). down1(d, e).
        """)
        rewriting = extended_counting_rewrite(example3_query)
        engine = SemiNaiveEngine(rewriting.query.program, db)
        derived = engine.run()
        counting = derived[("c_sg__bf", 2)]
        paths = {row[1] for row in counting if row[0] == "c"}
        # c reached via r1 then r2: path is [(r2,[]), (r1,[])] (stack).
        assert paths == {(("r2", ()), ("r1", ()))}


class TestPushingCycleCheck:
    """``check_pushing_cycles`` runs per binding of the list-based
    methods: it walks the left graph only when some rule pushes."""

    SG = """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
        ?- sg(a, Y).
    """
    RIGHT_TC = """
        p(X, Y) :- e(X, Y).
        p(X, Y) :- e(X, Z), p(Z, Y).
        ?- p(a, Y).
    """

    def test_no_pushing_rule_walks_nothing(self, monkeypatch):
        from repro.exec.counting_engine import CountingEngine
        from repro.exec.strategies import run_strategy

        def walked(self):
            raise AssertionError("left graph walked")

        query = parse_query(self.RIGHT_TC)
        db = Database.from_text("e(a, b). e(b, c). e(c, a). e(c, d).")
        expected = run_strategy("naive", query, db).answers
        monkeypatch.setattr(CountingEngine, "left_graph", walked)
        result = run_strategy("extended_counting", query, db)
        assert result.answers == expected

    def test_cycle_through_a_pushing_rule_is_refused(self):
        from repro.errors import CountingDivergenceError
        from repro.exec.strategies import run_strategy

        db = Database.from_text("""
            up(a, b). up(b, c). up(c, b). flat(c, x). down(x, y).
        """)
        with pytest.raises(CountingDivergenceError) as info:
            run_strategy("extended_counting", parse_query(self.SG), db)
        assert str(info.value).startswith(
            "extended counting: the left graph has a cycle through "
            "pushing rule "
        )
        assert str(info.value).endswith(
            "; the path argument would grow without bound"
        )

    def test_a_cycle_off_the_pushing_arcs_passes(self):
        # The cycle runs through the right-linear rule only: the path
        # argument does not grow along it.
        from repro.exec.strategies import run_strategy

        query = parse_query("""
            p(X, Y) :- f(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            p(X, Y) :- u(X, X1), p(X1, Y1), d(Y1, Y).
            ?- p(a, Y).
        """)
        db = Database.from_text("""
            e(a, b). e(b, a). u(a, c). f(c, x). d(x, y). f(b, z).
        """)
        expected = run_strategy("naive", query, db).answers
        assert expected
        assert run_strategy("extended_counting", query, db).answers \
            == expected
