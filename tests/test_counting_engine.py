"""Dedicated counting evaluator tests (§3.4 pointer method and
Algorithm 2), anchored on the paper's Example 5 walkthrough."""

import pytest

from repro import Database, parse_query
from repro.errors import NotApplicableError
from repro.exec.counting_engine import SOURCE_TRIPLE, CountingEngine
from repro.exec.strategies import (
    run_cyclic_counting,
    run_naive,
    run_pointer_counting,
)
from repro.rewriting.adornment import adorn_query
from repro.rewriting.canonical import canonicalize_clique, query_constants
from repro.rewriting.support import goal_clique_of


def make_engine(query, db, require_acyclic=False):
    adorned = adorn_query(query)
    clique, support = goal_clique_of(adorned)
    assert not support
    canonical = canonicalize_clique(clique, adorned)
    return CountingEngine(
        canonical,
        adorned.goal.key,
        query_constants(adorned.goal),
        db.get,
        require_acyclic=require_acyclic,
    )


class TestExample5CountingSet:
    """The counting table the paper computes: o1..o5 with their
    predecessor sets {nil},{o1},{o2},{o3,o5},{o2,o4}."""

    def table(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db)
        return engine.build_counting_set()

    def test_five_rows(self, sg_query, example5_db):
        table = self.table(sg_query, example5_db)
        assert len(table) == 5
        nodes = [values[0] for values in table.values]
        assert nodes == ["a", "b", "c", "d", "e"]

    def test_predecessor_sets(self, sg_query, example5_db):
        table = self.table(sg_query, example5_db)
        ids = {
            values[0]: row_id for row_id, values in enumerate(table.values)
        }
        preds = {
            values[0]: {triple[2] for triple in triples}
            for values, triples in zip(table.values, table.triples())
        }
        assert preds["a"] == {None}           # {nil}
        assert preds["b"] == {ids["a"]}       # {o1}
        assert preds["c"] == {ids["b"]}       # {o2}
        assert preds["d"] == {ids["c"], ids["e"]}  # {o3, o5}
        assert preds["e"] == {ids["b"], ids["d"]}  # {o2, o4}

    def test_one_back_arc(self, sg_query, example5_db):
        table = self.table(sg_query, example5_db)
        assert table.back_arc_count == 1
        assert not table.is_acyclic()

    def test_triple_count_is_arc_count(self, sg_query, example5_db):
        table = self.table(sg_query, example5_db)
        # 6 up arcs reachable from a, plus the source sentinel.
        assert table.triple_count == 7

    def test_source_sentinel(self, sg_query, example5_db):
        table = self.table(sg_query, example5_db)
        assert SOURCE_TRIPLE in table.triples()[table.source_id]

    def test_classify_is_phase_one_without_the_table(self, sg_query,
                                                     example5_db):
        engine = make_engine(sg_query, example5_db)
        classification = engine.classify()
        assert engine.table is None
        assert [node[1][0] for node in classification.order] \
            == ["a", "b", "c", "d", "e"]
        assert len(classification.ahead) == 5
        assert len(classification.back) == 1


class TestExample5Answers:
    def test_answers(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db)
        assert engine.run() == frozenset({("h",), ("j",), ("l",)})

    def test_state_space_finite(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db)
        engine.run()
        # Theorem 2: bounded by answers-side nodes times counting rows.
        assert 0 < engine.state_count <= 7 * 5

    def test_matches_naive(self, sg_query, example5_db):
        engine_answers = make_engine(sg_query, example5_db).run()
        naive = run_naive(sg_query, example5_db)
        assert engine_answers == naive.answers


class TestAcyclicMode:
    def test_rejects_cycles(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db, require_acyclic=True)
        with pytest.raises(NotApplicableError):
            engine.build_counting_set()

    def test_accepts_acyclic(self, sg_query, sg_db):
        engine = make_engine(sg_query, sg_db, require_acyclic=True)
        answers = engine.run()
        assert answers == frozenset({("e1",), ("f1",)})


class TestPointerTableShape:
    def test_rows_per_node_not_per_path(self, sg_query):
        # A diamond: two paths to d, but one counting row.
        db = Database.from_text("""
            up(a, b1). up(a, b2). up(b1, d). up(b2, d).
            flat(d, x). down(x, y1). down(y1, y2).
        """)
        engine = make_engine(sg_query, db)
        table = engine.build_counting_set()
        assert len(table) == 4
        d_row = table.index[(table.pred[0], ("d",))]
        assert list(table.t_row).count(d_row) == 2  # one per in-arc

    def test_shared_values_stored(self, example4_query, example4_db_a):
        engine = make_engine(example4_query, example4_db_a)
        table = engine.build_counting_set()
        b_row = table.values.index(("b",))
        (label, shared, _prev) = table.triples()[b_row][0]
        assert shared == (1,)

    def test_bound_head_var_recovered(self, example4_query, example4_db_b):
        engine = make_engine(example4_query, example4_db_b)
        answers = engine.run()
        # down2(c, e, a) requires X = a from the predecessor row.
        assert answers == frozenset({("e",)})


class TestCycleThroughSource:
    def test_source_on_cycle(self, sg_query):
        # up cycle a -> b -> a: paths of length 0 mod 2 return to a.
        db = Database.from_text("""
            up(a, b). up(b, a).
            flat(a, x0). flat(b, y0).
            down(x0, x1). down(x1, x2). down(x2, x3). down(x3, x4).
            down(y0, y1). down(y1, y2). down(y2, y3).
        """)
        engine = make_engine(sg_query, db)
        answers = engine.run()
        naive = run_naive(sg_query, db)
        assert answers == naive.answers
        # x0 (0 ups), y1 (1 up), x2 (2 ups), y3, x4 ...
        assert ("x0",) in answers
        assert ("y1",) in answers
        assert ("x2",) in answers


class TestRunners:
    def test_pointer_runner_extras(self, sg_query, sg_db):
        result = run_pointer_counting(sg_query, sg_db)
        assert result.extras["counting_rows"] == 3
        assert result.extras["counting_triples"] == 3
        assert result.answers == {("e1",), ("f1",)}

    def test_cyclic_runner_extras(self, sg_query, example5_db):
        result = run_cyclic_counting(sg_query, example5_db)
        assert result.extras["back_arcs"] == 1
        assert result.extras["counting_rows"] == 5
        assert result.answers == {("h",), ("j",), ("l",)}

    def test_support_rules_materialized(self):
        # The left part references a derived (non-recursive) predicate.
        query = parse_query("""
            link(X, Y) :- up(X, Y).
            link(X, Y) :- bridge(X, Y).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- link(X, X1), sg(X1, Y1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). bridge(b, c).
            flat(c, c1). down(c1, d1). down(d1, e1).
        """)
        cyclic = run_cyclic_counting(query, db)
        naive = run_naive(query, db)
        assert cyclic.answers == naive.answers == {("e1",)}


class TestAnswerPhaseGuard:
    def test_answer_path_before_compute_answers(self, sg_query, example5_db):
        from repro.errors import EvaluationError

        engine = make_engine(sg_query, example5_db)
        with pytest.raises(EvaluationError, match="answer phase has not run"):
            engine.answer_path(("f",))

    def test_answer_path_after_build_only(self, sg_query, example5_db):
        from repro.errors import EvaluationError

        engine = make_engine(sg_query, example5_db)
        engine.build_counting_set()
        with pytest.raises(EvaluationError, match="answer phase has not run"):
            engine.answer_path(("f",))

    def test_answer_path_after_compute_answers(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db)
        answers = engine.compute_answers()
        for values in answers:
            steps = engine.answer_path(values)
            assert steps
        with pytest.raises(KeyError):
            engine.answer_path(("not-an-answer",))
