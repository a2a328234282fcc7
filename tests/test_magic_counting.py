"""Magic-counting hybrid tests ([16], discussed in §4)."""

import random

import pytest

from repro import Database, parse_query
from repro.exec.magic_counting import recurring_nodes
from repro.exec.strategies import (
    run_cyclic_counting,
    run_magic,
    run_magic_counting,
    run_naive,
    run_strategy,
)
from repro.graph import Arc, adjacency_successors, classify_arcs


class TestRecurringNodes:
    def classify(self, pairs, source="a"):
        arcs = [Arc(x, y) for x, y in pairs]
        return classify_arcs(source, adjacency_successors(arcs))

    def test_acyclic_graph_has_none(self):
        classification = self.classify([("a", "b"), ("b", "c")])
        assert recurring_nodes(classification) == set()

    def test_cycle_and_descendants(self):
        classification = self.classify([
            ("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"),
        ])
        assert recurring_nodes(classification) == {"b", "c", "d"}

    def test_self_loop(self):
        classification = self.classify([("a", "b"), ("b", "b")])
        assert recurring_nodes(classification) == {"b"}

    def test_nodes_before_cycle_not_recurring(self):
        classification = self.classify([
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "c"),
        ])
        recurring = recurring_nodes(classification)
        assert "a" not in recurring
        assert "b" not in recurring
        assert recurring == {"c", "d"}


class TestHybridSemantics:
    def test_example5(self, sg_query, example5_db):
        result = run_magic_counting(sg_query, example5_db)
        assert result.answers == {("h",), ("j",), ("l",)}
        # Nodes d and e are recurring; a, b, c stay in the counting part.
        assert result.extras["recurring_nodes"] == 2
        assert result.extras["counting_rows"] == 3

    def test_acyclic_degenerates_to_counting(self, sg_query, sg_db):
        result = run_magic_counting(sg_query, sg_db)
        assert result.answers == {("e1",), ("f1",)}
        assert result.extras["recurring_nodes"] == 0

    def test_source_in_cycle_degenerates_to_magic(self, sg_query):
        db = Database.from_text("""
            up(a, b). up(b, a).
            flat(a, x0). flat(b, y0).
            down(x0, x1). down(x1, x2). down(x2, x3). down(x3, x4).
            down(y0, y1). down(y1, y2). down(y2, y3).
        """)
        result = run_magic_counting(sg_query, db)
        naive = run_naive(sg_query, db)
        assert result.answers == naive.answers
        assert result.extras["counting_rows"] == 0

    def test_sits_between_magic_and_algorithm2(self, sg_query,
                                               example5_db):
        hybrid = run_magic_counting(sg_query, example5_db)
        magic = run_magic(sg_query, example5_db)
        algorithm2 = run_cyclic_counting(sg_query, example5_db)
        assert hybrid.stats.total_work < magic.stats.total_work
        assert algorithm2.stats.total_work < hybrid.stats.total_work

    def test_shared_vars_across_boundary(self):
        # The boundary arc carries a shared value the right part needs.
        query = parse_query("""
            p(X, Y) :- flat(X, Y).
            p(X, Y) :- up(X, X1, W), p(X1, Y1), down(Y1, Y, W).
            ?- p(a, Y).
        """)
        db = Database.from_text("""
            up(a, k0, 7). up(k0, k1, 8). up(k1, k0, 9).
            flat(k0, f).
            down(f, g, 8). down(g, h, 7).
            down(f, zz, 5).
        """)
        hybrid = run_magic_counting(query, db)
        naive = run_naive(query, db)
        assert hybrid.answers == naive.answers

    def test_mutual_recursion_cyclic(self):
        query = parse_query("""
            even(X, Y) :- flat(X, Y).
            even(X, Y) :- up(X, X1), odd(X1, Y1), down(Y1, Y).
            odd(X, Y) :- up(X, X1), even(X1, Y1), down(Y1, Y).
            ?- even(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). up(b, c). up(c, b).
            flat(b, m0). flat(c, n0).
            down(m0, m1). down(m1, m2). down(m2, m3). down(m3, m4).
            down(n0, n1). down(n1, n2). down(n2, n3).
        """)
        hybrid = run_magic_counting(query, db)
        naive = run_naive(query, db)
        assert hybrid.answers == naive.answers


class TestHybridRandom:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_on_random_cyclic_data(self, sg_query, seed):
        rng = random.Random(seed)
        db = Database()
        n = rng.randrange(4, 10)
        for _ in range(rng.randrange(4, 3 * n)):
            db.add_fact("up", "n%d" % rng.randrange(n),
                        "n%d" % rng.randrange(n))
        db.add_fact("up", "a", "n0")
        for _ in range(rng.randrange(1, n)):
            db.add_fact("flat", "n%d" % rng.randrange(n),
                        "m%d" % rng.randrange(n))
        for _ in range(rng.randrange(2, 3 * n)):
            db.add_fact("down", "m%d" % rng.randrange(n),
                        "m%d" % rng.randrange(n))
        hybrid = run_magic_counting(sg_query, db)
        naive = run_naive(sg_query, db)
        assert hybrid.answers == naive.answers


class TestSharedAnswerLoop:
    """The hybrid runs the pointer evaluator's answer loop, and with it
    one accounting: a seed state is not a derivation."""

    @pytest.mark.parametrize("name", ["sg_tree", "multi_rule", "mutual",
                                      "mixed_linear", "sg_cylinder"])
    def test_acyclic_data_is_charged_like_the_pointer_method(self, name):
        from repro.data import WORKLOADS

        workload = WORKLOADS[name]
        db, _source = workload.make_db()
        pointer = run_strategy("pointer_counting", workload.query, db)
        hybrid = run_strategy("magic_counting", workload.query, db)
        assert hybrid.answers == pointer.answers
        for extra in ("state_key", "answer_states", "counting_rows"):
            assert hybrid.extras[extra] == pointer.extras[extra]
        # Phase 1 differs (the hybrid does not charge the arcs it
        # classifies); the answer phase is the same loop.
        arcs = pointer.extras["counting_triples"] - 1
        assert hybrid.stats.facts_derived \
            == pointer.stats.facts_derived - arcs
        for counter in ("facts_duplicate", "tuples_scanned",
                        "rule_firings", "iterations"):
            assert getattr(hybrid.stats, counter) \
                == getattr(pointer.stats, counter), counter

    def test_no_private_loop_left(self):
        import inspect

        from repro.exec.magic_counting import MagicCountingEngine

        source = inspect.getsource(MagicCountingEngine)
        for name in ("_unwind", "_exit_states", "_apply_left_linear",
                     "while "):
            assert name not in source, name
