"""Targeted tests for small helpers not exercised elsewhere."""

import pytest

from repro import Database, parse_program, parse_query
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import resolve_value
from repro.errors import EvaluationError


class TestResolveValue:
    def test_ground(self):
        from repro.datalog.terms import make_list

        term = make_list([Constant(1), Variable("X")])
        assert resolve_value(term, {"X": Constant(2)}) == (1, 2)

    def test_unbound_raises(self):
        with pytest.raises(EvaluationError):
            resolve_value(Variable("X"), {})


class TestElementaryCyclesLimit:
    def test_limit_respected(self):
        from repro.graph import adjacency_successors, elementary_cycles
        from repro.graph.dfs import Arc

        # Complete digraph over 5 nodes: many elementary cycles.
        arcs = [
            Arc("n%d" % i, "n%d" % j)
            for i in range(5) for j in range(5) if i != j
        ]
        arcs.append(Arc("a", "n0"))
        cycles = elementary_cycles(
            "a", adjacency_successors(arcs), limit=7
        )
        assert len(cycles) == 7


class TestGeneratorsLeftovers:
    def test_chain_with_back_arcs(self):
        from repro.data.generators import chain_with_back_arcs
        from repro.graph import adjacency_successors, is_acyclic
        from repro.graph.dfs import Arc

        facts = chain_with_back_arcs(5, [(3, 1)])
        arcs = [Arc(a, b) for _p, (a, b) in facts]
        assert not is_acyclic("b0", adjacency_successors(arcs))

    def test_inverted_tree_reaches_root(self):
        from repro.data.generators import inverted_tree
        from repro.graph import adjacency_successors, classify_arcs
        from repro.graph.dfs import Arc

        facts, root, leaves = inverted_tree(2, 3)
        arcs = [Arc(a, b) for _p, (a, b) in facts]
        classification = classify_arcs(
            leaves[0], adjacency_successors(arcs)
        )
        assert root in classification.nodes


class TestStrategySupportMaterialization:
    def test_counting_over_derived_left_part(self):
        # Non-recursive derived predicates inside left AND right parts
        # force support materialization in the dedicated evaluators.
        query = parse_query("""
            hop(X, Y) :- up(X, Y).
            hop(X, Y) :- lift(X, Y).
            drop2(X, Y) :- down(X, Y).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- hop(X, X1), sg(X1, Y1), drop2(Y1, Y).
            ?- sg(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). lift(b, c).
            flat(c, c1).
            down(c1, d1). down(d1, e1).
        """)
        from repro.exec.strategies import (
            run_cyclic_counting,
            run_magic_counting,
            run_naive,
            run_pointer_counting,
        )

        expected = run_naive(query, db).answers
        assert expected == {("e1",)}
        for runner in (run_pointer_counting, run_cyclic_counting,
                       run_magic_counting):
            assert runner(query, db).answers == expected


class TestOptimizePlanWithExtensions:
    @pytest.mark.parametrize(
        "method", ["magic_counting", "sup_magic", "encoded_counting"]
    )
    def test_forced_extension_methods(self, sg_query, sg_db, method):
        from repro import optimize

        plan = optimize(sg_query, method=method)
        assert plan.execute(sg_db).answers == {("e1",), ("f1",)}


class TestProgramAnalysisEdge:
    def test_zero_arity_recursion(self):
        from repro.datalog import ProgramAnalysis

        program = parse_program("""
            tick :- tock.
            tock :- tick.
            tick :- seed.
        """)
        analysis = ProgramAnalysis(program)
        clique = analysis.clique_of(("tick", 0))
        assert clique.predicates == {("tick", 0), ("tock", 0)}
        assert clique.is_linear()

    def test_self_recursive_single_rule(self):
        from repro.datalog import ProgramAnalysis

        program = parse_program("p(X) :- p(X).")
        analysis = ProgramAnalysis(program)
        clique = analysis.clique_of(("p", 1))
        assert clique.is_recursive()
        assert not clique.exit_rules


class TestRelationIndexVariety:
    def test_multiple_index_position_sets(self):
        from repro.engine.relation import Relation, WILDCARD

        rel = Relation("t", 3)
        for i in range(20):
            rel.add((i % 4, i % 5, i))
        a = sorted(rel.match((1, WILDCARD, WILDCARD)))
        b = sorted(rel.match((WILDCARD, 2, WILDCARD)))
        c = sorted(rel.match((1, 2, WILDCARD)))
        assert set(c) == set(a) & set(b)
        # Indexes stay current across later inserts.
        rel.add((1, 2, 99))
        assert (1, 2, 99) in list(rel.match((1, 2, WILDCARD)))
