"""Weakly stratified counting-set construction (Theorem 2(1), §3.4).

The wavefront evaluator fires the node-keyed counting rule exactly when
its self-negation becomes definitively false; the result must be the
same table (up to id renaming) the DFS-based engine builds.
"""

import random

import pytest

from repro.exec.counting_engine import SOURCE_TRIPLE, CountingTable
from repro.exec.weak_stratification import (
    tables_equivalent,
    wavefront_counting_table,
    weakly_stratified_counting_table,
)
from repro.graph import Arc, adjacency_successors, classify_arcs


def successors_of(pairs):
    return adjacency_successors(
        [Arc(("p", a), ("p", b), ("r1", ())) for a, b in pairs]
    )


def dfs_table(classification):
    """The table in DFS discovery order: the arrays written from the
    ranks of the classification's nodes, ahead arcs then back arcs."""
    rank = {node: i for i, node in enumerate(classification.order)}

    def ranked(arcs):
        return [(rank[arc.source], rank[arc.target], arc.label)
                for arc in arcs]

    return CountingTable.from_ranks(
        classification.order, ranked(classification.ahead),
        ranked(classification.back),
    )


EXAMPLE5_UP = [
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "d"),
    ("b", "e"),
]


class TestExample5:
    def table(self):
        return weakly_stratified_counting_table(
            ("p", "a"), successors_of(EXAMPLE5_UP)
        )

    def test_admission_waits_for_all_ahead_preds(self):
        table = self.table()
        # e has ahead predecessors b and d; with the wavefront
        # discipline d must be admitted before e fires.
        order = list(table.values)
        assert order.index("d") < order.index("e")
        assert order.index("c") < order.index("d")

    def test_same_predecessor_sets_as_dfs(self):
        wavefront = self.table()
        classification = classify_arcs(
            ("p", "a"), successors_of(EXAMPLE5_UP)
        )
        assert tables_equivalent(wavefront, dfs_table(classification))

    def test_back_arc_counted(self):
        table = self.table()
        assert table.back_arc_count == 1
        assert table.ahead_arc_count == 5

    def test_source_sentinel_present(self):
        table = self.table()
        assert SOURCE_TRIPLE in table.triples()[table.source_id]


class TestAgainstCountingEngine:
    def engine_table(self, query, db):
        from repro.exec.counting_engine import CountingEngine
        from repro.rewriting.adornment import adorn_query
        from repro.rewriting.canonical import (
            canonicalize_clique,
            query_constants,
        )
        from repro.rewriting.support import goal_clique_of

        adorned = adorn_query(query)
        clique, _support = goal_clique_of(adorned)
        canonical = canonicalize_clique(clique, adorned)
        engine = CountingEngine(
            canonical, adorned.goal.key,
            query_constants(adorned.goal), db.get,
        )
        return engine.build_counting_set(), engine.classify()

    def test_example5_program(self, sg_query, example5_db):
        dfs_table, classification = self.engine_table(
            sg_query, example5_db
        )
        wavefront = wavefront_counting_table(classification)
        assert tables_equivalent(wavefront, dfs_table)

    def test_shared_vars_program(self, example4_query, example4_db_a):
        dfs_table, classification = self.engine_table(
            example4_query, example4_db_a
        )
        wavefront = wavefront_counting_table(classification)
        assert tables_equivalent(wavefront, dfs_table)


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(12))
    def test_wavefront_matches_dfs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 14)
        pairs = []
        for _ in range(rng.randrange(2, 3 * n)):
            pairs.append(("n%d" % rng.randrange(n),
                          "n%d" % rng.randrange(n)))
        pairs.append(("a", "n0"))
        succ = successors_of(pairs)
        classification = classify_arcs(("p", "a"), succ)
        wavefront = wavefront_counting_table(classification)

        assert tables_equivalent(wavefront, dfs_table(classification))

    @pytest.mark.parametrize("seed", range(6))
    def test_all_reachable_nodes_admitted(self, seed):
        rng = random.Random(100 + seed)
        pairs = [("n%d" % rng.randrange(8), "n%d" % rng.randrange(8))
                 for _ in range(14)]
        pairs.append(("a", "n0"))
        succ = successors_of(pairs)
        classification = classify_arcs(("p", "a"), succ)
        table = wavefront_counting_table(classification)
        assert len(table) == len(classification.order)
