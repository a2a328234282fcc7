"""E1 — Example 1 / §1: counting vs magic vs naive on same generation.

Workload: a forest of mirrored binary trees.  Only one tree is
reachable from the query constant; the others are distractors that an
unfocused (naive) evaluation pays for.  The paper's claim: binding
propagation (magic) skips irrelevant data, and the counting method
improves on magic by joining each level only with the previous one
("often yielding an order of magnitude of improvement").

Shape asserted: pointer counting < classical counting < magic < naive
in join work, with pointer counting more than 3x under magic at every
depth.  (The ratio is flat in depth — both methods are linear in the
reachable tree.  It grew with depth while the engine joined delta
passes in written order and rescanned the magic set every round; that
was the engine's join order, not the methods.)
"""

import pytest

from conftest import register_table
from _common import assert_claims, make_timer, work_of

from repro import parse_query
from repro.bench import matrix_table, run_matrix
from repro.data.generators import sg_tree_db
from repro.data.workloads import _rename_source

QUERY = parse_query("""
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
""")

METHODS = ["naive", "magic", "sup_magic", "classical_counting",
           "pointer_counting"]
DEPTHS = [4, 6, 8]
DISTRACTORS = 3


def make_db(depth, distractors=DISTRACTORS):
    db, root = sg_tree_db(2, depth)
    db = _rename_source(db, root, "a")
    for d in range(distractors):
        extra, extra_root = sg_tree_db(2, depth)
        for key in extra.keys():
            for row in extra.get(key):
                db.relation(key[0], key[1]).add(
                    tuple("x%d_%s" % (d, v) for v in row)
                )
    return db


@pytest.fixture(scope="module")
def rows():
    collected = []
    for depth in DEPTHS:
        db = make_db(depth)
        collected.extend(
            run_matrix(QUERY, db, METHODS, label="depth=%d" % depth)
        )
    register_table(
        "e1_sg_tree",
        matrix_table(
            collected,
            title="E1: same generation, mirrored binary trees + %d "
                  "distractor trees" % DISTRACTORS,
        ),
    )
    return collected


@pytest.mark.parametrize("method", METHODS)
def test_e1_time_depth6(benchmark, method, rows):
    benchmark(make_timer(QUERY, make_db(6), method))


def test_e1_counting_beats_magic_beats_naive(rows, benchmark):
    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            naive = work_of(rows, label, "naive")
            magic = work_of(rows, label, "magic")
            classical = work_of(rows, label, "classical_counting")
            pointer = work_of(rows, label, "pointer_counting")
            assert magic < naive, label
            assert classical < magic, label
            assert pointer < classical, label

    assert_claims(benchmark, check)


def test_e1_counting_beats_whole_memoing_family(rows, benchmark):
    """The counting advantage holds against every memoing-family
    baseline: basic magic and supplementary magic [6]."""

    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            pointer = work_of(rows, label, "pointer_counting")
            assert pointer < work_of(rows, label, "sup_magic")

    assert_claims(benchmark, check)


def test_e1_counting_beats_magic_threefold_at_every_depth(rows, benchmark):
    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            ratio = (work_of(rows, label, "magic")
                     / work_of(rows, label, "pointer_counting"))
            # §1's "often an order of magnitude": a constant factor on
            # balanced trees, past 3x at every size.
            assert ratio > 3, (label, ratio)

    assert_claims(benchmark, check)
