"""S1 (supplementary) — the Bancilhon-Ramakrishnan cylinder.

The cylinder is the classic stress shape from the comparison framework
the paper cites [4]: every node of layer i+1 has two parents in layer
i, so the number of distinct source-to-node paths grows exponentially
with height while all paths to a node have the *same length*.  That is
counting's best non-tree case: the (node, distance) space stays linear
(one distance per node) even though paths explode, so the counting
methods keep their edge; what grows for everyone is the sheer number
of join results.

Shape asserted: pointer counting beats magic at every height; the
counting table stays linear in the node count (one row per node, two
triples per node) despite the exponential path count; and the pointer
evaluator, finding one distance per node on its table, keys its answer
states by that distance — as many states as the classical method has
(node, distance) answers' worth, and no more work than it.
"""

import pytest

from conftest import register_table
from _common import assert_claims, extras_of, make_timer, work_of

from repro import parse_query
from repro.bench import matrix_table, run_matrix
from repro.data.generators import cylinder
from repro.engine.database import Database

QUERY = parse_query("""
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
""")

METHODS = ["naive", "magic", "classical_counting", "pointer_counting"]
WIDTH = 4
HEIGHTS = [4, 8, 12]


def make_db(height):
    db = Database()
    facts, first, last = cylinder(WIDTH, height, "up", "u")
    for _pred, (x, y) in facts:
        db.add_fact("up", "a" if x == first[0] else x, y)
    down_facts, d_first, d_last = cylinder(WIDTH, height, "tmp", "d")
    for _pred, (x, y) in down_facts:
        db.add_fact("down", y, x)
    for u_node, d_node in zip(last, d_last):
        db.add_fact("flat", u_node, d_node)
    return db


@pytest.fixture(scope="module")
def rows():
    collected = []
    for height in HEIGHTS:
        collected.extend(
            run_matrix(QUERY, make_db(height), METHODS,
                       label="h=%d" % height)
        )
    register_table(
        "s1_cylinder",
        matrix_table(
            collected,
            title="S1: Bancilhon-Ramakrishnan cylinder (width %d) — "
                  "exponential paths, uniform distances" % WIDTH,
            extra_columns=("counting_set_size", "counting_rows",
                           "counting_triples", "answer_states",
                           "state_key"),
        ),
    )
    return collected


@pytest.mark.parametrize("method", METHODS)
def test_s1_time_h8(benchmark, method, rows):
    benchmark(make_timer(QUERY, make_db(8), method))


def test_s1_counting_beats_magic(rows, benchmark):
    def check():
        for height in HEIGHTS:
            label = "h=%d" % height
            assert work_of(rows, label, "pointer_counting") \
                < work_of(rows, label, "magic"), label

    assert_claims(benchmark, check)


def test_s1_counting_table_linear_despite_paths(rows, benchmark):
    def check():
        for height in HEIGHTS:
            label = "h=%d" % height
            extras = extras_of(rows, label, "pointer_counting")
            nodes = WIDTH * height + 1  # layers below the source + a
            assert extras["counting_rows"] <= nodes + WIDTH
            assert extras["counting_triples"] <= 2 * WIDTH * height + 2
            # Classical counting also stays linear here: one distance
            # per node (all paths to a node have equal length).
            classical = extras_of(rows, label, "classical_counting")
            assert classical["counting_set_size"] <= nodes + WIDTH

    assert_claims(benchmark, check)


def test_s1_pointer_takes_the_classical_key(rows, benchmark):
    def check():
        for height in HEIGHTS:
            label = "h=%d" % height
            extras = extras_of(rows, label, "pointer_counting")
            assert extras["state_key"] == "distance"
            # One state per (answer value, distance): WIDTH values on
            # each of the height levels it unwinds through.
            assert extras["answer_states"] <= WIDTH * (height + 1)
            assert work_of(rows, label, "pointer_counting") \
                <= work_of(rows, label, "classical_counting"), label

    assert_claims(benchmark, check)
