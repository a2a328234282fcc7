"""E6 — Example 6 / §5: mixed-linear programs and Algorithm 3.

For a program of one right-linear and one left-linear rule the
reduction deletes the path argument entirely, leaving the factorized
program of Naughton et al. (Fact 1).

Shape asserted: the reduction fires (path argument gone), the reduced
program does less work than magic and no more than
``extended_counting`` — the program Algorithm 3 takes as input — and the
rewritten program has
exactly the four rules the paper prints.  The dedicated evaluator
applies the same reduction to its answer states (Fact 1: no rule's
right part can tell two counting rows apart, so states carry no row),
which shows as ``answer_states`` linear in n instead of quadratic.
"""

import pytest

from conftest import register_table
from _common import assert_claims, extras_of, make_timer, work_of

from repro import extended_counting_rewrite, reduce_rewriting
from repro.bench import matrix_table, run_matrix
from repro.data.workloads import WORKLOADS

WORKLOAD = WORKLOADS["mixed_linear"]
METHODS = ["naive", "magic", "extended_counting", "reduced_counting",
           "cyclic_counting"]
SIZES = [8, 16, 32]


@pytest.fixture(scope="module")
def rows():
    collected = []
    for size in SIZES:
        db, _source = WORKLOAD.make_db(up_depth=size, down_depth=size)
        collected.extend(
            run_matrix(WORKLOAD.query, db, METHODS, label="n=%d" % size)
        )
    register_table(
        "e6_mixed_linear",
        matrix_table(
            collected,
            title="E6: mixed-linear program (Example 6), Algorithm 3 "
                  "reduction",
            extra_columns=("answer_states", "state_key"),
        ),
    )
    return collected


@pytest.mark.parametrize("method", METHODS)
def test_e6_time_n16(benchmark, method, rows):
    db, _source = WORKLOAD.make_db(up_depth=16, down_depth=16)
    benchmark(make_timer(WORKLOAD.query, db, method))


def test_e6_reduction_fires(rows, benchmark):
    def check():
        reduced = reduce_rewriting(
            extended_counting_rewrite(WORKLOAD.query)
        )
        assert reduced.path_deleted_counting
        assert reduced.path_deleted_answer
        assert len(reduced.query.program) == 4

    assert_claims(benchmark, check)


def test_e6_reduced_beats_magic(rows, benchmark):
    def check():
        for size in SIZES:
            label = "n=%d" % size
            assert work_of(rows, label, "reduced_counting") \
                < work_of(rows, label, "magic")

    assert_claims(benchmark, check)


def test_e6_reduced_beats_general_counting(rows, benchmark):
    def check():
        for size in SIZES:
            label = "n=%d" % size
            # Equal on this program: its rules never push, so the
            # path argument Algorithm 3 deletes was always empty.
            assert work_of(rows, label, "reduced_counting") \
                <= work_of(rows, label, "extended_counting")

    assert_claims(benchmark, check)


def test_e6_evaluator_states_linear(rows, benchmark):
    def check():
        states = []
        for size in SIZES:
            extras = extras_of(rows, "n=%d" % size, "cyclic_counting")
            assert extras["state_key"] == "none"
            states.append(extras["answer_states"])
        # Doubling n doubles the states (node-keyed it quadrupled them).
        for smaller, larger in zip(states, states[1:]):
            assert larger <= 2 * smaller + 2, states

    assert_claims(benchmark, check)
