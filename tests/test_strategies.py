"""Cross-strategy equivalence: the central correctness claim.

Theorems 1-3 say the rewritten queries are equivalent to the original
ones; here every applicable strategy is compared against naive
evaluation on every workload at several sizes.
"""

import weakref

import pytest

from repro.data import WORKLOADS
from repro.errors import ReproError
from repro.exec.strategies import (
    STRATEGIES,
    run_naive,
    run_strategy,
)

SIZED = {
    "sg_tree": [dict(fanout=2, depth=3), dict(fanout=3, depth=3)],
    "sg_cylinder": [dict(width=3, height=4), dict(width=4, height=6)],
    "sg_chain": [dict(depth=6), dict(depth=20)],
    "sg_forest": [dict(trees=2, fanout=2, depth=3)],
    "sg_cyclic": [dict(cycle_length=3, down_length=12),
                  dict(cycle_length=5, down_length=30)],
    "multi_rule": [dict(depth=7), dict(depth=14)],
    "shared_vars": [dict(depth=6), dict(depth=11)],
    "mixed_linear": [dict(up_depth=5, down_depth=5)],
    "right_linear": [dict(depth=10)],
    "left_linear": [dict(depth=10)],
    "nonlinear": [dict(nodes=12, arcs=25, seed=3)],
    "mutual": [dict(depth=10), dict(depth=11)],
}


def _cases():
    """``(number, workload, params, strategy)`` per case.  The number
    only makes ids unique; it skips one slot after each ``sup_magic``
    case, where the deleted ``qsq`` strategy was, so that no other
    case's id moved."""
    number = 0
    for name, workload in sorted(WORKLOADS.items()):
        for params in SIZED[name]:
            for strategy in workload.applicable:
                yield number, name, params, strategy
                number += 2 if strategy == "sup_magic" else 1


@pytest.mark.parametrize(
    "name,params,strategy",
    [pytest.param(n, p, s, id="%s-%s-%s" % (n, s, i))
     for i, n, p, s in _cases()],
)
def test_strategy_matches_naive(name, params, strategy):
    workload = WORKLOADS[name]
    db, _source = workload.make_db(**params)
    expected = run_naive(workload.query, db).answers
    result = run_strategy(strategy, workload.query, db)
    assert result.answers == expected


class TestSnapshotReleased:
    """No strategy leaves a reference cycle through the database it
    read: a snapshot generation (frozen tuple sets and indexes) must be
    freed by refcount when its last reader is done, not whenever the
    cycle collector next runs."""

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_snapshot_dies_with_the_result(self, method, sg_query, sg_db,
                                           refcount_only):
        snap = sg_db.snapshot()
        alive = weakref.ref(snap)
        result = run_strategy(method, sg_query, snap)
        assert result.answers
        del result, snap
        assert alive() is None


class TestInapplicability:
    def test_inapplicable_strategies_raise_cleanly(self):
        for name, workload in WORKLOADS.items():
            db, _source = workload.make_db()
            for strategy in set(STRATEGIES) - set(workload.applicable):
                with pytest.raises(ReproError):
                    run_strategy(strategy, workload.query, db)


class TestRunnerPlumbing:
    def test_unknown_strategy(self, sg_query, sg_db):
        with pytest.raises(ValueError):
            run_strategy("nope", sg_query, sg_db)

    def test_type_checks(self, sg_query, sg_db):
        with pytest.raises(TypeError):
            run_strategy("naive", "text", sg_db)
        with pytest.raises(TypeError):
            run_strategy("naive", sg_query, {"not": "a db"})

    def test_result_shape(self, sg_query, sg_db):
        result = run_strategy("magic", sg_query, sg_db)
        assert result.method == "magic"
        assert result.elapsed >= 0
        assert result.stats.total_work > 0
        assert "ExecutionResult" in repr(result)


# -- the goal as written: repeated variables, inline facts --------------

CYCLIC_E = "e(a, b). e(b, c). e(c, a). e(d, d). e(a, e)."
ACYCLIC_E = "e(a, b). e(b, c). e(a, e). e(c, f). e(b, f)."
TC = "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)."
PAIRS = "q(X, Y, Z) :- e(X, Y), e(X, Z). q(X, Y, Z) :- e(X, W), q(W, Y, Z)."


def _answers(method, text, facts):
    from repro import Database, parse_query

    db = Database.from_text(facts) if facts else Database()
    return run_strategy(method, parse_query(text), db).answers


@pytest.mark.parametrize("method", ["naive", "magic", "sup_magic",
                                    "parallel"])
def test_repeated_goal_variable_selects_the_diagonal(method):
    # ``p(X, X)``: the pairs on a cycle of ``e``, not every pair.
    got = _answers(method, TC + " ?- p(X, X).", CYCLIC_E)
    assert got == {("a", "a"), ("b", "b"), ("c", "c"), ("d", "d")}


@pytest.mark.parametrize("method", sorted(STRATEGIES))
def test_repeated_free_variable_is_checked(method):
    # ``q(a, Y, Y)``: both e-successors of one node reachable from a,
    # and equal — the counting evaluators answer on the free positions
    # directly and must check the repeat too.
    got = _answers(method, PAIRS + " ?- q(a, Y, Y).", ACYCLIC_E)
    assert got == {("b", "b"), ("e", "e"), ("c", "c"), ("f", "f")}


@pytest.mark.parametrize(
    "method", sorted(set(STRATEGIES) - {"naive", "parallel"})
)
def test_inline_base_facts_reach_every_strategy(method):
    # The facts of ``e`` live in the program, no database is given: the
    # rewritings carry rules only, so the facts must join the database
    # at evaluation.  (``parallel`` requires a fact-free program.)
    text = ACYCLIC_E + " " + TC + " ?- p(a, Y)."
    expected = _answers("naive", text, None)
    assert expected == {("b",), ("c",), ("e",), ("f",)}
    assert _answers(method, text, None) == expected


# -- a fact of a derived predicate --------------------------------------

#: Programs giving a derived predicate a fact beside its rules, each
#: with an answer only that fact yields.
DERIVED_FACTS = {
    "right_tc": (TC + " p(c, z). ?- p(a, Y).", ("z",)),
    "left_tc": ("p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), e(Z, Y). "
                "p(a, z). ?- p(a, Y).", ("q",)),
    "same_generation": ("sg(X, Y) :- flat(X, Y). "
                        "sg(X, Y) :- e(X, X1), sg(X1, Y1), down(Y1, Y). "
                        "sg(c, z). ?- sg(a, Y).", ("z2",)),
    "second_predicate": ("r(X, Y) :- p(X, Y). p(X, Y) :- e(X, Y). "
                         "p(X, Y) :- e(X, Z), r(Z, Y). p(c, z). "
                         "?- r(a, Y).", ("z",)),
}

DERIVED_FACT_DBS = {
    "acyclic": "e(a, b). e(b, c). e(c, d). e(a, e). "
               "flat(d, y). down(y, y1). down(y1, y2). down(z, z1). "
               "down(z1, z2). e(z, q).",
    "cyclic": "e(a, b). e(b, c). e(c, a). e(c, d). e(a, e). "
              "flat(d, y). down(y, y1). down(y1, y2). down(z, z1). "
              "down(z1, z2). down(y2, y3). e(z, q).",
}


def _derived_fact_cases():
    for program in sorted(DERIVED_FACTS):
        for db in sorted(DERIVED_FACT_DBS):
            yield pytest.param(program, db, id="%s-%s" % (program, db))


@pytest.mark.parametrize("program,db", list(_derived_fact_cases()))
@pytest.mark.parametrize("method", sorted(STRATEGIES))
def test_fact_of_a_derived_predicate_is_kept(method, program, db):
    # Every strategy that runs answers like naive: the fact is not
    # dropped.  A method may still refuse the program or the data.
    from repro.errors import CountingDivergenceError, NotApplicableError

    (text, marker), facts = DERIVED_FACTS[program], DERIVED_FACT_DBS[db]
    expected = _answers("naive", text, facts)
    assert marker in expected
    try:
        got = _answers(method, text, facts)
    except (NotApplicableError, CountingDivergenceError):
        assert method not in ("naive", "magic", "sup_magic",
                              "cyclic_counting", "magic_counting")
        return
    assert got == expected


@pytest.mark.parametrize("program,db", list(_derived_fact_cases()))
def test_fact_of_a_derived_predicate_under_auto(program, db):
    from repro import Database, parse_query
    from repro.rewriting.pipeline import optimize

    (text, _marker), facts = DERIVED_FACTS[program], DERIVED_FACT_DBS[db]
    query, base = parse_query(text), Database.from_text(facts)
    plan = optimize(query, base)
    assert plan.method != "naive"
    assert plan.execute(base).answers == _answers("naive", text, facts)


# -- a left-linear clique: the index methods refuse it ------------------

LEFT_TC = "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), e(Z, Y). ?- p(a, Y)."
CHAIN_E = "e(a, b). e(b, c). e(c, d)."


@pytest.mark.parametrize("method", ["classical_counting",
                                    "encoded_counting"])
def test_index_methods_refuse_a_left_linear_clique(method):
    # The counting rule of ``p(X, Z)`` is a self-loop at the source:
    # the index grows on acyclic data too, so the method does not apply.
    from repro.errors import NotApplicableError

    with pytest.raises(NotApplicableError, match="left-linear rule"):
        _answers(method, LEFT_TC, CHAIN_E)


def test_auto_answers_a_left_linear_clique():
    from repro import Database, parse_query
    from repro.rewriting.pipeline import optimize

    query, base = parse_query(LEFT_TC), Database.from_text(CHAIN_E)
    expected = _answers("naive", LEFT_TC, CHAIN_E)
    assert expected == {("b",), ("c",), ("d",)}
    assert optimize(query, base).execute(base).answers == expected
