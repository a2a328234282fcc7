"""The answer-state key of the dedicated counting evaluators.

The answer phase keys its states ``(pred, values, key)`` by the
coarsest key that is sound for the program and the data: ``"none"``
(Fact 1), ``"distance"`` (Algorithm 3(i), the classical index) or
``"node"`` (the counting row).  These tests pin which key is chosen
where, that the choice never changes an answer, and what it buys.
"""

from array import array

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database, optimize, parse_query
from repro.data import WORKLOADS
from repro.data.generators import duplication_dag_db
from repro.data.workloads import LEFT_LINEAR_TEXT, SG_TEXT, _rename_source
from repro.engine import EvalStats
from repro.exec.counting_engine import CountingEngine, CountingTable
from repro.exec.strategies import run_naive, run_strategy
from repro.rewriting.adornment import adorn_query
from repro.rewriting.canonical import canonicalize_clique, query_constants
from repro.rewriting.support import goal_clique_of

DEDICATED = ("pointer_counting", "cyclic_counting", "magic_counting")


def make_engine(query, db, **kwargs):
    adorned = adorn_query(query)
    clique, _support = goal_clique_of(adorned)
    return CountingEngine(
        canonicalize_clique(clique, adorned), adorned.goal.key,
        query_constants(adorned.goal), db.get, **kwargs,
    )


def state_key(method, query, db):
    return run_strategy(method, query, db).extras["state_key"]


# -- (a) which key, where ------------------------------------------------

#: workload -> key of ``cyclic_counting`` over its generator's default
#: database (``None``: the strategy does not apply).
WORKLOAD_KEYS = {
    "sg_tree": "distance",
    "sg_chain": "distance",
    "sg_forest": "distance",
    "sg_cylinder": "distance",
    "sg_cyclic": "node",        # back arcs: no single distance
    "multi_rule": "node",       # two arc rules: the label sequence
    "shared_vars": "node",      # C_r / D_r non-empty
    "mutual": "node",           # two arc rules
    "mixed_linear": "none",
    "right_linear": "none",
    "left_linear": "none",
    "nonlinear": None,
}


class TestKeyTable:
    def test_every_workload_is_listed(self):
        assert set(WORKLOAD_KEYS) == set(WORKLOADS)

    @pytest.mark.parametrize("name", sorted(WORKLOAD_KEYS))
    def test_workload_key(self, name):
        workload = WORKLOADS[name]
        expected = WORKLOAD_KEYS[name]
        if expected is None:
            assert "cyclic_counting" not in workload.applicable
            return
        db, _source = workload.make_db()
        for method in DEDICATED:
            if method not in workload.applicable:
                continue
            if method == "magic_counting" and name == "sg_cyclic":
                # Its table holds the acyclic part only: a chain.
                assert state_key(method, workload.query, db) == "distance"
                continue
            assert state_key(method, workload.query, db) == expected, method

    def test_layered_dag_has_one_distance_per_node(self):
        db, source = duplication_dag_db(4, 5, 2, seed=7)
        db = _rename_source(db, source, "a")
        query = parse_query(SG_TEXT)
        for method in DEDICATED:
            assert state_key(method, query, db) == "distance"

    def test_one_skip_level_arc_falls_back_to_node(self):
        db, source = duplication_dag_db(4, 5, 2, seed=7)
        db = _rename_source(db, source, "a")
        query = parse_query(SG_TEXT)
        expected = run_naive(query, db).answers
        # u0_0 -> u2_0 skips layer 1: u2_0 is at distance 2 and 3.
        db.add_fact("up", "u0_0", "u2_0")
        assert run_naive(query, db).answers != expected
        for method in DEDICATED:
            result = run_strategy(method, query, db)
            assert result.extras["state_key"] == "node"
            assert result.answers == run_naive(query, db).answers

    def test_left_linear_rule_reading_a_bound_head_variable(self):
        query = parse_query("""
            desc(X, Y) :- flat(X, Y).
            desc(X, Y) :- desc(X, Y1), down(Y1, Y, X).
            ?- desc(a, Y).
        """)
        db = Database.from_text("""
            flat(a, y0). down(y0, y1, a). down(y1, y2, b).
        """)
        result = run_strategy("cyclic_counting", query, db)
        assert result.extras["state_key"] == "node"
        assert result.answers == {("y0",), ("y1",)}
        # The same rule without the bound variable needs no key.
        db2, _source = WORKLOADS["left_linear"].make_db()
        plain = run_strategy("cyclic_counting",
                             parse_query(LEFT_LINEAR_TEXT), db2)
        assert plain.extras["state_key"] == "none"

    def test_structural_key_lives_on_the_canonical_clique(self):
        for name, expected in WORKLOAD_KEYS.items():
            if expected is None:
                continue
            adorned = adorn_query(WORKLOADS[name].query)
            clique, _support = goal_clique_of(adorned)
            canonical = canonicalize_clique(clique, adorned)
            # The data can only refuse a distance key.
            assert canonical.state_key in (expected, "distance"), name

    def test_depths_are_kept_on_the_table(self):
        workload = WORKLOADS["sg_tree"]
        db, _source = workload.make_db()
        engine = make_engine(workload.query, db)
        table = engine.build_counting_set()
        depths = table.depths()
        assert depths is table.depths()
        assert depths[table.source_id] == 0
        assert max(depths) == 4


# -- (b) differential: chosen key == node key == naive -------------------

#: Arc-producing rules, then left-linear rules (no arc).
ARC_RULES = [
    "p(X, Y) :- u1(X, X1), p(X1, Y1), d1(Y1, Y).",
    "p(X, Y) :- u2(X, X1), p(X1, Y1), d2(Y1, Y).",
    "p(X, Y) :- u1(X, X1), p(X1, Y).",
    "p(X, Y) :- u2(X, X1), p(X1, Y).",
    "p(X, Y) :- uw(X, X1, W), p(X1, Y1), dw(Y1, Y, W).",
    "p(X, Y) :- u1(X, X1), p(X1, Y1), dw(Y1, Y, X).",
]
IN_PLACE_RULES = [
    None,
    "p(X, Y) :- p(X, Y1), d2(Y1, Y).",
    "p(X, Y) :- p(X, Y1), dw(Y1, Y, X).",
]
NODES = 5            # layers {x0, x1}, {x2, x3}, {x4}
SHAPES = ("layered", "dag", "cyclic")

#: x2 is two and three arcs from the source; the down chain tells.
TWO_DISTANCES = (((0,), 0), "dag", [(0, 1), (0, 2), (1, 2)], [], [(2, 0)])

pairs = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    max_size=10,
)
#: One or two arc rules: alone a general rule may take the distance
#: key (listed twice: that is where the data decides), right-linear
#: ones need none, the rest keep the node.
ARC_CHOICES = [(0,), (1,), (0,), (1,), (2,), (0, 1), (0, 2), (2, 3),
               (4,), (5,), (1, 4)]
programs = st.tuples(
    st.sampled_from(ARC_CHOICES),
    st.integers(0, len(IN_PLACE_RULES) - 1),
)


def build_query(program):
    arc_rules, in_place = program
    rules = ["p(X, Y) :- f(X, Y)."]
    rules.extend(ARC_RULES[i] for i in arc_rules)
    if IN_PLACE_RULES[in_place]:
        rules.append(IN_PLACE_RULES[in_place])
    return parse_query("\n".join(rules) + "\n?- p(a, Y).")


def build_db(shape, up, down, flat):
    """``up`` arcs filtered to the shape (every one in ``u1``, every
    other one in ``u2``); a ``down`` chain, so that answers tell path
    lengths apart, plus the drawn arcs; the drawn ``flat`` pairs."""
    keep = {
        "layered": lambda i, j: j // 2 == i // 2 + 1,
        "dag": lambda i, j: i < j,
        "cyclic": lambda i, j: True,
    }[shape]
    db = Database()
    db.add_fact("u1", "a", "x0")
    db.add_fact("u2", "a", "x1")
    db.add_fact("uw", "a", "x0", 0)
    for n, (i, j) in enumerate(up):
        if keep(i, j):
            a, b = "x%d" % i, "x%d" % j
            db.add_fact("u1", a, b)
            if n % 2:
                db.add_fact("u2", a, b)
            db.add_fact("uw", a, b, n % 3)
    chain = [(i, i + 1) for i in range(NODES - 1)]
    for n, (i, j) in enumerate(chain + down):
        a, b = "y%d" % i, "y%d" % j
        db.add_fact("d1", a, b)
        if n % 2:
            db.add_fact("d2", a, b)
        db.add_fact("dw", a, b, n % 3)
        db.add_fact("dw", a, b, "x%d" % (n % NODES))
    for i, j in flat:
        db.add_fact("f", "x%d" % i, "y%d" % j)
    return db


def check_keys(program, shape, up, down, flat):
    """One example of the property; returns the key the run chose."""
    query = build_query(program)
    db = build_db(shape, up, down, flat)
    expected = run_naive(query, db).answers
    engine = make_engine(query, db)
    assert engine.run() == expected
    parents = {}
    by_node, node_states, _frontier = engine._answer_loop(
        "node", (), EvalStats(), parents=parents
    )
    assert by_node == expected
    # Theorem 2(3) per key: states <= distinct values x keys.
    values = {state[:2] for state in parents}
    key_of, _groups = engine.table.quotient(engine.state_key,
                                            engine.canonical)
    assert engine.state_count <= len(values) * len(set(key_of))
    assert engine.state_count <= node_states
    return engine.state_key


def depths_without_the_check(self):
    """The mutant: a row's depth is its tree arc's, and no other
    in-triple is looked at."""
    depth = array("q", [-1]) * len(self)
    depth[self.source_id] = 0
    for row_id, prev_id in zip(self.t_row, self.t_prev):
        if prev_id >= 0 and depth[row_id] < 0:
            depth[row_id] = depth[prev_id] + 1
    return depth


PROPERTY = settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestChosenKeyChangesNoAnswer:
    def test_chosen_key_equals_node_key_equals_naive(self):
        seen = set()

        @PROPERTY
        @given(programs, st.sampled_from(SHAPES), pairs, pairs, pairs)
        @example(*TWO_DISTANCES)
        def run(program, shape, up, down, flat):
            seen.add(check_keys(program, shape, up, down, flat))

        run()
        assert seen == {"node", "distance", "none"}

    def test_property_catches_a_skipped_uniform_depth_test(
            self, monkeypatch):
        monkeypatch.setattr(CountingTable, "depths",
                            depths_without_the_check)

        @PROPERTY
        @given(programs, st.sampled_from(SHAPES), pairs, pairs, pairs)
        @example(*TWO_DISTANCES)
        def run(program, shape, up, down, flat):
            check_keys(program, shape, up, down, flat)

        with pytest.raises(AssertionError):
            run()


# -- (c) lives in test_determinism.py; (d) what falls out for ``auto`` -------------------------------------

class TestAutoRegret:
    """``choose_method`` is untouched; the strategy it picks on
    uniform-depth DAGs now does no more work than classical counting."""

    @pytest.mark.parametrize("make_db", [
        lambda: WORKLOADS["sg_cylinder"].make_db(8, 28)[0],
        lambda: _rename_source(
            *duplication_dag_db(14, 16, 1, 1992), "a"),
    ], ids=["sg_cylinder", "dup_dag"])
    def test_auto_no_worse_than_classical_counting(self, make_db):
        db = make_db()
        query = parse_query(SG_TEXT)
        auto = optimize(query, db, method="auto").execute(db)
        classical = run_strategy("classical_counting", query, db)
        assert auto.answers == classical.answers
        assert auto.stats.total_work <= classical.stats.total_work
