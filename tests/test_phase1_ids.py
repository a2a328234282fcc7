"""Counting phase 1 over integer ids.

``CountingEngine.left_graph`` expands the left graph one breadth wave
at a time (one ``BoundQuery.bind_batch`` call per arc rule and wave)
and replays Algorithm 2's DFS over integer ids.  These tests hold it to
the per-node phase 1 it replaced, kept here as the reference: one
``bound_query(...).run`` per (node, arc rule), a node-keyed DFS calling
the successor function lazily, and a table whose arrays are appended
to per arc.  Arc classes, discovery order, labels, the counting table and
every ``EvalStats`` field must match.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, parse_query
from repro.data import WORKLOADS
from repro.data.generators import duplication_dag_db
from repro.data.workloads import SG_TEXT, _rename_source
from repro.engine import EvalStats
from repro.engine.compile import bound_query
from repro.engine.guard import ResourceBudget
from repro.errors import DeadlineExceeded
from repro.exec.counting_engine import (
    SOURCE_TRIPLE,
    CountingEngine,
    CountingTable,
)
from repro.exec.magic_counting import MagicCountingEngine, recurring_nodes
from repro.graph import Arc, ArcClassification, classify_arcs
from repro.rewriting.adornment import adorn_query
from repro.rewriting.canonical import canonicalize_clique, query_constants
from repro.rewriting.support import goal_clique_of

COUNTING = ("pointer_counting", "cyclic_counting", "magic_counting")


def canonical_of(query):
    adorned = adorn_query(query)
    clique, _support = goal_clique_of(adorned)
    return adorned, canonicalize_clique(clique, adorned)


def make_engine(query, db, cls=CountingEngine, **kwargs):
    adorned, canonical = canonical_of(query)
    return cls(canonical, adorned.goal.key, query_constants(adorned.goal),
               db.get, **kwargs)


def resolver_of(engine):
    return lambda _index, atom: engine.get_relation(atom.key)


# -- the reference: the per-node phase 1 ----------------------------------

def reference_successors(engine, stats):
    """One ``bound_query(...).run`` per (node, arc rule)."""
    resolver = resolver_of(engine)

    def successors(node):
        pred, values = node
        out = []
        for rule in engine.canonical.recursive_rules:
            if rule.head_key != pred or rule.is_left_linear_shape():
                continue
            query = bound_query(rule.left, rule.bound_vars,
                                rule.rec_bound_vars + rule.shared_vars)
            split = len(rule.rec_bound_vars)
            stats.rule_firings += 1
            for result in query.run(resolver, values, stats):
                out.append(((rule.rec_key, result[:split]),
                            (rule.label, result[split:])))
        return out

    return successors


def lazy_dfs(source, successors):
    """The node-keyed DFS, expanding each node when it is discovered."""
    def ordered(node):
        pairs = list(successors(node))
        pairs.sort(key=lambda pair: (repr(pair[0]), repr(pair[1])))
        return iter(pairs)

    discovery = {source: 0}
    on_stack = {source}
    order = [source]
    tree, forward, cross, back = [], [], [], []
    stack = [(source, ordered(source))]
    while stack:
        node, edges = stack[-1]
        for target, label in edges:
            arc = Arc(node, target, label)
            if target not in discovery:
                tree.append(arc)
                discovery[target] = len(order)
                order.append(target)
                on_stack.add(target)
                stack.append((target, ordered(target)))
                break
            if target in on_stack:
                back.append(arc)
            elif discovery[target] > discovery[node]:
                forward.append(arc)
            else:
                cross.append(arc)
        else:
            stack.pop()
            on_stack.discard(node)
    return ArcClassification(source, tree, forward, cross, back, order)


def reference_phase1(engine, stats):
    """``(classification, table)`` of the per-node phase 1, charging
    ``stats`` as it did."""
    source = (engine.goal_key, engine.source_values)
    classification = lazy_dfs(source, reference_successors(engine, stats))
    table = CountingTable()

    def row_for(node):
        row_id = table.index.get(node)
        if row_id is None:
            row_id = table.index[node] = len(table)
            table.pred.append(node[0])
            table.values.append(node[1])
        return row_id

    def append(row_id, triple):
        label, shared, prev = triple
        table.t_label.append(label)
        table.t_shared.append(shared)
        table.t_prev.append(-1 if prev is None else prev)
        table.t_row.append(row_id)

    append(row_for(source), SOURCE_TRIPLE)
    for node in classification.order:
        row_for(node)
    for arc in classification.ahead + classification.back:
        label, shared = arc.label
        append(row_for(arc.target), (label, shared, row_for(arc.source)))
        stats.facts_derived += 1
    table.ahead_arc_count = len(classification.ahead)
    table.back_arc_count = len(classification.back)
    return classification, table


class ReferenceEngine(CountingEngine):
    """Phase 1 per node and the exit seeds per row, as they were."""

    def build_counting_set(self):
        _classification, self.table = reference_phase1(self, self.stats)
        return self.table

    def _exit_states(self, stats):
        resolver = resolver_of(self)
        table = self.table
        for row_id, (pred, row_values) in enumerate(
                zip(table.pred, table.values)):
            exit_rules, _ = self.canonical.rules_by_head(pred)
            for rule in exit_rules:
                query = bound_query(rule.body, rule.bound_vars,
                                    rule.free_vars)
                stats.rule_firings += 1
                for values in query.run(resolver, row_values, stats):
                    yield (pred, values, row_id), rule.label


# -- the parity assertions ------------------------------------------------

def arcs(classification, kind):
    return [(arc.source, arc.target, arc.label)
            for arc in getattr(classification, kind)]


def assert_same_classification(got, expected):
    assert got.source == expected.source
    assert got.order == expected.order
    for kind in ("tree", "forward", "cross", "back"):
        assert arcs(got, kind) == arcs(expected, kind), kind


def assert_phase1_parity(query, db):
    engine = make_engine(query, db)
    stats = EvalStats()
    expected, table = reference_phase1(engine, stats)
    # classify() is the id classification viewed as Arcs; it equals the
    # lazy DFS and classify_arcs over the same per-node successors.
    assert_same_classification(engine.classify(), expected)
    assert_same_classification(
        classify_arcs(expected.source,
                      reference_successors(engine, EvalStats())),
        expected,
    )
    fresh = make_engine(query, db)
    built = fresh.build_counting_set()
    assert built.render() == table.render()
    assert built.back_arc_count == table.back_arc_count
    assert built.ahead_arc_count == table.ahead_arc_count
    assert list(built.t_row) == list(table.t_row)
    assert list(built.t_prev) == list(table.t_prev)
    assert built.t_label == table.t_label
    assert built.t_shared == table.t_shared
    assert built.index == table.index
    assert fresh.stats.as_dict() == stats.as_dict()


def assert_run_parity(query, db):
    """A whole run — phase 1, exit seeds, answer loop — counts the
    same as the reference engine, for both answer orders."""
    for order in ("bfs", "dfs"):
        engine = make_engine(query, db, answer_order=order)
        reference = make_engine(query, db, ReferenceEngine,
                                answer_order=order)
        answers = engine.run()
        assert answers == reference.run()
        assert engine.stats.as_dict() == reference.stats.as_dict()
        assert engine.state_count == reference.state_count
        assert engine.max_frontier == reference.max_frontier
        assert engine.state_key == reference.state_key
        # The first derivation found: seeds in the same order.
        for values in sorted(answers, key=repr):
            assert engine.answer_path(values) \
                == reference.answer_path(values)


def assert_magic_parity(query, db):
    """magic_counting's split: recurring set and acyclic-part table."""
    reference_stats = EvalStats()
    pointer = make_engine(query, db)
    classification, _table = reference_phase1(pointer, reference_stats)
    engine = make_engine(query, db, MagicCountingEngine)
    engine.run()
    assert engine.recurring == recurring_by_scc(classification)
    if engine.table is not None:
        keep = [node for node in classification.order
                if node not in engine.recurring]
        table = engine.table
        assert list(zip(table.pred, table.values)) == keep


def workload_cases():
    for name, workload in sorted(WORKLOADS.items()):
        if any(method in workload.applicable for method in COUNTING):
            yield pytest.param(name, id=name)


def dag(skip_levels=False):
    db, source = duplication_dag_db(8, 6, 1, 1992, skip_levels=skip_levels)
    return _rename_source(db, source, "a")


class TestPhase1Parity:
    def test_example5(self, sg_query, example5_db):
        assert_phase1_parity(sg_query, example5_db)
        assert_run_parity(sg_query, example5_db)
        assert_magic_parity(sg_query, example5_db)

    @pytest.mark.parametrize("name", list(workload_cases()))
    def test_workload(self, name):
        workload = WORKLOADS[name]
        db, _source = workload.make_db()
        assert_phase1_parity(workload.query, db)
        assert_run_parity(workload.query, db)
        assert_magic_parity(workload.query, db)

    @pytest.mark.parametrize("skip_levels", [False, True])
    def test_duplication_dag(self, skip_levels):
        query, db = parse_query(SG_TEXT), dag(skip_levels)
        assert_phase1_parity(query, db)
        assert_run_parity(query, db)
        assert_magic_parity(query, db)

    def test_two_exit_rules_and_a_cycle(self):
        # Exit seeds come per row, then per exit rule: both rules reach
        # y0 at b, and the recorded derivation is the first rule's.
        query = parse_query("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- flat2(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). up(b, c). up(c, b). up(a, c).
            flat(b, y0). flat2(b, y0). flat2(c, z0). flat(a, w).
            down(y0, y1). down(y1, y2). down(z0, z1). down(z1, z2).
        """)
        assert_phase1_parity(query, db)
        assert_run_parity(query, db)
        assert_magic_parity(query, db)


class TestHashSeedIndependence:
    def test_row_ids_and_back_arcs_are_fixed(self):
        # Probe buckets come back in set order, which moves with
        # PYTHONHASHSEED; the repr sort of every successor list keeps
        # discovery order, row ids and back arcs fixed.  CI runs this
        # module under several seeds.
        db = Database.from_text("""
            up(a, e). up(a, c). up(a, b). up(c, d). up(b, d). up(e, d).
            up(d, b). up(d, a). flat(d, y).
        """)
        engine = make_engine(parse_query(SG_TEXT), db)
        assert engine.build_counting_set().render().splitlines() == [
            "o1 : (a, {(r0, [], nil), (r1, [], o3)})",
            "o2 : (b, {(r1, [], o1), (r1, [], o3)})",
            "o3 : (d, {(r1, [], o2), (r1, [], o4), (r1, [], o5)})",
            "o4 : (c, {(r1, [], o1)})",
            "o5 : (e, {(r1, [], o1)})",
        ]
        assert [(arc.source[1], arc.target[1])
                for arc in engine.classify().back] \
            == [(("d",), ("a",)), (("d",), ("b",))]


def sg_db(edges, acyclic):
    def name(i):
        return "a" if i == 0 else "n%d" % i

    db = Database()
    for i, j in edges:
        if acyclic:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
        db.add_fact("up", name(i), name(j))
    for i in range(0, 8, 3):
        db.add_fact("flat", name(i), "y%d" % i)
        db.add_fact("down", "y%d" % i, "y%d" % (i + 1))
        db.add_fact("down", "y%d" % (i + 1), "y%d" % (i + 2))
    return db


EDGES = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                 max_size=24)


class TestGeneratedParity:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edges=EDGES, acyclic=st.booleans())
    def test_random_up_graph(self, edges, acyclic):
        query, db = parse_query(SG_TEXT), sg_db(edges, acyclic)
        assert_phase1_parity(query, db)
        assert_run_parity(query, db)
        assert_magic_parity(query, db)


# -- recurring nodes: back-arc-target reach vs the SCC definition --------

def recurring_by_scc(classification):
    """The SCC definition ``recurring_nodes`` used to compute: nodes on
    an SCC of size > 1 or a self-loop, and everything they reach."""
    from repro.graph.properties import strongly_connected_components

    adjacency = {}
    for arc in classification.arcs:
        adjacency.setdefault(arc.source, set()).add(arc.target)
    sccs = strongly_connected_components(
        adjacency, nodes=set(classification.order)
    )
    members = {}
    for node, component in sccs.items():
        members.setdefault(component, []).append(node)
    cyclic = {node for group in members.values() if len(group) > 1
              for node in group}
    cyclic.update(node for node, targets in adjacency.items()
                  if node in targets)
    recurring, stack = set(), list(cyclic)
    while stack:
        node = stack.pop()
        if node not in recurring:
            recurring.add(node)
            stack.extend(adjacency.get(node, ()))
    return recurring


class TestRecurringNodes:
    @settings(max_examples=200, deadline=None)
    @given(edges=st.lists(st.tuples(st.integers(0, 11),
                                    st.integers(0, 11)), max_size=30))
    def test_back_arc_reach_is_the_scc_definition(self, edges):
        adjacency = {}
        for source, target in edges:
            adjacency.setdefault(source, []).append((target, None))
        classification = classify_arcs(
            0, lambda node: adjacency.get(node, ())
        )
        expected = recurring_by_scc(classification)
        assert classification.recurring() == expected
        assert recurring_nodes(classification) == expected

    def test_self_loops_and_several_sccs(self):
        # 0 -> 1 <-> 2 -> 3 (self-loop) -> 4; 0 -> 5 <-> 6; 0 -> 7.
        pairs = [(0, 1), (1, 2), (2, 1), (2, 3), (3, 3), (3, 4),
                 (0, 5), (5, 6), (6, 5), (0, 7)]
        adjacency = {}
        for source, target in pairs:
            adjacency.setdefault(source, []).append((target, None))
        classification = classify_arcs(
            0, lambda node: adjacency.get(node, ())
        )
        assert classification.recurring() == {1, 2, 3, 4, 5, 6}
        assert recurring_by_scc(classification) == {1, 2, 3, 4, 5, 6}

    def test_acyclic_graph_has_none(self):
        classification = classify_arcs(
            0, lambda node: [(node + 1, None)] if node < 5 else []
        )
        assert classification.recurring() == set()


# -- bind_batch against bind ----------------------------------------------

def call_sites():
    """``site -> (workload name, query)`` for each counting-engine call
    site, plus a body without a generated collector."""
    _adorned, shared = canonical_of(WORKLOADS["shared_vars"].query)
    _adorned, mixed = canonical_of(WORKLOADS["mixed_linear"].query)
    rule = shared.recursive_rules[0]
    exit_rule = shared.exit_rules[0]
    right = next(r for r in mixed.recursive_rules
                 if r.is_left_linear_shape())
    # A negation after the last scan has no batched form (a trailing
    # comparison has one since the generator inlines it).
    slow = parse_query("""
        p(X, Y) :- up1(X, Y, W), not up1(W, X, Y).
        ?- p(a, Y).
    """).program.rules[0]
    return {
        "left": ("shared_vars", bound_query(
            rule.left, rule.bound_vars,
            rule.rec_bound_vars + rule.shared_vars)),
        "exit": ("shared_vars", bound_query(
            exit_rule.body, exit_rule.bound_vars, exit_rule.free_vars)),
        "unwind": ("shared_vars", bound_query(
            rule.right,
            rule.rec_free_vars + rule.shared_vars + rule.bound_vars
            + rule.rec_bound_vars,
            rule.free_vars)),
        "right": ("mixed_linear", bound_query(
            right.right, right.rec_free_vars + right.bound_vars,
            right.free_vars)),
        "slow": ("shared_vars", bound_query(slow.body, ("X",), ("Y",))),
    }


def values_for(db, query, count, seed):
    """Bindings for ``query``'s in names: mostly read off rows of its
    first atom (so they match), some random constants (so they miss)."""
    rng = random.Random(seed)
    constants = sorted(db.constants(), key=repr)
    atom = query.body[0]
    rows = sorted(db.get(atom.key), key=repr)
    batch = []
    for _ in range(count):
        row = dict(zip((arg.name for arg in atom.args), rng.choice(rows)))
        batch.append(tuple(
            row[name] if name in row and rng.random() < 0.8
            else rng.choice(constants)
            for name in query.in_names
        ))
    return batch


class TestBindBatch:
    @pytest.mark.parametrize("site", sorted(call_sites()))
    def test_equals_bind_per_binding(self, site):
        workload, query = call_sites()[site]
        db, _source = WORKLOADS[workload].make_db()
        if site == "slow":
            assert query.compiled.bound_collector(
                query._out_spec, query._loader, batch=True) is None
        resolver = lambda _index, atom: db.get(atom.key)  # noqa: E731
        for seed in range(3):
            batch = values_for(db, query, 60, seed)
            # Repeat a few bindings: results repeat too, counters add.
            batch += batch[:5]
            batched, single = EvalStats(), EvalStats()
            got = query.bind_batch(resolver)(batch, batched)
            one = query.bind(resolver)
            expected = [list(one(values, single)) for values in batch]
            assert got == expected
            assert batched.as_dict() == single.as_dict()
            assert any(got) and not all(got), "vacuous batch"

    def test_empty_batch(self):
        db, _source = WORKLOADS["shared_vars"].make_db()
        resolver = lambda _index, atom: db.get(atom.key)  # noqa: E731
        for _workload, query in call_sites().values():
            stats = EvalStats()
            assert query.bind_batch(resolver)([], stats) == []
            assert stats.as_dict() == EvalStats().as_dict()


# -- budget granularity ---------------------------------------------------

class FakeClock:
    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def chain_engine(depth, budget=None):
    workload = WORKLOADS["sg_chain"]
    db, _source = workload.make_db(depth=depth)
    return make_engine(workload.query, db, budget=budget)


class TestBudgetPerWave:
    def test_deadline_aborts_phase1_with_partial_stats(self):
        full = chain_engine(200)
        full.build_counting_set()
        budget = ResourceBudget(timeout=20.5, clock=FakeClock(1.0))
        engine = chain_engine(200, budget)
        with pytest.raises(DeadlineExceeded) as info:
            engine.build_counting_set()
        assert engine.table is None
        stats = info.value.stats
        assert stats is engine.stats
        # Some waves ran, not all: partial work, no table charged.
        assert 0 < stats.rule_firings < full.stats.rule_firings
        assert stats.facts_derived == 0

    def test_phase1_checks_once_per_wave_answers_once_per_state(self):
        workload = WORKLOADS["sg_tree"]
        db, _source = workload.make_db(fanout=3, depth=4)
        budget = ResourceBudget()
        engine = make_engine(workload.query, db, budget=budget)
        engine.build_counting_set()
        waves = budget.rounds
        assert waves == 5  # the source, then four levels of up arcs
        assert waves < len(engine.table)
        engine.compute_answers()
        assert budget.rounds - waves == engine.state_count
