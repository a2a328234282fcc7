"""The generated answer loop against the interpreted loop it replaced.

``CountingEngine._answer_loop`` runs every state pop through one
function generated per clique (``codegen.generate_answer_loop``) over
the quotient memoized on the table (``CountingTable.quotient``), with
each step's right part inlined and the counters kept in locals.  The
``ReferenceEngine`` here keeps the loop it replaced: a quotient
building one ``(rule, bound runner, arguments, target key)`` step per
in-triple and left-linear rule, and a ``while`` loop calling the bound
runners with ``values + arguments`` and writing every counter to
``stats`` as it goes.  Both must agree on the answers, the state count,
the largest frontier, every ``EvalStats`` field and ``answer_path`` —
and, on an abort mid-loop, on the error and the partial counters it
carries.
"""

from collections import deque
from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database, parse_query
from repro.datalog.atoms import Comparison
from repro.datalog.rules import Program, Query, Rule
from repro.datalog.terms import Compound
from repro.data import WORKLOADS
from repro.data.workloads import SG_TEXT
from repro.engine import EvalStats, codegen, faults
from repro.engine import compile as compile_module
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.guard import ResourceBudget
from repro.errors import BudgetExceededError
from repro.exec.counting_engine import CountingEngine
from repro.exec.magic_counting import MagicCountingEngine
from repro.rewriting.adornment import adorn_query
from repro.rewriting.canonical import canonicalize_clique, query_constants
from repro.rewriting.support import goal_clique_of

from .test_state_key import (
    SHAPES,
    TWO_DISTANCES,
    build_db,
    build_query,
    pairs,
    programs,
)

COUNTING = ("pointer_counting", "cyclic_counting", "magic_counting")
KEYS = ("node", "distance", "none")


# -- the reference: the interpreted quotient and loop --------------------

class ReferenceEngine(CountingEngine):
    """The answer phase as it was before the loop was generated."""

    def _reference_quotient(self, name):
        table = self.table
        if name == "node":
            key_of = range(len(table))
        elif name == "distance":
            key_of = table.depths()
        else:
            key_of = [table.source_id] * len(table)
        steps = {}
        merged = None if name == "node" else set()

        def add(row_id, entry, arguments, target):
            key = key_of[row_id]
            if merged is not None:
                if (key, entry[0]) in merged:
                    return
                merged.add((key, entry[0]))
            steps.setdefault(key, []).append(entry + (arguments, target))

        if name != "none":
            for ordinal, label in enumerate(table.t_label):
                if label is not None:
                    row_id = table.t_row[ordinal]
                    prev_id = table.t_prev[ordinal]
                    rule = self.rules_by_label[label]
                    query = self._query(
                        "reference-unwind", rule, rule.right,
                        rule.rec_free_vars + rule.shared_vars
                        + rule.bound_vars + rule.rec_bound_vars,
                        rule.free_vars,
                    )
                    add(row_id, (rule, query),
                        table.t_shared[ordinal] + table.values[prev_id]
                        + table.values[row_id], key_of[prev_id])
        in_place = [
            (rule, self._query("reference-right", rule, rule.right,
                               rule.rec_free_vars + rule.bound_vars,
                               rule.free_vars))
            for rule in self.canonical.recursive_rules
            if rule.is_left_linear_shape()
        ]
        for row_id, pred in enumerate(table.pred if in_place else ()):
            for entry in in_place:
                if entry[0].head_key == pred:
                    add(row_id, entry, table.values[row_id],
                        key_of[row_id])
        return key_of, steps

    def _answer_loop(self, name, seeds, stats, budget=None, parents=None):
        key_of, steps = self._reference_quotient(name)
        goal_key = self.goal_key
        source_key = key_of[self.table.source_id]
        seen = set()
        answers = set()
        pending = deque()
        take = pending.pop if self.answer_order == "dfs" else pending.popleft
        for (pred, values, row_id), label in chain(
                self._exit_states(stats), seeds):
            state = (pred, values, key_of[row_id])
            if state in seen:
                stats.facts_duplicate += 1
                continue
            seen.add(state)
            pending.append(state)
            if parents is not None:
                parents[state] = (label, None)
        frontier = len(pending)
        while pending:
            if budget is not None:
                budget.check(stats)
            faults.fire("unwind", stats)
            stats.iterations += 1
            state = take()
            pred, values, key = state
            if key == source_key and pred == goal_key:
                answers.add(values)
            for rule, query, arguments, target in steps.get(key, ()):
                if rule.rec_key != pred:
                    continue
                stats.rule_firings += 1
                for out in query(values + arguments, stats):
                    new_state = (rule.head_key, out, target)
                    if new_state in seen:
                        stats.facts_duplicate += 1
                        continue
                    seen.add(new_state)
                    stats.facts_derived += 1
                    pending.append(new_state)
                    if parents is not None:
                        parents[new_state] = (rule.label, state)
            frontier = max(frontier, len(pending))
        return frozenset(answers), len(seen), frontier


class ReferenceMagic(MagicCountingEngine):
    """magic_counting with the reference loop over its acyclic part."""

    def __init__(self, canonical, goal_key, source_values, get_relation,
                 **kwargs):
        super().__init__(canonical, goal_key, source_values, get_relation,
                         **kwargs)
        self._pointer = ReferenceEngine(
            canonical, goal_key, source_values, get_relation,
            stats=self.stats, budget=kwargs.get("budget"),
        )


def make(cls, query, db, **kwargs):
    adorned = adorn_query(query)
    clique, _support = goal_clique_of(adorned)
    return cls(canonicalize_clique(clique, adorned), adorned.goal.key,
               query_constants(adorned.goal), db.get, **kwargs)


def pair(method, query, db, **kwargs):
    """``(generated, reference)`` engines of ``method``, unrun."""
    if method == "magic_counting":
        return (make(MagicCountingEngine, query, db, **kwargs),
                make(ReferenceMagic, query, db, **kwargs))
    kwargs["require_acyclic"] = method == "pointer_counting"
    return (make(CountingEngine, query, db, **kwargs),
            make(ReferenceEngine, query, db, **kwargs))


# -- the parity assertions ------------------------------------------------

def assert_run_parity(method, query, db, order="bfs"):
    kwargs = {} if method == "magic_counting" else {"answer_order": order}
    engine, reference = pair(method, query, db, **kwargs)
    answers = engine.run()
    assert answers == reference.run()
    assert engine.stats.as_dict() == reference.stats.as_dict()
    assert engine.state_count == reference.state_count
    assert engine.state_key == reference.state_key
    if method == "magic_counting":
        engine, reference = engine._pointer, reference._pointer
        if engine.table is None:
            return engine
    assert engine.max_frontier == reference.max_frontier
    for values in sorted(answers, key=repr):
        assert engine.answer_path(values) == reference.answer_path(values)
    return engine


def assert_key_parity(query, db, order="bfs"):
    """The loop under every key the table admits, parents recorded."""
    engine, reference = pair("cyclic_counting", query, db,
                             answer_order=order)
    engine.build_counting_set()
    reference.build_counting_set()
    ran = []
    for name in KEYS:
        if name == "distance" and engine.table.depths() is None:
            continue
        got_stats, want_stats = EvalStats(), EvalStats()
        got_parents, want_parents = {}, {}
        got = engine._answer_loop(name, (), got_stats,
                                  parents=got_parents)
        want = reference._answer_loop(name, (), want_stats,
                                      parents=want_parents)
        assert got == want, name
        assert got_stats.as_dict() == want_stats.as_dict(), name
        assert got_parents == want_parents, name
        ran.append(name)
    return ran


def outcome(engine, injector=None):
    """``(error type, message, partial counters)`` of one run, aborted
    by its budget or by ``injector``."""
    try:
        if injector is not None:
            with injector:
                engine.run()
        else:
            engine.run()
    except (BudgetExceededError, InjectedFault) as exc:
        stats = getattr(exc, "stats", None) or engine.stats
        return type(exc), str(exc), stats.as_dict()
    return None, None, engine.stats.as_dict()


def assert_budget_parity(method, query, db, **limits):
    engine, _ = pair(method, query, db, budget=ResourceBudget(**limits))
    _, reference = pair(method, query, db, budget=ResourceBudget(**limits))
    got = outcome(engine)
    assert got == outcome(reference)
    return got


def workload_cases():
    for name, workload in sorted(WORKLOADS.items()):
        for method in COUNTING:
            if method in workload.applicable:
                yield pytest.param(name, method, id="%s-%s" % (name, method))


def chain_db():
    """sg over a chain deep enough for many answer-phase pops."""
    facts = [("flat", ("x12", "y12"))]
    for i in range(12):
        facts.append(("up", ("a" if i == 0 else "x%d" % i, "x%d" % (i + 1))))
        facts.append(("down", ("y%d" % (i + 1), "y%d" % i)))
    return Database.from_facts(facts)


# -- the cases ------------------------------------------------------------

class TestWorkloads:
    @pytest.mark.parametrize("name,method", list(workload_cases()))
    @pytest.mark.parametrize("order", ["bfs", "dfs"])
    def test_run_parity(self, name, method, order):
        workload = WORKLOADS[name]
        db, _source = workload.make_db()
        assert_run_parity(method, workload.query, db, order)

    @pytest.mark.parametrize("name", sorted(
        name for name, workload in WORKLOADS.items()
        if "cyclic_counting" in workload.applicable
    ))
    @pytest.mark.parametrize("order", ["bfs", "dfs"])
    def test_every_state_key(self, name, order):
        workload = WORKLOADS[name]
        db, _source = workload.make_db()
        ran = assert_key_parity(workload.query, db, order)
        assert "node" in ran and "none" in ran

    def test_all_three_keys_are_chosen_somewhere(self):
        chosen = set()
        for name, workload in WORKLOADS.items():
            if "cyclic_counting" in workload.applicable:
                db, _source = workload.make_db()
                chosen.add(assert_run_parity(
                    "cyclic_counting", workload.query, db).state_key)
        assert chosen == set(KEYS)


class TestMagicBoundary:
    def test_boundary_seeds(self):
        # A non-recurring head over a cycle: the acyclic part answers
        # through the boundary arc's virtual exits.
        db = Database.from_text("""
            up(a, b). up(b, c). up(c, d). up(d, c). up(a, e).
            flat(d, y0). flat(e, w0). flat(b, v0).
            down(y0, y1). down(y1, y2). down(y2, y3). down(y3, y4).
            down(w0, w1). down(v0, v1).
        """)
        engine = assert_run_parity("magic_counting", parse_query(SG_TEXT),
                                   db)
        assert engine.table is not None and len(engine.table) > 1
        assert engine._seeds    # the boundary states

    def test_recurring_source_is_pure_magic(self):
        db = Database.from_text("""
            up(a, b). up(b, a). flat(b, y0). down(y0, y1). down(y1, y2).
        """)
        assert_run_parity("magic_counting", parse_query(SG_TEXT), db)


class TestAbortMidLoop:
    """Limits placed at a share of what an unlimited run uses: past
    phase 1 (one check per breadth wave), inside the answer loop."""

    @staticmethod
    def unlimited(method):
        budget = ResourceBudget()
        engine, _ = pair(method, parse_query(SG_TEXT), chain_db(),
                         budget=budget)
        engine.run()
        return budget.rounds, engine.stats.facts_derived

    @pytest.mark.parametrize("method", COUNTING)
    @pytest.mark.parametrize("share", [0.6, 0.75, 0.9])
    def test_round_budget(self, method, share):
        rounds, _facts = self.unlimited(method)
        kind, _message, _stats = assert_budget_parity(
            method, parse_query(SG_TEXT), chain_db(),
            max_rounds=int(rounds * share),
        )
        assert kind is not None

    @pytest.mark.parametrize("method", COUNTING)
    @pytest.mark.parametrize("share", [0.6, 0.75, 0.9])
    def test_fact_budget(self, method, share):
        # The decision reads facts_derived: counters kept in locals
        # must reach stats before every check.
        _rounds, facts = self.unlimited(method)
        kind, message, stats = assert_budget_parity(
            method, parse_query(SG_TEXT), chain_db(),
            max_facts=int(facts * share),
        )
        assert kind is not None
        assert "(%d derived)" % stats["facts_derived"] in message

    @pytest.mark.parametrize("method", COUNTING)
    @pytest.mark.parametrize("after", [1, 4, 9])
    def test_injected_unwind_fault(self, method, after):
        query, db = parse_query(SG_TEXT), chain_db()
        engine, reference = pair(method, query, db)
        got = outcome(engine, FaultInjector(seed=0).raise_mid_fixpoint(
            after=after, points=("unwind",)))
        want = outcome(reference, FaultInjector(seed=0).raise_mid_fixpoint(
            after=after, points=("unwind",)))
        assert got == want
        assert got[0] is InjectedFault


#: Right parts of the arc rule beyond plain scans: ``(rule, facts,
#: inlined)`` — a trailing comparison and an arithmetic assignment are
#: inlined (their rows admitted after the body), a negation keeps the
#: bound runner.
SHAPED_BODIES = {
    "trailing_filter": (
        "p(X, Y) :- up(X, X1), p(X1, Y1), down(Y1, Y), Y > 2.", True),
    "trailing_assign": (
        "p(X, Y) :- up(X, X1), p(X1, Y1), down(Y1, Z), Y is 360 * Z.",
        True),
    "negation": (
        "p(X, Y) :- up(X, X1), p(X1, Y1), down(Y1, Y), not bad(Y).",
        False),
}


def shaped_db(zero=False):
    """A chain of six ``up`` arcs over integer ``down`` pairs; with
    ``zero``, one ``down`` row among several of its bucket divides by
    zero.  Integers hash alike under every hash seed, so each bucket's
    order, and the row that raises first, are fixed."""
    facts = [("flat", ("x6", 1)), ("bad", (4,))]
    for i in range(6):
        facts.append(("up", ("a" if i == 0 else "x%d" % i, "x%d" % (i + 1))))
    for i in range(1, 40):
        facts.append(("down", (i, i + 1)))
        facts.append(("down", (i, 2 * i + 3)))
    if zero:
        facts += [("down", (1, z)) for z in (0, 7, 9, 11)]
    return Database.from_facts(facts)


class TestBodyShapes:
    @pytest.mark.parametrize("shape", sorted(SHAPED_BODIES))
    @pytest.mark.parametrize("method", COUNTING)
    def test_parity(self, shape, method):
        rule, inlined = SHAPED_BODIES[shape]
        query = parse_query("p(X, Y) :- flat(X, Y). %s ?- p(a, Y)." % rule)
        engine = assert_run_parity(method, query, shaped_db())
        if method != "magic_counting":
            assert bool(engine._loop()[0].fallback) is not inlined

    def test_error_mid_body_leaves_the_runners_counters(self):
        # ``360 // 0`` raises after other rows of the step's bucket
        # were projected: no state of that step may be admitted.  The
        # parser reads no ``//``: the ``*`` is swapped for it.
        rule, _inlined = SHAPED_BODIES["trailing_assign"]
        query = parse_query("p(X, Y) :- flat(X, Y). %s ?- p(a, Y)." % rule)
        arc = query.program.rules[1]
        step = arc.body[-1]
        divide = Comparison(step.op, step.left,
                            Compound("//", step.right.args))
        query = Query(query.goal, Program([
            query.program.rules[0],
            Rule(arc.head, arc.body[:-1] + (divide,), label=arc.label),
        ]))
        engine, reference = pair("cyclic_counting", query,
                                 shaped_db(zero=True))
        got, want = [], []
        for run, out in ((engine, got), (reference, want)):
            with pytest.raises(ZeroDivisionError):
                run.run()
            out.append(run.stats.as_dict())
        assert got == want


class TestMutantIsCaught:
    """A generated loop that skips one flush of its local counters
    must fail the parity checks above."""

    @pytest.mark.parametrize("skipped", [0, 1],
                             ids=["before-check", "at-end"])
    def test_skipped_flush(self, monkeypatch, skipped):
        calls = []
        flush = codegen._flush

        def mutant(w, pad):
            # Every generated loop flushes twice: before the check,
            # then at the end.
            calls.append(pad)
            if (len(calls) - 1) % 2 != skipped:
                flush(w, pad)
            else:
                w(pad, "pass")

        monkeypatch.setattr(codegen, "_flush", mutant)
        monkeypatch.setattr(codegen, "_CODE_CACHE", {})
        monkeypatch.setattr(compile_module, "_LOOP_CACHE", {})
        with pytest.raises(AssertionError):
            # A whole run sees the flush at the end, an abort the one
            # before the check.
            assert_run_parity("cyclic_counting", parse_query(SG_TEXT),
                              chain_db())
            assert_budget_parity("cyclic_counting", parse_query(SG_TEXT),
                                 chain_db(), max_facts=18)


PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomGraphs:
    def test_loop_equals_reference(self):
        @PROPERTY
        @given(programs, st.sampled_from(SHAPES), pairs, pairs, pairs,
               st.sampled_from(["bfs", "dfs"]))
        @example(*TWO_DISTANCES, "bfs")
        def run(program, shape, up, down, flat, order):
            query = build_query(program)
            db = build_db(shape, up, down, flat)
            assert_run_parity("cyclic_counting", query, db, order)
            assert_run_parity("magic_counting", query, db)
            assert_key_parity(query, db, order)

        run()
