"""Prepared queries, the answer cache, and epoch-based invalidation."""

import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import parse_query
from repro.cli import main as cli_main
from repro.data.workloads import (
    WORKLOADS,
    forest_bindings,
    forest_root,
    sg_forest,
)
from repro.datalog.rules import Program
from repro.engine.database import Database
from repro.engine.instrumentation import EvalStats
from repro.engine.relation import EmptyRelation, Relation
from repro.engine.seminaive import evaluate_program
from repro.errors import (
    CountingDivergenceError,
    NotApplicableError,
    ReproError,
)
from repro.exec import (
    STRATEGIES,
    AnswerCache,
    CountingTableStore,
    PreparedQuery,
    run_strategy,
)

from .test_multibound import QUERY as MULTIBOUND_QUERY
from .test_multibound import make_db as multibound_db


def make_chain(depth=10):
    db, _source = WORKLOADS["sg_chain"].make_db(depth=depth)
    return db


# -- epochs on relations and databases ---------------------------------

class TestEpochs:
    def test_epoch_counts_new_rows_only(self):
        rel = Relation("up", 2)
        assert rel.epoch == 0
        assert rel.add(("a", "b"))
        assert rel.epoch == 1
        assert not rel.add(("a", "b"))  # duplicate: no bump
        assert rel.epoch == 1
        rel.add(("b", "c"))
        assert rel.epoch == 2

    def test_copy_preserves_epoch(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        clone = rel.copy()
        assert clone.epoch == rel.epoch
        clone.add(("b", "c"))
        assert clone.epoch == rel.epoch + 1
        assert rel.epoch == 1  # original untouched

    def test_database_epoch_of_and_snapshot(self):
        db = Database()
        assert db.epoch_of(("up", 2)) == 0  # absent relation
        db.add_fact("up", "a", "b")
        assert db.epoch_of(("up", 2)) == 1
        snapshot = db.epochs((("up", 2), ("down", 2)))
        assert snapshot == (1, 0)
        db.add_fact("down", "x", "y")
        assert db.epochs((("up", 2), ("down", 2))) == (1, 1)

    def test_empty_relation_has_epoch(self):
        assert EmptyRelation("up", 2).epoch == 0


# -- satellite fixes ---------------------------------------------------

class TestSatelliteFixes:
    def test_ensure_index_counts_builds(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        stats = EvalStats()
        rel.ensure_index([0], stats=stats)
        assert stats.index_builds == 1
        rel.ensure_index([0], stats=stats)  # cached: no rebuild
        assert stats.index_builds == 1

    def test_naive_fixpoint_kept_for_later_bindings_is_indexed(self):
        # The goal relation a prepared naive form keeps serves every
        # later binding: it gets the goal's index once; the relation a
        # cold run selects from once gets none.
        db = make_chain(depth=6)
        query = WORKLOADS["sg_chain"].query
        prepared = PreparedQuery(query, db, method="naive")
        first = prepared.run(("a",), db=db)
        relation, _extras = prepared._generation[2]["fixpoint"]
        assert (0,) in relation._indexes
        assert prepared.run(("a",), db=db).answers == first.answers
        assert first.answers == run_strategy("naive", query, db).answers

    def test_empty_relation_lookup_validates_positions(self):
        empty = EmptyRelation("up", 2)
        assert empty.lookup((0,), ("a",)) == ()
        with pytest.raises(ValueError):
            empty.lookup((2,), ("a",))
        with pytest.raises(ValueError):
            empty.lookup((-1,), ("a",))


# -- warm == cold across every strategy ---------------------------------

#: A lower clique (``link``) the goal clique reads like a base relation:
#: the counting evaluators and the pushing-cycle check materialize it
#: before they start, once per database generation when prepared.
SUPPORT_QUERY = parse_query("""
    link(X, Y) :- up(X, Y).
    link(X, Y) :- up(X, Z), hop(Z, Y).
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- link(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
""")
SUPPORT_RULES = Program(SUPPORT_QUERY.program.rules[:2])
#: Strategies that materialize the support rules as a step of their own
#: (the rewritings just carry them inside the evaluated program).
MATERIALIZE_SUPPORT = (
    "extended_counting", "reduced_counting", "pointer_counting",
    "cyclic_counting", "magic_counting",
)
#: ``extras`` that are wall-clock readings.
TIMINGS = ("phase_seconds",)

MATRIX = [
    (name, method)
    for name, workload in WORKLOADS.items()
    if name not in ("sg_chain", "sg_cyclic")  # the two tests below
    for method in STRATEGIES
    if method in workload.applicable
]


def outcome(call):
    try:
        return call(), None
    except ReproError as exc:
        return None, exc


def untimed(extras):
    return {k: v for k, v in extras.items() if k not in TIMINGS}


class TestWarmEqualsCold:
    """``PreparedQuery.run`` against ``run_strategy`` on the bound query:
    one evaluation, so one result — answers, every deterministic work
    counter, the strategy's extras, and the error when there is one."""

    @staticmethod
    def agree(prepared, db, bindings, support=None):
        """Compare both routes binding by binding, all on one database
        generation; returns the outcomes of the last one."""
        method = prepared.method
        for number, constants in enumerate(bindings):
            cold, cold_error = outcome(lambda: run_strategy(
                method, prepared.bind(constants), db
            ))
            warm, warm_error = outcome(
                lambda: prepared.run(constants, db=db)
            )
            where = (method, constants)
            assert type(warm_error) is type(cold_error), where
            assert str(warm_error) == str(cold_error), where
            if cold is None:
                continue
            assert warm.answers == cold.answers, where
            # prepared ⊇ cold, equal on the shared keys.
            shared = {k: warm.extras[k] for k in cold.extras
                      if k in warm.extras}
            assert untimed(shared) == untimed(cold.extras), where
            expected = cold.stats.as_dict()
            if warm.stats.cache_hits:
                expected = EvalStats().as_dict()
            elif number:
                assert warm.stats.prepare_reuse == 1, where
                if method == "naive":
                    # The per-generation memo keeps the whole fixpoint
                    # of the unrewritten program: a repeat filters it.
                    expected = EvalStats().as_dict()
                elif support and method in MATERIALIZE_SUPPORT:
                    # ... and the support relations: a repeat skips
                    # exactly their materialization.
                    expected = {k: v - support[k]
                                for k, v in expected.items()}
            assert warm.stats.as_dict() == expected, where
        return cold, cold_error, warm

    @staticmethod
    def some_bindings(query, db, count=3):
        """The query's own binding, then ``count - 1`` others made of
        constants the database mentions."""
        own = tuple(query.goal.args[i].value
                    for i in query.bound_positions())
        pool = sorted(db.constants() - set(own), key=repr)
        return [own] + [
            tuple(pool[(number + i) % len(pool)] for i in range(len(own)))
            for number in range(1, count)
        ]

    @pytest.mark.parametrize(
        "method", WORKLOADS["sg_chain"].applicable
    )
    def test_acyclic_workload(self, method):
        # With both caches attached: the repeated "a" is an answer-cache
        # hit and must still carry the cold run's extras.
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        prepared = PreparedQuery(
            workload.query, db, method=method,
            cache=AnswerCache(), counting_store=CountingTableStore(),
        )
        _cold, _error, warm = self.agree(
            prepared, db, [("a",), ("x1",), ("x2",), ("a",)]
        )
        assert warm.extras["cache_hit"] is True

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_cyclic_workload(self, method):
        workload = WORKLOADS["sg_cyclic"]
        db, _source = workload.make_db()
        prepared = PreparedQuery(
            workload.query, db, method=method,
            cache=AnswerCache(), counting_store=CountingTableStore(),
        )
        cold, error, _warm = self.agree(
            prepared, db, self.some_bindings(workload.query, db)
        )
        if method in workload.applicable:
            assert error is None and cold.answers
        elif method == "pointer_counting":
            assert isinstance(error, NotApplicableError)

    @pytest.mark.parametrize(
        "method", ["classical_counting", "encoded_counting",
                   "extended_counting", "reduced_counting"],
    )
    def test_divergence_says_the_same_on_both_routes(self, method):
        workload = WORKLOADS["sg_cyclic"]
        db, _source = workload.make_db()
        prepared = PreparedQuery(workload.query, db, method=method)
        wording = method.replace("_", " ") + (
            ": the left graph has a cycle through pushing rule "
            if method in ("extended_counting", "reduced_counting")
            else " diverged (cyclic left-part relation?): "
        )
        for call in (
            lambda: run_strategy(method, prepared.bind(), db),
            lambda: prepared.run(db=db),
        ):
            with pytest.raises(CountingDivergenceError) as raised:
                call()
            assert str(raised.value).startswith(wording)

    @pytest.mark.parametrize(
        "name, method", MATRIX, ids=["%s-%s" % cell for cell in MATRIX]
    )
    def test_every_applicable_cell(self, name, method):
        workload = WORKLOADS[name]
        db, _source = workload.make_db()
        prepared = PreparedQuery(workload.query, db, method=method)
        _cold, error, _warm = self.agree(
            prepared, db, self.some_bindings(workload.query, db)
        )
        assert error is None

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_two_bound_arguments(self, method):
        db = multibound_db()
        prepared = PreparedQuery(MULTIBOUND_QUERY, db, method=method)
        self.agree(prepared, db, [
            ("paris", "metro"), ("lyon", "tgv"), ("nice", "metro"),
        ])

    @pytest.mark.parametrize(
        "method", ("naive", "magic") + MATERIALIZE_SUPPORT
    )
    def test_support_rules_materialize_once_per_generation(self, method):
        db = make_chain()
        db.add_facts([("hop", ("x2", "x4")), ("hop", ("x3", "x5"))])
        support = EvalStats()
        evaluate_program(SUPPORT_RULES, db, stats=support)
        assert support.total_work
        prepared = PreparedQuery(SUPPORT_QUERY, db, method=method)
        bindings = [("a",), ("x1",), ("x2",)]
        self.agree(prepared, db, bindings, support=support.as_dict())
        # The database moved: the first binding pays again.
        db.add_fact("hop", "x1", "x3")
        self.agree(prepared, db, bindings[:1])

    def test_nothing_prepared_takes_the_cold_route(self):
        # Prepare-time NotApplicableError: the form is built anyway and
        # every run raises what the cold run raises.
        workload = WORKLOADS["nonlinear"]
        db, _source = workload.make_db()
        prepared = PreparedQuery(workload.query, db,
                                 method="pointer_counting")
        _cold, error, _warm = self.agree(
            prepared, db, self.some_bindings(workload.query, db)
        )
        assert isinstance(error, NotApplicableError)

    def test_auto_method_matches_plan(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        prepared = PreparedQuery(workload.query, db)
        assert prepared.method == "pointer_counting"
        self.agree(prepared, db, [("a",)])


# -- answer cache behaviour --------------------------------------------

class TestAnswerCache:
    def test_repeat_is_a_hit(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db, cache=cache)
        first = prepared.run(db=db)
        second = prepared.run(db=db)
        assert first.stats.cache_hits == 0
        assert first.stats.cache_misses == 1
        assert second.stats.cache_hits == 1
        assert second.extras["cache_hit"] is True
        assert second.answers == first.answers
        assert cache.hits == 1 and cache.misses == 1

    def test_mutation_invalidates_dependent_entries(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db, cache=cache)
        before = prepared.run(db=db)
        db.add_fact("flat", "a", "fresh_peer")
        after = prepared.run(db=db)
        cold = run_strategy(prepared.method, prepared.bind(), db)
        assert after.stats.cache_hits == 0  # stale entry not served
        assert after.answers == cold.answers
        assert ("fresh_peer",) in after.answers
        assert ("fresh_peer",) not in before.answers

    def test_unrelated_mutation_keeps_entries_valid(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db, cache=cache)
        prepared.run(db=db)
        db.add_fact("unrelated_pred", "x", "y")
        again = prepared.run(db=db)
        assert again.stats.cache_hits == 1

    def test_lru_eviction_bounds_size(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache(capacity=2)
        prepared = PreparedQuery(workload.query, db, cache=cache)
        for constant in ("a", "x1", "x2"):
            prepared.run((constant,), db=db)
        assert len(cache) == 2
        assert cache.evictions == 1
        # "a" was evicted (least recently used): re-running misses but
        # still answers correctly.
        result = prepared.run(("a",), db=db)
        assert result.stats.cache_hits == 0
        cold = run_strategy(prepared.method, prepared.bind(("a",)), db)
        assert result.answers == cold.answers

    def test_cache_rejects_entry_from_other_database(self):
        workload = WORKLOADS["sg_chain"]
        db_one = make_chain()
        db_two = make_chain()  # same facts, same epochs, different db
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db_one, cache=cache)
        prepared.run(db=db_one)
        result = prepared.run(db=db_two)
        assert result.stats.cache_hits == 0
        assert cache.invalidations == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=0)

    def test_stats_snapshot_is_consistent(self):
        cache = AnswerCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        snap = cache.stats()
        assert snap == {
            "size": 2, "capacity": 2, "lookups": 2, "hits": 1,
            "misses": 1, "evictions": 1, "invalidations": 0,
            "hit_rate": 0.5,
        }
        assert cache.hit_rate == 0.5

    def test_stats_never_torn_under_contention(self):
        # hit_rate and stats() read multiple counters; each snapshot
        # must satisfy hits + misses == lookups even while other
        # threads are mid-lookup.
        import threading

        cache = AnswerCache(capacity=8)
        stop = threading.Event()
        torn = []

        def mutate():
            i = 0
            while not stop.is_set():
                cache.put(i % 16, i)
                cache.get((i + 3) % 16)
                i += 1

        def observe():
            for _ in range(2000):
                snap = cache.stats()
                if snap["hits"] + snap["misses"] != snap["lookups"]:
                    torn.append(snap)
                    break
                if not 0.0 <= cache.hit_rate <= 1.0:  # pragma: no cover
                    torn.append("hit_rate")
                    break

        workers = [threading.Thread(target=mutate) for _ in range(3)]
        watcher = threading.Thread(target=observe)
        for thread in workers:
            thread.start()
        watcher.start()
        watcher.join(timeout=60.0)
        stop.set()
        for thread in workers:
            thread.join(timeout=60.0)
        assert not torn
        cache.assert_consistent()

    def test_prepare_reuse_counter(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        prepared = PreparedQuery(workload.query, db)
        first = prepared.run(("a",), db=db)
        second = prepared.run(("x1",), db=db)
        assert first.stats.prepare_reuse == 0
        assert second.stats.prepare_reuse == 1
        assert second.extras["prepared"] is True


# -- counting-table memoization ----------------------------------------

class TestCountingTableStore:
    def test_warm_repeat_skips_phase_one(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        store = CountingTableStore()
        prepared = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        first = prepared.run(db=db)
        second = prepared.run(db=db)
        assert first.extras["counting_table_reused"] is False
        assert second.extras["counting_table_reused"] is True
        assert second.answers == first.answers
        assert store.hits == 1

    def test_mutation_invalidates_stored_table(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        store = CountingTableStore()
        prepared = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        prepared.run(db=db)
        db.add_fact("up", "x9", "x_extra")
        result = prepared.run(db=db)
        assert result.extras["counting_table_reused"] is False
        assert store.invalidations == 1
        cold = run_strategy("pointer_counting", prepared.bind(), db)
        assert result.answers == cold.answers

    def test_store_shared_across_prepared_instances(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        store = CountingTableStore()
        first = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        first.run(db=db)
        second = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        result = second.run(db=db)
        assert result.extras["counting_table_reused"] is True

    def test_store_stats_snapshot(self):
        store = CountingTableStore(capacity=1)
        epochs = (("up", 2, 1),)
        store.put("n1", epochs, "table-one")
        assert store.get("n1", epochs) == "table-one"
        assert store.get("n1", (("up", 2, 9),)) is None  # stale
        store.put("n2", epochs, "table-two")
        snap = store.stats()
        assert snap == {
            "size": 1, "capacity": 1, "lookups": 2, "hits": 1,
            "misses": 1, "evictions": 0, "invalidations": 1,
            "hit_rate": 0.5,
        }
        assert store.hit_rate == 0.5
        assert "1 hits" in repr(store)
        store.assert_consistent()


# -- lookup: the look-up half of run, and the hash-once form key -------

class TestLookup:
    def test_lookup_is_the_look_up_half_of_run(self):
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db,
                                 cache=cache)
        # A miss evaluates nothing and stores nothing.
        assert prepared.lookup(("a",), db=db) is None
        assert len(cache) == 0
        ran = prepared.run(("a",), db=db)
        looked_up = prepared.lookup(("a",), db=db)
        rerun = prepared.run(("a",), db=db)
        for hit in (looked_up, rerun):
            assert hit.answers == ran.answers
            assert hit.method == prepared.method
            assert hit.stats.cache_hits == 1
            assert hit.stats.cache_misses == 0
            assert hit.stats.total_work == 0
            assert hit.extras["cache_hit"] is True
        assert looked_up.extras == rerun.extras
        # ``lookups`` counts probes: the lookup that missed, run's own
        # probe before evaluating, and the two hits.
        snap = cache.stats()
        assert (snap["lookups"], snap["hits"], snap["misses"]) == (4, 2, 2)

    def test_hit_extras_are_private_to_the_caller(self):
        db = make_chain()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db,
                                 cache=AnswerCache())
        prepared.run(db=db)
        prepared.lookup(db=db).extras["scribble"] = True
        assert "scribble" not in prepared.lookup(db=db).extras

    def test_lookup_without_a_cache_is_none(self):
        db = make_chain()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db)
        prepared.run(db=db)
        assert prepared.lookup(db=db) is None

    def test_lookup_checks_its_arguments_like_run(self):
        db = make_chain()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db,
                                 cache=AnswerCache())
        with pytest.raises(ValueError):
            prepared.lookup(("a", "b"), db=db)
        with pytest.raises(TypeError):
            prepared.lookup(("a",))  # no database

    def test_lookup_validates_epochs_and_lineage(self):
        db_one = make_chain()
        db_two = make_chain()  # same facts, same epochs, different db
        cache = AnswerCache()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db_one,
                                 cache=cache)
        prepared.run(db=db_one)
        assert prepared.lookup(db=db_one.snapshot()) is not None
        assert prepared.lookup(db=db_two) is None
        assert cache.invalidations == 1
        prepared.run(db=db_one)
        db_one.add_fact("flat", "a", "fresh_peer")
        assert prepared.lookup(db=db_one) is None


FORM_RULES = (
    """
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    q(X, Y) :- f(X, Y).
    q(X, Y) :- f(X, Z), q(Z, Y).
    """,
    """
    p(X, Y) :- e(X, Y).
    p(X, Y) :- f(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    q(X, Y) :- f(X, Y).
    q(X, Y) :- f(X, Z), q(Z, Y).
    """,
)
#: Goal templates: two predicates, two adornments; ``%s`` is the goal's
#: own constant, which is the default binding and no part of the form.
FORM_GOALS = ("p(%s, Y)", "p(X, %s)", "q(%s, Y)")
form_specs = st.tuples(
    st.sampled_from(FORM_RULES), st.sampled_from(FORM_GOALS),
    st.sampled_from(("a", "b")),
    st.sampled_from(("magic", "sup_magic", "naive")),
)
form_edges = st.lists(
    st.tuples(st.sampled_from(("e", "f")),
              st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))),
    max_size=12,
)


class TestFormKey:
    @staticmethod
    def _prepared(spec, db, cache):
        rules, goal, constant, method = spec
        query = parse_query("%s\n?- %s." % (rules, goal % constant))
        return PreparedQuery(query, db, method=method, cache=cache)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(form_specs, form_specs, form_edges)
    @example((FORM_RULES[0], FORM_GOALS[0], "a", "magic"),
             (FORM_RULES[0], FORM_GOALS[0], "b", "magic"),
             [("e", ("a", "b")), ("e", ("b", "c"))])
    def test_key_is_structural_and_hashed_once(self, one, two, edges):
        db = Database.from_facts(edges)
        cache = AnswerCache()
        first = self._prepared(one, db, cache)
        second = self._prepared(two, db, cache)
        same_form = all(
            part(first) == part(second) for part in (
                lambda p: p.template.goal.key,
                lambda p: p.template.adornment(),
                lambda p: p.method,
                lambda p: p.template.program.rules,
            )
        )
        key, other = first._form_key, second._form_key
        hashed = hash(key)
        assert (key == other) == same_form
        assert (key != other) != same_form
        if same_form:
            assert hash(other) == hashed
        # Equal forms — and only they — exchange cache entries.
        ran = first.run(("a",), db=db)
        shared = second.lookup(("a",), db=db)
        assert (shared is not None) == same_form
        if same_form:
            assert shared.answers == ran.answers
        assert second.run(("a",), db=db).answers == run_strategy(
            second.method, second.bind(("a",)), db
        ).answers
        assert hash(key) == hashed

    def test_key_is_not_its_parts(self):
        db = make_chain()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db)
        key = prepared._form_key
        assert key != key.parts and key.parts != key
        assert prepared.method in repr(key)


# -- batches and the forest workload -----------------------------------

class TestRunBatch:
    def test_results_follow_binding_order(self):
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        bindings = forest_bindings(trees=3, queries=9)
        prepared = PreparedQuery(
            WORKLOADS["sg_forest"].query, db, cache=AnswerCache(),
        )
        results = prepared.run_batch(bindings, db=db)
        assert len(results) == len(bindings)
        for binding, result in zip(bindings, results):
            cold = run_strategy(
                prepared.method, prepared.bind(binding), db
            )
            assert result.answers == cold.answers

    def test_batch_is_deterministic(self):
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        bindings = forest_bindings(trees=3, queries=6)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        first = [
            r.answers for r in prepared.run_batch(bindings, db=db)
        ]
        second = [
            r.answers for r in prepared.run_batch(bindings, db=db)
        ]
        assert first == second

    def test_forest_roots_are_disjoint(self):
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        answer_sets = [
            prepared.run((forest_root(i),), db=db).answers
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (answer_sets[i] & answer_sets[j])
            assert answer_sets[i]

    def test_binding_arity_checked(self):
        db = make_chain()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db)
        with pytest.raises(ValueError):
            prepared.run(("a", "b"), db=db)
        with pytest.raises(TypeError):
            prepared.run(("a",))  # no database


# -- CLI ---------------------------------------------------------------

class TestCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "sg.dl"
        path.write_text("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        return str(path)

    @pytest.fixture
    def db_file(self, tmp_path):
        path = tmp_path / "facts.dl"
        path.write_text("""
            up(a, b). up(b, c).
            flat(c, c1). flat(b, b1).
            down(c1, d1). down(d1, e1). down(b1, f1).
        """)
        return str(path)

    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_cache_flag(self, program_file, db_file):
        code, text = self.run_cli(
            "run", program_file, "--db", db_file, "--cache"
        )
        assert code == 0
        assert "(prepared)" in text
        assert "cache  :" in text

    def test_batch_flag_marks_repeats(self, program_file, db_file):
        code, text = self.run_cli(
            "run", program_file, "--db", db_file, "--cache",
            "--batch", "a,b,a",
        )
        assert code == 0
        assert text.count("(cached)") == 1
        assert "1 hits, 2 misses" in text

    def test_cache_conflicts_with_resilient(self, program_file, db_file):
        code, text = self.run_cli(
            "run", program_file, "--db", db_file, "--cache",
            "--resilient",
        )
        assert code == 1
        assert "cannot be combined" in text
