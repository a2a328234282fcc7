"""Data-parallel sharded fixpoint: plan, executor, and fault paths.

Covers the partition planner's decisions and determinism (hypothesis
property tests), the multiprocess executor's answer/counter equivalence
against serial evaluation across the full workload matrix, picklable
typed errors, per-worker deterministic fault derivation, and the
strategy as one stage of a resilient chain.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.workloads import WORKLOADS
from repro.engine.database import Database
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.guard import ResourceBudget
from repro.engine.instrumentation import EvalStats
from repro.errors import (
    BudgetExceededError,
    DeadlineExceeded,
    EvaluationCancelled,
    EvaluationError,
    FactBudgetExceeded,
    NotApplicableError,
    RoundBudgetExceeded,
)
from repro.exec.resilient import (
    DEFAULT_CHAIN,
    FallbackPolicy,
    run_resilient,
)
from repro.exec.strategies import run_strategy
from repro.parallel import (
    DEFAULT_BROADCAST_ROWS,
    ParallelEngine,
    WorkerCrashError,
    plan_partitions,
    shard_of,
    shard_rows,
)

#: Workloads the sharded executor accepts (linear positive programs).
LINEAR_WORKLOADS = sorted(
    name for name in WORKLOADS if name != "nonlinear"
)


def _inline_run(query, db, budget=None):
    """The executor's serial oracle: same engine, no processes."""
    engine = ParallelEngine(query, db, workers=1, budget=budget,
                            inline=True)
    engine.run()
    return engine


# -- the partition plan ------------------------------------------------


class TestPlan:
    def test_sg_tree_plan_decisions(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        plan = plan_partitions(w.query, db, workers=4)
        summary = plan.as_dict()
        assert summary["workers"] == 4
        # Deltas route on sg's first argument; up co-locates on its
        # own first column, down never joins the partition variable.
        assert summary["partition"]["sg/2"] == 0
        assert summary["sharded"]["up/2"] == 1
        assert "down/2" in summary["broadcast"]

    def test_small_relations_broadcast(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=2, depth=2)
        plan = plan_partitions(w.query, db, workers=2)
        # Everything is tiny: nothing clears the broadcast threshold.
        assert not plan.sharded
        assert all(
            len(db.get(key)) < DEFAULT_BROADCAST_ROWS
            for key in plan.broadcast
        )

    def test_nonlinear_rejected(self):
        w = WORKLOADS["nonlinear"]
        db, _src = w.make_db()
        with pytest.raises(NotApplicableError):
            plan_partitions(w.query, db, workers=2)

    def test_facts_rejected(self):
        from repro import parse_query

        query = parse_query("""
            p(a, b).
            t(X, Y) :- p(X, Y).
            ?- t(a, Y).
        """)
        with pytest.raises(NotApplicableError):
            plan_partitions(query, Database(), workers=2)


class TestPlanProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=0, max_size=60,
        ),
        workers=st.integers(1, 7),
        column=st.integers(0, 1),
    )
    def test_shard_rows_is_a_partition(self, rows, workers, column):
        """Every row lands in exactly one shard."""
        db = Database()
        for i, j in rows:
            db.add_fact("e", "n%d" % i, "n%d" % j)
        relation = db.get(("e", 2))
        stored = list(relation._log) if rows else []
        pool = db.intern_pool
        shards = shard_rows(stored, column, workers, pool)
        assert len(shards) == workers
        flattened = [row for shard in shards for row in shard]
        assert sorted(flattened) == sorted(stored)
        for index, shard in enumerate(shards):
            for row in shard:
                assert shard_of(pool.ident(row[column]), workers) == index

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        fanout=st.integers(1, 3),
        depth=st.integers(1, 4),
        workers=st.integers(1, 6),
    )
    def test_plan_is_deterministic(self, fanout, depth, workers):
        """Same (program, db sizes, workers) -> identical plan dicts."""
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=fanout, depth=depth)
        first = plan_partitions(w.query, db, workers=workers)
        second = plan_partitions(w.query, db, workers=workers)
        assert first.as_dict() == second.as_dict()

    def test_shard_of_is_process_independent(self):
        """shard_of mixes intern ids, never the salted builtin hash."""
        expected = [shard_of(i, 4) for i in range(32)]
        import subprocess
        import sys

        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.parallel import shard_of; "
            "print([shard_of(i, 4) for i in range(32)])"
        )
        output = subprocess.run(
            [sys.executable, "-c", code], cwd=".",
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert output == str(expected)


# -- executor equivalence ----------------------------------------------


class TestExecutorEquivalence:
    @pytest.mark.parametrize(
        "wname", LINEAR_WORKLOADS,
        ids=["columnar-" + wname for wname in LINEAR_WORKLOADS],
    )
    def test_matrix_matches_serial(self, wname):
        """workers=2 answers and merged counters equal the serial run
        on every linear workload, shards shipped as id columns."""
        w = WORKLOADS[wname]
        db, _src = w.make_db()
        naive = run_strategy("naive", w.query, db)
        inline = _inline_run(w.query, db)
        engine = ParallelEngine(w.query, db, workers=2)
        engine.run()
        assert engine.answers == naive.answers
        assert inline.answers == naive.answers
        assert engine.stats.as_dict() == inline.stats.as_dict()

    def test_worker_count_invariance(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        inline = _inline_run(w.query, db)
        for workers in (2, 3, 5):
            engine = ParallelEngine(w.query, db, workers=workers)
            engine.run()
            assert engine.answers == inline.answers
            assert engine.stats.as_dict() == inline.stats.as_dict()

    def test_strategy_surface_and_extras(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=4)
        result = run_strategy("parallel", w.query, db, workers=2)
        naive = run_strategy("naive", w.query, db)
        assert result.answers == naive.answers
        assert result.method == "parallel"
        assert result.extras["workers"] == 2
        assert result.extras["barriers"] >= 1
        assert result.extras["exchange_bytes"] > 0
        phases = result.extras["phase_seconds"]
        assert set(phases) == {"plan", "execute"}
        assert "partition" in result.extras["plan"]

    def test_missing_base_relations_yield_empty_answers(self):
        """An empty database (every base relation an EmptyRelation
        stand-in) runs cleanly through the sharded executor instead of
        crashing while shipping shards, and agrees with serial."""
        w = WORKLOADS["sg_tree"]
        db = Database.from_text("")
        naive = run_strategy("naive", w.query, db)
        result = run_strategy("parallel", w.query, db, workers=2)
        assert result.answers == naive.answers
        assert not result.answers

    def test_nonlinear_raises_not_applicable(self):
        w = WORKLOADS["nonlinear"]
        db, _src = w.make_db()
        with pytest.raises(NotApplicableError):
            run_strategy("parallel", w.query, db, workers=2)

    def test_deadline_budget_fires(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=6)
        budget = ResourceBudget(timeout=0.0)
        with pytest.raises(DeadlineExceeded):
            run_strategy("parallel", w.query, db, workers=2,
                         budget=budget)


# -- picklable typed errors (multiprocessing transport) ----------------


class TestErrorPickling:
    @pytest.mark.parametrize("cls", [
        EvaluationError,
        BudgetExceededError,
        DeadlineExceeded,
        FactBudgetExceeded,
        RoundBudgetExceeded,
        EvaluationCancelled,
        WorkerCrashError,
    ])
    def test_roundtrip_keeps_stats_payload(self, cls):
        stats = EvalStats()
        stats.facts_derived = 17
        stats.iterations = 3
        error = cls("boom", stats=stats)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert str(clone) == "boom"
        assert clone.stats is not None
        assert clone.stats.facts_derived == 17
        assert clone.stats.iterations == 3

    def test_injected_fault_roundtrips(self):
        stats = EvalStats()
        stats.rule_firings = 5
        error = InjectedFault("injected @ round", stats=stats)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is InjectedFault
        assert clone.stats.rule_firings == 5

    def test_stats_roundtrip_standalone(self):
        stats = EvalStats()
        stats.tuples_scanned = 123
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.as_dict() == stats.as_dict()


# -- per-worker deterministic fault derivation -------------------------


class TestFaultDerivation:
    def test_derived_streams_are_pool_size_independent(self):
        """Worker k's damage stream depends on (seed, k) only."""
        for worker in range(4):
            streams = []
            for _pool_size in (2, 4, 8):
                derived = FaultInjector(seed=42).derive(worker)
                streams.append(
                    [derived.random.random() for _ in range(16)]
                )
            assert streams[0] == streams[1] == streams[2]

    def test_derived_streams_differ_across_workers(self):
        base = FaultInjector(seed=7)
        seeds = {base.derive(w).seed for w in range(8)}
        assert len(seeds) == 8
        assert base.seed == 7  # deriving never perturbs the base

    def test_same_seed_same_damage(self):
        a = [FaultInjector(seed=3).derive(1).random.random()
             for _ in range(1)]
        b = [FaultInjector(seed=3).derive(1).random.random()
             for _ in range(1)]
        assert a == b

    def test_spec_roundtrip_preserves_plans(self):
        injector = FaultInjector(seed=9).kill_worker(worker=2, after=3)
        clone = FaultInjector.from_spec(injector.spec())
        assert clone.seed == 9
        assert clone._kill_worker_target == 2
        assert clone._kill_worker_after == 3
        spec = injector.spec()
        assert pickle.loads(pickle.dumps(spec)) == spec


# -- worker crash degradation ------------------------------------------


class TestCrashDegradation:
    def test_clean_run_stays_parallel(self):
        """A chain may name ``parallel`` like any registered strategy;
        the stage runs with the strategy's own defaults."""
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=4)
        report = run_resilient(
            w.query, db,
            FallbackPolicy(chain=("parallel",) + DEFAULT_CHAIN),
        )
        assert report.method == "parallel"
        assert report.fallback_depth == 0
