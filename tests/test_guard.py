"""Resource budgets, cancellation, and the round-boundary guard."""

import pytest

from repro import (
    CancellationToken,
    Database,
    EvalStats,
    ResourceBudget,
    parse_program,
    parse_query,
    run_strategy,
)
from repro.engine.seminaive import SemiNaiveEngine, evaluate_program
from repro.errors import (
    BudgetExceededError,
    CountingDivergenceError,
    DeadlineExceeded,
    EvaluationCancelled,
    EvaluationError,
    FactBudgetExceeded,
    RoundBudgetExceeded,
)
from repro.exec.strategies import STRATEGIES, _divergence_bound


class FakeClock:
    """Deterministic clock advancing a fixed step per reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        current = self.now
        self.now += self.step
        return current


CHAIN_QUERY_TEXT = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
"""


@pytest.fixture
def chain_query():
    return parse_query(CHAIN_QUERY_TEXT)


@pytest.fixture
def chain_db():
    facts = []
    depth = 24
    # A single flat fact at the bottom forces level-by-level
    # propagation: the fixpoint needs ~depth recursive rounds.
    for i in range(depth):
        facts.append(("up", ("x%d" % i, "x%d" % (i + 1))))
        facts.append(("down", ("y%d" % (i + 1), "y%d" % i)))
    facts.append(("flat", ("x%d" % depth, "y%d" % depth)))
    facts.append(("up", ("a", "x0")))
    facts.append(("down", ("y0", "b")))
    return Database.from_facts(facts)


class TestResourceBudget:
    def test_unlimited_never_raises(self):
        budget = ResourceBudget()
        assert budget.is_unlimited()
        for _ in range(100):
            budget.check(EvalStats())

    def test_deadline_with_fake_clock(self):
        clock = FakeClock(step=1.0)
        budget = ResourceBudget(timeout=2.5, clock=clock)
        budget.start()
        budget.check()  # t=1
        budget.check()  # t=2
        with pytest.raises(DeadlineExceeded) as info:
            budget.check()  # t=3 > 2.5
        assert info.value.elapsed is not None

    def test_fact_budget_carries_partial_stats(self):
        budget = ResourceBudget(max_facts=10)
        stats = EvalStats()
        stats.facts_derived = 11
        with pytest.raises(FactBudgetExceeded) as info:
            budget.check(stats)
        assert info.value.stats is stats
        assert info.value.stats.facts_derived == 11

    def test_round_budget(self):
        budget = ResourceBudget(max_rounds=3)
        budget.check()
        budget.check()
        budget.check()
        with pytest.raises(RoundBudgetExceeded):
            budget.check()

    def test_cancellation_token(self):
        token = CancellationToken()
        budget = ResourceBudget(token=token)
        budget.check()
        token.cancel()
        with pytest.raises(EvaluationCancelled):
            budget.check()

    def test_budget_errors_are_not_evaluation_errors(self):
        # The counting executors relabel EvaluationError as divergence;
        # budget errors must never travel that path.
        assert not issubclass(BudgetExceededError, EvaluationError)

    def test_remaining_and_expired(self):
        clock = FakeClock(step=0.0)
        budget = ResourceBudget(timeout=5.0, clock=clock)
        assert budget.remaining() == pytest.approx(5.0)
        assert not budget.expired()
        clock.now = 10.0
        assert budget.expired()

    def test_remaining_clamped_at_zero_after_deadline(self):
        # Callers feed remaining() into queue.get(timeout=...) and
        # child() timeouts; a negative value raises or means "no limit".
        clock = FakeClock(step=0.0)
        budget = ResourceBudget(timeout=5.0, clock=clock)
        budget.start()
        clock.now = 12.0
        assert budget.remaining() == 0.0
        child = budget.child()
        assert child.timeout == 0.0

    def test_remaining_without_timeout_is_none(self):
        assert ResourceBudget().remaining() is None

    def test_expired_matches_check_comparison(self):
        # expired() must agree with check(): strictly-greater, so at
        # the exact deadline instant neither path fires.
        clock = FakeClock(step=0.0)
        budget = ResourceBudget(timeout=5.0, clock=clock)
        budget.start()
        clock.now = 5.0
        assert not budget.expired()
        budget.check()  # must not raise either
        clock.now = 5.0001
        assert budget.expired()
        with pytest.raises(DeadlineExceeded):
            budget.check()

    def test_expired_starts_the_clock(self):
        # Probing a never-started budget must start its clock, exactly
        # as the first check() would — otherwise a budget with a
        # timeout reports "not expired" forever until someone calls
        # start() explicitly.
        clock = FakeClock(step=0.0)
        budget = ResourceBudget(timeout=5.0, clock=clock)
        assert not budget.expired()
        assert budget._started is not None
        clock.now = 10.0
        assert budget.expired()
        assert not ResourceBudget(clock=clock).expired()

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            ResourceBudget(timeout=-1)
        with pytest.raises(ValueError):
            ResourceBudget(max_facts=-1)
        with pytest.raises(ValueError):
            ResourceBudget(max_rounds=-1)


class TestEngineBudgets:
    def test_seminaive_deadline_fires_within_one_round(self, chain_query,
                                                       chain_db):
        clock = FakeClock(step=0.0)
        budget = ResourceBudget(timeout=1.0, clock=clock)
        engine = SemiNaiveEngine(chain_query.program, chain_db,
                                 budget=budget)

        # Expire the clock mid-run: the very next round boundary must
        # abort, so the overshoot is bounded by one round.
        rounds_before_expiry = 2

        class TrippingClock:
            def __call__(self):
                if budget.rounds > rounds_before_expiry:
                    return 100.0
                return 0.0

        budget._clock = TrippingClock()
        budget.start()
        with pytest.raises(DeadlineExceeded):
            engine.run()
        assert budget.rounds == rounds_before_expiry + 1

    def test_fact_budget_aborts_naive(self, chain_query, chain_db):
        budget = ResourceBudget(max_facts=5)
        with pytest.raises(FactBudgetExceeded) as info:
            run_strategy("naive", chain_query, chain_db, budget=budget)
        # Partial stats show how far evaluation got before the abort.
        assert info.value.stats is not None
        assert info.value.stats.facts_derived > 5

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_every_strategy_accepts_a_budget(self, method, chain_query,
                                             chain_db):
        result = run_strategy(
            method, chain_query, chain_db,
            budget=ResourceBudget(timeout=60.0, max_facts=10_000_000),
        )
        assert len(result.answers) > 0

    @pytest.mark.parametrize(
        "method",
        ["naive", "magic", "pointer_counting", "cyclic_counting",
         "magic_counting"],
    )
    def test_cancellation_stops_every_engine_family(self, method,
                                                    chain_query, chain_db):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(EvaluationCancelled):
            run_strategy(method, chain_query, chain_db,
                         budget=ResourceBudget(token=token))


class TestIterationCap:
    def test_cap_checked_before_round(self):
        # A chain needing ~20 rounds, capped at 5: the engine must do
        # exactly 5 rounds (initial naive round included), not 6.
        facts = " ".join(
            "arc(n%d, n%d)." % (i, i + 1) for i in range(20)
        )
        program = parse_program("""
            path(X, Y) :- arc(X, Y).
            path(X, Y) :- arc(X, Z), path(Z, Y).
            %s
        """ % facts)
        stats = EvalStats()
        with pytest.raises(EvaluationError):
            evaluate_program(program, Database(), stats=stats,
                             max_iterations=5)
        assert stats.iterations == 5

    def test_cap_allows_exact_convergence(self):
        # Converging in exactly N rounds under max_iterations=N is fine.
        program = parse_program("""
            path(X, Y) :- arc(X, Y).
            path(X, Y) :- arc(X, Z), path(Z, Y).
            arc(a, b). arc(b, c).
        """)
        stats = EvalStats()
        derived = evaluate_program(program, Database(), stats=stats)
        converged_in = stats.iterations
        again = evaluate_program(program, Database(),
                                 max_iterations=converged_in)
        assert again[("path", 2)].tuples == derived[("path", 2)].tuples


class TestDivergenceGuard:
    """Satellite: divergence must fail typed and fast, never hang."""

    @pytest.fixture
    def cyclic_db(self, example5_db):
        return example5_db

    def test_classical_counting_diverges_typed(self, sg_query, cyclic_db):
        with pytest.raises(CountingDivergenceError):
            run_strategy("classical_counting", sg_query, cyclic_db)

    def test_classical_counting_diverges_under_deadline(self, sg_query,
                                                        cyclic_db):
        # A generous deadline must not mask the divergence check: the
        # iteration bound fires first and keeps the typed error.
        with pytest.raises(CountingDivergenceError):
            run_strategy("classical_counting", sg_query, cyclic_db,
                         budget=ResourceBudget(timeout=60.0))

    def test_encoded_counting_diverges_typed(self, sg_query, cyclic_db):
        with pytest.raises(CountingDivergenceError):
            run_strategy("encoded_counting", sg_query, cyclic_db)

    def test_divergence_bound_scales_with_constants(self):
        small = Database.from_text("up(a, b).")
        large = Database.from_text(
            " ".join("up(n%d, n%d)." % (i, i + 1) for i in range(10))
        )
        assert _divergence_bound(large) > _divergence_bound(small)
        assert _divergence_bound(small) == len(small.constants()) + 3

    def test_tight_budget_beats_divergence_bound(self, sg_query,
                                                 cyclic_db):
        # A fact budget tighter than the divergence bound surfaces as a
        # budget error, not divergence — the caller's limit fired first.
        with pytest.raises(FactBudgetExceeded):
            run_strategy("classical_counting", sg_query, cyclic_db,
                         budget=ResourceBudget(max_facts=2))
