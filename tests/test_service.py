"""The concurrent serving layer: admission control, deadlines,
retries, circuit breakers and graceful drain.

Fake prepared objects (anything with ``method`` / ``run`` / ``bind``)
drive the deterministic control-flow tests; the real
``PreparedQuery`` over an ``sg_forest`` database backs the
answers-identical and breaker/fallback integration tests and — with an
answer cache, through conftest's ``cached_service`` — the tests of
cache hits answered on the submitter's thread.  Thread
timing never decides an assertion: blocking fakes gate on events, and
deadlines/breakers run on injectable fake clocks.
"""

import sys
import threading
import time
import weakref

import pytest

from repro import Database
from repro.data.workloads import (
    WORKLOADS,
    forest_bindings,
    forest_root,
    poison_forest,
    sg_forest,
)
from repro.durability.audit import (
    AuditLog,
    epoch_hash,
    read_audit,
    verify_audit,
)
from repro.engine.guard import CancellationToken, ResourceBudget
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    CountingDivergenceError,
    DeadlineExceeded,
    EvaluationCancelled,
    EvaluationError,
    FactBudgetExceeded,
    NotApplicableError,
    ReproError,
    RoundBudgetExceeded,
    Overloaded,
    ServiceClosed,
    ServiceError,
)
from repro.exec import AnswerCache, CountingTableStore, PreparedQuery
from repro.exec import resilient
from repro.exec.resilient import FallbackPolicy, run_resilient
from repro.exec.strategies import run_strategy
from repro.serve import (
    BreakerBoard,
    CircuitBreaker,
    QueryService,
    RetryPolicy,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeResult:
    """Duck-types ExecutionResult far enough for the service."""

    def __init__(self, answers=frozenset()):
        self.answers = frozenset(answers)
        self.method = "fake"
        self.extras = {}


class FakePrepared:
    """A scriptable prepared query: per-call outcomes, optional gate.

    ``outcomes`` is a list of either exceptions (raised) or answer
    iterables (returned); the list is consumed per run call and the
    last entry repeats.  With ``gate`` set, every run blocks until the
    gate event fires (``started`` signals pickup).
    """

    method = "pointer_counting"

    def __init__(self, outcomes=((),), gate=None):
        self.outcomes = list(outcomes)
        self.gate = gate
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def run(self, constants, db=None, budget=None):
        with self._lock:
            self.calls += 1
            outcome = (
                self.outcomes.pop(0) if len(self.outcomes) > 1
                else self.outcomes[0]
            )
        self.started.set()
        if self.gate is not None:
            self.gate.wait()
        if isinstance(outcome, BaseException):
            raise outcome
        return FakeResult(outcome)

    def bind(self, constants):
        return WORKLOADS["sg_forest"].query


class CancellableFake(FakePrepared):
    """Blocks until the request's cancellation token flips."""

    def run(self, constants, db=None, budget=None):
        self.started.set()
        budget.token.wait(30.0)
        budget.check()
        raise AssertionError("token never cancelled")


def tiny_db():
    return Database.from_text("flat(a, b).")


def assert_ledger(counters):
    assert counters["submitted"] == (
        counters["admitted"] + counters["shed_overload"]
        + counters["shed_quota"] + counters["rejected_closed"]
    )
    assert counters["admitted"] == (
        counters["completed"] + counters["failed"]
        + counters["cancelled"] + counters["shed_expired"]
        + counters["inflight"]
    )
    assert counters["inline_hits"] <= counters["completed"]


class TestCancellationToken:
    def test_flip_visible_across_threads(self):
        token = CancellationToken()
        seen = []

        def watcher():
            seen.append(token.wait(5.0))

        thread = threading.Thread(target=watcher)
        thread.start()
        token.cancel()
        thread.join()
        assert seen == [True]
        assert token.cancelled

    def test_wait_timeout_returns_flag(self):
        token = CancellationToken()
        assert token.wait(0.0) is False
        token.cancel()
        assert token.wait(0.0) is True

    def test_monotonic(self):
        token = CancellationToken()
        token.cancel()
        token.cancel()
        assert token.cancelled


class TestBudgetChild:
    def test_child_clamps_to_remaining(self):
        clock = FakeClock()
        parent = ResourceBudget(timeout=10.0, clock=clock).start()
        clock.advance(4.0)
        child = parent.child()
        assert child.timeout == pytest.approx(6.0)

    def test_child_never_extends_deadline(self):
        clock = FakeClock()
        parent = ResourceBudget(timeout=2.0, clock=clock).start()
        child = parent.child(timeout=100.0)
        assert child.timeout == pytest.approx(2.0)

    def test_child_tighter_timeout_kept(self):
        clock = FakeClock()
        parent = ResourceBudget(timeout=10.0, clock=clock).start()
        child = parent.child(timeout=1.0)
        assert child.timeout == pytest.approx(1.0)

    def test_expired_parent_yields_zero_allowance(self):
        clock = FakeClock()
        parent = ResourceBudget(timeout=1.0, clock=clock).start()
        clock.advance(5.0)
        child = parent.child()
        assert child.timeout == 0.0
        child.start()
        clock.advance(1e-9)  # any movement at all breaches it
        with pytest.raises(DeadlineExceeded):
            child.check()

    def test_child_inherits_caps_token_and_clock(self):
        token = CancellationToken()
        clock = FakeClock()
        parent = ResourceBudget(max_facts=7, max_rounds=3, token=token,
                                clock=clock)
        child = parent.child()
        assert child.timeout is None
        assert child.max_facts == 7
        assert child.max_rounds == 3
        assert child.token is token
        assert child._clock is clock

    def test_child_overrides(self):
        parent = ResourceBudget(max_facts=7)
        override = CancellationToken()
        child = parent.child(max_facts=1, max_rounds=9, token=override)
        assert child.max_facts == 1
        assert child.max_rounds == 9
        assert child.token is override

    def test_unlimited_parent_passes_through(self):
        child = ResourceBudget().child(timeout=3.0)
        assert child.timeout == pytest.approx(3.0)
        assert child.is_unlimited() is False


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0,
                                 clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_rejects_until_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.allow() is False
        assert breaker.rejections == 1
        clock.advance(10.0)
        assert breaker.allow() is True
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow() is True
        # Probe in flight: concurrent requests are rejected.
        assert breaker.allow() is False

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_retrips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert breaker.allow() is False

    def test_stalled_probe_readmits_after_cooldown(self):
        # A probe whose attempt ends without a recordable outcome
        # (budget abort, cancellation) must not wedge the breaker
        # half-open forever.
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow() is True   # probe admitted, never recorded
        assert breaker.allow() is False  # slot held within the cooldown
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow() is True   # fresh probe after cooldown
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_board_creates_and_aggregates(self):
        clock = FakeClock()
        board = BreakerBoard(threshold=1, cooldown=5.0, clock=clock)
        board.get("naive").record_failure()
        board.get("magic")
        assert board.states() == {"naive": OPEN, "magic": CLOSED}
        assert board.trips == 1
        board.get("naive").allow()
        assert board.rejections == 1
        assert {name for name, _breaker in board} == {"naive", "magic"}


class TestRetryPolicy:
    def test_same_seed_same_request_identical_delays(self):
        policy = RetryPolicy(max_attempts=4, seed=42)
        assert list(policy.backoff(7)) == list(policy.backoff(7))

    def test_distinct_requests_distinct_jitter(self):
        policy = RetryPolicy(max_attempts=4, seed=42)
        assert list(policy.backoff(1)) != list(policy.backoff(2))

    def test_schedule_length_and_growth(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1,
                             multiplier=2.0, jitter=0.0, seed=0)
        delays = list(policy.backoff(0))
        assert delays == pytest.approx([0.1, 0.2])

    def test_single_attempt_means_no_delays(self):
        assert list(RetryPolicy(max_attempts=1).backoff(0)) == []


class TestCacheContention:
    """Satellite: the LRU caches stay consistent under thread races."""

    THREADS = 8
    OPS = 300

    def _hammer(self, worker):
        failures = []

        def wrapped(index):
            try:
                worker(index)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=wrapped, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_answer_cache_counters_balance(self):
        cache = AnswerCache(capacity=16)

        def worker(index):
            for op in range(self.OPS):
                key = ("q", (op + index) % 24)
                if cache.get(key) is None:
                    cache.put(key, (None, frozenset([(op,)])))
                cache.assert_consistent()

        self._hammer(worker)
        cache.assert_consistent()
        assert cache.lookups == self.THREADS * self.OPS
        assert len(cache) <= 16

    def test_answer_cache_contention_with_injected_stalls(
            self, fault_injector):
        cache = AnswerCache(capacity=8)
        fault_injector.delay_sections(0.0005, every=7)

        def worker(index):
            for op in range(60):
                key = (op + index) % 12
                entry = cache.get(key)
                if entry is None:
                    cache.put(key, (None, frozenset()))

        with fault_injector:
            self._hammer(worker)
        cache.assert_consistent()
        assert fault_injector.sections_stalled > 0

    def test_counters_expose_atomic_cache_snapshots(self):
        db, _source = sg_forest(trees=2, fanout=2, depth=3)
        cache = AnswerCache(capacity=16)
        store = CountingTableStore(capacity=8)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db,
                                 cache=cache, counting_store=store)
        bindings = forest_bindings(trees=2, queries=4)
        service = QueryService(prepared, db, workers=2,
                               queue_capacity=8)
        try:
            for binding in bindings:
                service.run(binding, wait=60.0)
            counters = service.counters()
        finally:
            service.drain()
        for block, source in (("answer_cache", cache),
                              ("counting_store", store)):
            snap = counters[block]
            assert snap == source.stats()
            assert snap["hits"] + snap["misses"] == snap["lookups"]
        assert counters["answer_cache"]["lookups"] > 0

    def test_counting_store_counters_balance(self):
        store = CountingTableStore(capacity=8)
        epochs = (("up", 2, 0),)

        def worker(index):
            for op in range(self.OPS):
                key = ("src", (op + index) % 12)
                if store.get(key, epochs) is None:
                    store.put(key, epochs, {"table": op})
                store.assert_consistent()

        self._hammer(worker)
        store.assert_consistent()
        assert store.lookups == self.THREADS * self.OPS


class TestAdmissionControl:
    def test_queue_full_sheds_typed_and_fast(self):
        gate = threading.Event()
        fake = FakePrepared(gate=gate)
        service = QueryService(fake, tiny_db(), workers=1,
                               queue_capacity=2, snapshots=False)
        try:
            first = service.submit()
            assert fake.started.wait(5.0)  # worker holds request 1
            queued = [service.submit(), service.submit()]
            with pytest.raises(Overloaded) as excinfo:
                service.submit()
            assert excinfo.value.reason == "queue_full"
            assert isinstance(excinfo.value, ServiceError)
            gate.set()
            for future in [first] + queued:
                assert future.result(10.0).answers == frozenset()
        finally:
            gate.set()
            service.drain()
        counters = service.counters()
        assert counters["shed_overload"] == 1
        assert counters["admitted"] == 3
        assert counters["submitted"] == (
            counters["admitted"] + counters["shed_overload"]
            + counters["rejected_closed"]
        )
        assert counters["max_queue_depth"] <= 2

    def test_deadline_expired_in_queue_sheds_unevaluated(self):
        clock = FakeClock()
        gate = threading.Event()
        fake = FakePrepared(gate=gate)
        service = QueryService(fake, tiny_db(), workers=1,
                               queue_capacity=4, snapshots=False,
                               clock=clock)
        try:
            blocker = service.submit()
            assert fake.started.wait(5.0)
            calls_before = fake.calls
            doomed = service.submit(timeout=1.0)
            clock.advance(5.0)
            gate.set()
            assert blocker.result(10.0) is not None
            with pytest.raises(Overloaded) as excinfo:
                doomed.result(10.0)
            assert excinfo.value.reason == "expired"
            # Shed without evaluation: run never saw the request.
            assert fake.calls == calls_before
        finally:
            gate.set()
            service.drain()
        assert service.counters()["shed_expired"] == 1

    def test_default_timeout_applies(self):
        clock = FakeClock()
        gate = threading.Event()
        fake = FakePrepared(gate=gate)
        service = QueryService(fake, tiny_db(), workers=1,
                               queue_capacity=4, default_timeout=2.0,
                               snapshots=False, clock=clock)
        try:
            blocker = service.submit(timeout=100.0)
            assert fake.started.wait(5.0)
            doomed = service.submit()  # inherits default_timeout=2.0
            clock.advance(3.0)
            gate.set()
            blocker.result(10.0)
            with pytest.raises(Overloaded):
                doomed.result(10.0)
        finally:
            gate.set()
            service.drain()

    def test_submit_after_drain_raises_service_closed(self):
        fake = FakePrepared()
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False)
        service.drain()
        with pytest.raises(ServiceClosed):
            service.submit()
        assert service.counters()["rejected_closed"] == 1


class TestDeadlinePropagation:
    def test_attempt_budget_carries_remaining_deadline(self):
        clock = FakeClock()
        seen = []

        class Probe(FakePrepared):
            def run(self, constants, db=None, budget=None):
                seen.append(budget)
                return FakeResult()

        service = QueryService(Probe(), tiny_db(), workers=1,
                               queue_capacity=4, snapshots=False,
                               clock=clock)
        try:
            service.run(timeout=8.0, wait=10.0)
        finally:
            service.drain()
        (budget,) = seen
        assert budget.timeout == pytest.approx(8.0)
        assert budget.token is not None

    def test_caller_budget_caps_survive_derivation(self):
        parent = ResourceBudget(max_facts=5, max_rounds=2)
        seen = []

        class Probe(FakePrepared):
            def run(self, constants, db=None, budget=None):
                seen.append(budget)
                return FakeResult()

        service = QueryService(Probe(), tiny_db(), workers=1,
                               snapshots=False)
        try:
            service.run(budget=parent, wait=10.0)
        finally:
            service.drain()
        (budget,) = seen
        assert budget.max_facts == 5
        assert budget.max_rounds == 2
        assert budget is not parent  # fresh child per attempt


class TestRetries:
    def test_budget_abort_retries_with_seeded_backoff(self):
        sleeps = []
        fake = FakePrepared(outcomes=[
            BudgetExceededError("attempt 1"),
            BudgetExceededError("attempt 2"),
            (("a",),),
        ])
        retry = RetryPolicy(max_attempts=3, seed=11)
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False, retry=retry,
                               sleep=sleeps.append)
        try:
            result = service.run(wait=10.0)
        finally:
            service.drain()
        assert result.answers == frozenset({("a",)})
        assert result.extras["service"]["attempts"] == 3
        assert sleeps == list(retry.backoff(0))
        assert service.counters()["retried"] == 2

    def test_retries_exhausted_reraises_budget_error(self):
        fake = FakePrepared(outcomes=[BudgetExceededError("always")])
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False,
                               retry=RetryPolicy(max_attempts=2, seed=0),
                               sleep=lambda _s: None)
        try:
            with pytest.raises(BudgetExceededError):
                service.run(wait=10.0)
        finally:
            service.drain()
        counters = service.counters()
        assert counters["retried"] == 1
        assert counters["failed"] == 1
        assert fake.calls == 2

    def test_no_retry_past_request_deadline(self):
        clock = FakeClock()
        fake = FakePrepared(outcomes=[BudgetExceededError("slow")])
        retry = RetryPolicy(max_attempts=5, base_delay=10.0, seed=0)
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False, retry=retry,
                               clock=clock, sleep=lambda _s: None)
        try:
            with pytest.raises(BudgetExceededError):
                # Deadline 1s, first backoff delay ≥ 10s: no retry fits.
                service.run(timeout=1.0, wait=10.0)
        finally:
            service.drain()
        assert service.counters()["retried"] == 0
        assert fake.calls == 1

    @pytest.mark.parametrize("error_class", [FactBudgetExceeded,
                                             RoundBudgetExceeded])
    def test_deterministic_budget_aborts_fail_fast(self, error_class):
        # Fact/round caps are deterministic against the pinned snapshot:
        # retrying them burns a worker slot to fail identically.
        fake = FakePrepared(outcomes=[error_class("cap")])
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False,
                               retry=RetryPolicy(max_attempts=5, seed=0),
                               sleep=lambda _s: None)
        try:
            with pytest.raises(error_class):
                service.run(wait=10.0)
        finally:
            service.drain()
        assert service.counters()["retried"] == 0
        assert service.counters()["failed"] == 1
        assert fake.calls == 1

    def test_budget_aborts_never_trip_breakers(self):
        board = BreakerBoard(threshold=1, clock=FakeClock())
        fake = FakePrepared(outcomes=[BudgetExceededError("abort")])
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False, breakers=board,
                               retry=RetryPolicy(max_attempts=1))
        try:
            with pytest.raises(BudgetExceededError):
                service.run(wait=10.0)
        finally:
            service.drain()
        assert board.get(fake.method).state == CLOSED
        assert board.trips == 0


class TestBreakersAndFallback:
    def test_strategy_failures_trip_breaker_then_skip_to_fallback(self):
        db, _source = sg_forest(trees=2, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        poison_forest(db, tree=1)
        poisoned = (forest_root(1),)
        baseline = run_strategy("naive", prepared.bind(poisoned),
                                db).answers
        board = BreakerBoard(threshold=2, cooldown=1e9)
        service = QueryService(prepared, db, workers=1,
                               queue_capacity=8, breakers=board)
        try:
            results = [service.run(poisoned, wait=60.0)
                       for _ in range(4)]
        finally:
            service.drain()
        assert all(r.answers == baseline for r in results)
        assert all(r.extras["service"]["fallback"] for r in results)
        assert board.get(prepared.method).state == OPEN
        counters = service.counters()
        assert counters["fallbacks"] == 4
        assert counters["completed"] == 4
        assert counters["breaker_trips"] >= 1
        # Once open, the primary strategy is skipped outright.
        assert counters["breaker_rejections"] >= 1

    def test_fallback_annotates_resilient_summary(self):
        db, _source = sg_forest(trees=1, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        poison_forest(db, tree=0)
        service = QueryService(prepared, db, workers=1, queue_capacity=4)
        try:
            result = service.run((forest_root(0),), wait=60.0)
        finally:
            service.drain()
        summary = result.extras["service"]["resilient"]
        assert summary["succeeded"] is True
        assert summary["method"] == result.method
        assert summary["fallback_depth"] >= 1
        outcomes = [a["outcome"] for a in summary["attempts"]]
        assert outcomes[-1] == "ok"
        assert all(a["breaker"] is not None for a in summary["attempts"])

    def test_open_breaker_without_fallback_raises_typed(self):
        board = BreakerBoard(threshold=1, cooldown=1e9,
                             clock=FakeClock())
        board.get(FakePrepared.method).record_failure()
        fake = FakePrepared()
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False, breakers=board,
                               fallback=False)
        try:
            with pytest.raises(CircuitOpenError):
                service.run(wait=10.0)
        finally:
            service.drain()
        assert fake.calls == 0

    def test_strategy_error_without_fallback_propagates(self):
        fake = FakePrepared(outcomes=[NotApplicableError("nope")])
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False, fallback=False)
        try:
            with pytest.raises(NotApplicableError):
                service.run(wait=10.0)
        finally:
            service.drain()
        assert service.counters()["failed"] == 1


class TestResilientBreakers:
    """run_resilient's breaker/budget_factory seams, used standalone."""

    def test_open_breaker_skips_stage_with_zero_elapsed_record(self):
        db, _source = sg_forest(trees=1, fanout=2, depth=2)
        query = WORKLOADS["sg_forest"].query
        board = BreakerBoard(threshold=1, cooldown=1e9,
                             clock=FakeClock())
        board.get("pointer_counting").record_failure()
        report = run_resilient(query, db, breakers=board)
        assert report.succeeded
        assert report.method != "pointer_counting"
        skipped = report.attempts[0]
        assert skipped.error_class == "CircuitOpenError"
        assert skipped.elapsed == 0.0
        assert skipped.breaker_state == OPEN

    def test_real_failures_feed_breakers(self, sg_query, example5_db):
        board = BreakerBoard(threshold=1, cooldown=1e9,
                             clock=FakeClock())
        report = run_resilient(sg_query, example5_db, breakers=board)
        assert report.succeeded
        failed = [a.method for a in report.attempts
                  if a.failed and a.error_class != "CircuitOpenError"]
        for method in failed:
            assert board.get(method).state == OPEN
        assert board.get(report.method).state == CLOSED

    def test_budget_factory_overrides_policy_budget(self, sg_query,
                                                    sg_db):
        built = []

        def factory():
            budget = ResourceBudget(timeout=30.0)
            built.append(budget)
            return budget

        report = run_resilient(sg_query, sg_db,
                               FallbackPolicy(timeout=0.000001),
                               budget_factory=factory)
        # The generous factory budget wins over the starved policy one.
        assert report.succeeded
        assert len(built) == len(report.attempts)

    def test_summary_shape(self, sg_query, sg_db):
        summary = run_resilient(sg_query, sg_db).summary()
        assert summary["succeeded"] is True
        assert summary["fallback_depth"] == 0
        assert summary["budget_aborts"] == 0
        assert summary["total_elapsed"] >= 0.0
        (attempt,) = summary["attempts"]
        assert attempt["method"] == summary["method"]
        assert attempt["outcome"] == "ok"
        assert attempt["breaker"] is None


class TickingClock(FakeClock):
    """Every reading is ``step`` seconds after the last."""

    def __init__(self, step):
        super().__init__()
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestOneReportPerRequest:
    """A poisoned binding served through the service: the primary
    ``pointer_counting`` attempt and every fallback stage are one
    ``run_resilient`` report."""

    BINDING = (forest_root(1),)

    @staticmethod
    def poisoned():
        db, _source = sg_forest(trees=2, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        poison_forest(db, tree=1)
        return prepared, db

    def test_every_attempt_is_reported(self, tmp_path):
        prepared, db = self.poisoned()
        path = str(tmp_path / "audit.jsonl")
        audit = AuditLog(path, flush_every=1)
        service = QueryService(prepared, db, workers=1, audit=audit)
        try:
            result = service.run(self.BINDING, wait=60.0)
        finally:
            service.drain()
            audit.close()
        block = result.extras["service"]
        assert [a["method"] for a in block["resilient"]["attempts"]] == [
            "pointer_counting", "extended_counting", "magic_counting"]
        assert block["attempts"] == 3
        assert block["resilient"]["fallback_depth"] == 2
        (row,), torn = read_audit(path)
        assert torn is None
        assert (row["attempts"], row["fallback"]) == (3, True)

    def test_fallback_takes_no_copy_of_the_snapshot(self, monkeypatch):
        prepared, db = self.poisoned()
        copies = []
        original = Database.copy

        def counted_copy(self):
            copies.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(Database, "copy", counted_copy)
        service = QueryService(prepared, db, workers=1)
        try:
            result = service.run(self.BINDING, wait=60.0)
        finally:
            service.drain()
        assert result.extras["service"]["fallback"] is True
        assert copies == []

    def test_deadline_in_a_fallback_stage_fails_the_request_with_it(
            self, monkeypatch):
        prepared, db = self.poisoned()
        started = []
        cold = resilient.run_strategy

        def spied(method, *args, **kwargs):
            started.append(method)
            return cold(method, *args, **kwargs)

        monkeypatch.setattr(resilient, "run_strategy", spied)
        service = QueryService(prepared, db, workers=1,
                               clock=TickingClock(0.05))
        try:
            with pytest.raises(DeadlineExceeded) as info:
                service.run(self.BINDING, timeout=1.0, wait=60.0)
        finally:
            service.drain()
        attempts = info.value.report.attempts
        assert attempts[0].method == "pointer_counting"
        assert attempts[-1].error is info.value
        # No stage started after the one whose deadline fired.
        assert started == [a.method for a in attempts[1:]]


class Scripted:
    """Per-stage outcomes for the failure-table tests: the stage of
    ``method`` raises a fresh ``errors[method]()`` on every call, every
    other stage answers; ``calls`` logs the stages that ran."""

    def __init__(self, errors):
        self.errors = errors
        self.calls = []

    def __call__(self, method):
        self.calls.append(method)
        if method in self.errors:
            raise self.errors[method]()
        result = FakeResult({("a",)})
        result.method = method
        return result


class ScriptedPrepared(FakePrepared):
    def __init__(self, script):
        super().__init__()
        self.script = script

    def run(self, constants, db=None, budget=None):
        return self.script(self.method)


#: One row per outcome of :data:`repro.exec.resilient.OUTCOMES` (plus
#: success and a refusing breaker): the error the stage raises, the
#: action under a per-attempt limit and under the caller's budget, and
#: the stage breaker's (successes, failures, rejections) record.
TABLE = [
    ("success", None, "return", "return", (1, 0, 0)),
    ("not_applicable", NotApplicableError, "next", "next", (0, 1, 0)),
    ("divergence", CountingDivergenceError, "next", "next", (0, 1, 0)),
    ("evaluation_error", EvaluationError, "next", "next", (0, 1, 0)),
    ("breaker_open", "open", "skip", "skip", (0, 0, 1)),
    ("cancelled", EvaluationCancelled, "raise", "raise", (0, 0, 0)),
    ("deadline", DeadlineExceeded, "next", "retry", (0, 0, 0)),
    ("fact_cap", FactBudgetExceeded, "next", "raise", (0, 0, 0)),
    ("round_cap", RoundBudgetExceeded, "next", "raise", (0, 0, 0)),
]
TABLE_CASES = [
    pytest.param(row, caller, stage, route,
                 id="%s-%s-stage%d-%s" % (row[0], budget, stage, route))
    for row in TABLE
    for budget, caller, routes in (
        ("per_attempt", False, ("run_resilient",)),
        ("caller", True, ("run_resilient", "service")),
    )
    for stage in (0, 1)
    for route in routes
]


class TestOneFailureTable:
    """Every row of the one failure table, through ``run_resilient``
    and — under the caller's budget — through ``QueryService``: the two
    routes take the same action and leave the same breaker record."""

    CHAIN = resilient.DEFAULT_CHAIN  # stage 0 is FakePrepared.method

    @pytest.mark.parametrize("row, caller, stage, route", TABLE_CASES)
    def test_row(self, monkeypatch, row, caller, stage, route):
        _name, error, per_attempt, on_caller, expected_record = row
        method = self.CHAIN[stage]
        errors = {self.CHAIN[0]: lambda: NotApplicableError("stage 0")} \
            if stage else {}
        board = BreakerBoard(threshold=1, cooldown=1e9, clock=FakeClock())
        breaker = board.get(method)
        if error == "open":
            breaker.record_failure()
        elif error is not None:
            errors[method] = lambda: error("scripted")
        before = (breaker.successes, breaker.failures, breaker.rejections)
        script = Scripted(errors)
        monkeypatch.setattr(
            resilient, "run_strategy",
            lambda name, query, db, budget=None, **_: script(name),
        )
        retry = RetryPolicy(max_attempts=2, seed=0)
        raised = None
        try:
            if route == "service":
                service = QueryService(
                    ScriptedPrepared(script), tiny_db(), workers=1,
                    snapshots=False, breakers=board, retry=retry,
                    sleep=lambda _s: None,
                )
                try:
                    service.run(wait=10.0)
                finally:
                    service.drain()
            else:
                run_resilient(
                    WORKLOADS["sg_forest"].query, tiny_db(),
                    FallbackPolicy(self.CHAIN,
                                   timeout=None if caller else 30.0),
                    breakers=board,
                    budget_factory=ResourceBudget if caller else None,
                    first=lambda budget: script(self.CHAIN[0]),
                    retry=(retry, 0, 0), sleep=lambda _s: None,
                )
        except ReproError as exc:
            raised = exc
        calls = script.calls
        if method not in calls:
            action = "skip"
        elif calls.count(method) > 1:
            action = "retry"
        elif calls[-1] != method:
            action = "next"
        else:
            action = "return" if raised is None else "raise"
        assert action == (on_caller if caller else per_attempt)
        after = (breaker.successes, breaker.failures, breaker.rejections)
        assert tuple(b - a for a, b in zip(before, after)) == \
            expected_record


class TestAnswersIdentical:
    def test_concurrent_answers_match_single_threaded(self):
        trees, queries = 3, 18
        db, _source = sg_forest(trees=trees, fanout=2, depth=4)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        bindings = forest_bindings(trees=trees, queries=queries)
        single = [
            run_strategy(prepared.method, prepared.bind(binding),
                         db).answers
            for binding in bindings
        ]
        with QueryService(prepared, db, workers=4,
                          queue_capacity=queries) as service:
            futures = [service.submit(binding) for binding in bindings]
            served = [future.result(60.0).answers for future in futures]
        assert served == single
        counters = service.counters()
        assert counters["completed"] == queries
        assert counters["failed"] == 0

    def test_writer_between_requests_refreshes_generation(self):
        db, _source = sg_forest(trees=1, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        binding = (forest_root(0),)
        service = QueryService(prepared, db, workers=1, queue_capacity=4)
        try:
            before = service.run(binding, wait=60.0)
            db.add_fact("flat", forest_root(0), "svc_new_peer")
            after = service.run(binding, wait=60.0)
        finally:
            service.drain()
        assert ("svc_new_peer",) not in before.answers
        assert ("svc_new_peer",) in after.answers
        counters = service.counters()
        assert counters["refreshes"] == 1
        # Distinct snapshot generations served the two requests.
        assert (before.extras["service"]["generation"]
                != after.extras["service"]["generation"])


class TestDrain:
    def test_drain_completes_queued_work(self):
        fake = FakePrepared(outcomes=[(("a",),)])
        service = QueryService(fake, tiny_db(), workers=2,
                               queue_capacity=8, snapshots=False)
        futures = [service.submit() for _ in range(6)]
        assert service.drain() is True
        for future in futures:
            assert future.result(0).answers == frozenset({("a",)})
        assert service.counters()["completed"] == 6

    def test_drain_is_idempotent(self):
        service = QueryService(FakePrepared(), tiny_db(), workers=1,
                               snapshots=False)
        assert service.drain() is True
        assert service.drain() is True

    def test_drain_cancels_stragglers_after_grace(self):
        fake = CancellableFake()
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False)
        future = service.submit()
        assert fake.started.wait(5.0)
        graceful = service.drain(grace=0.05)
        assert graceful is False
        with pytest.raises(EvaluationCancelled):
            future.result(10.0)
        assert service.counters()["cancelled"] == 1

    def test_future_cancel_stops_one_request(self):
        fake = CancellableFake()
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False)
        try:
            future = service.submit()
            assert fake.started.wait(5.0)
            future.cancel()
            with pytest.raises(EvaluationCancelled):
                future.result(10.0)
        finally:
            service.drain()

    def test_cancel_while_queued_skips_evaluation(self):
        # Regression: a request cancelled while still queued used to be
        # fully evaluated anyway.  The worker must notice the flipped
        # token before running, resolve with EvaluationCancelled, and
        # count the request as cancelled — not completed.
        gate = threading.Event()
        fake = FakePrepared(gate=gate)
        service = QueryService(fake, tiny_db(), workers=1,
                               queue_capacity=4, snapshots=False)
        try:
            blocker = service.submit()
            assert fake.started.wait(5.0)  # worker holds request 1
            calls_before = fake.calls
            doomed = service.submit()
            doomed.cancel()
            gate.set()
            assert blocker.result(10.0) is not None
            with pytest.raises(EvaluationCancelled):
                doomed.result(10.0)
            # Shed without evaluation: run never saw the request.
            assert fake.calls == calls_before
        finally:
            gate.set()
            service.drain()
        counters = service.counters()
        assert counters["cancelled"] == 1
        assert counters["completed"] == 1
        assert counters["admitted"] == (
            counters["completed"] + counters["failed"]
            + counters["cancelled"] + counters["shed_expired"]
        )

    def test_context_manager_drains(self):
        fake = FakePrepared()
        with QueryService(fake, tiny_db(), workers=1,
                          snapshots=False) as service:
            future = service.submit()
        assert future.done()
        with pytest.raises(ServiceClosed):
            service.submit()


class TestCallerThreadHits:
    """An admitted request whose binding the answer cache holds is
    answered inside ``submit``; everything else takes the queue."""

    WARM = (forest_root(0),)
    COLD = (forest_root(1),)

    def test_hit_resolves_inside_submit_with_the_worker_blocked(
            self, cached_service):
        gate = threading.Event()
        gate.set()
        service, prepared, cache, _db = cached_service(gate)
        try:
            evaluated = service.run(self.WARM, wait=60.0)
            gate.clear()
            prepared.started.clear()
            blocker = service.submit(self.COLD)
            assert prepared.started.wait(30.0)  # the only worker is held
            lookups = cache.stats()["lookups"]
            future = service.submit(self.WARM)
            assert future.done()
            result = future.result(0)
            assert future.exception(0) is None
            future.cancel()  # nothing left to cancel: a no-op
            assert not blocker.done()
            counters = service.counters()
            assert_ledger(counters)
            assert counters["inline_hits"] == 1
            assert counters["completed"] == 2
            assert counters["inflight"] == 1
            assert cache.stats()["lookups"] == lookups + 1
            assert prepared.runs == 2  # the hit never reached run()
        finally:
            gate.set()
            service.drain()
        assert result.answers == evaluated.answers
        assert result.method == evaluated.method
        assert result.stats.cache_hits == 1
        assert result.stats.cache_misses == 0
        assert result.stats.total_work == 0
        assert result.extras["cache_hit"] is True
        assert result.extras["service"] == {
            "attempts": 1, "fallback": False,
            "generation": evaluated.extras["service"]["generation"],
        }
        # One id sequence, in admission order, across both paths.
        assert future.request_id == blocker.request_id + 1
        assert blocker.result(0).stats.cache_misses == 1

    def test_lookups_count_probes_not_requests(self, cached_service):
        service, _prepared, cache, _db = cached_service()
        try:
            miss = service.run(self.WARM, wait=60.0)
            hit = service.run(self.WARM, wait=60.0)
        finally:
            service.drain()
        # The miss was probed at admission and once more by the worker.
        snap = cache.stats()
        assert (snap["lookups"], snap["hits"], snap["misses"]) == (3, 1, 2)
        assert miss.stats.cache_misses == 1 and miss.stats.cache_hits == 0
        assert hit.stats.cache_misses == 0 and hit.stats.cache_hits == 1
        assert service.counters()["inline_hits"] == 1

    def test_served_results_carry_the_strategy_extras(self):
        # One function computes a strategy's extras on every route, and
        # the cache entry stores them: a served miss and the inline hit
        # after it report magic_set_size like the cold run does.
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db,
                                 method="magic", cache=AnswerCache())
        cold = run_strategy("magic", prepared.bind(self.WARM), db)
        assert cold.extras["magic_set_size"] > 0
        with QueryService(prepared, db, workers=1) as service:
            miss = service.run(self.WARM, wait=60.0)
            hit = service.run(self.WARM, wait=60.0)
            assert service.counters()["inline_hits"] == 1
        for served in (miss, hit):
            assert {k: served.extras[k] for k in cold.extras} \
                == cold.extras

    def test_expired_and_closed_sheds_on_a_cached_binding(
            self, cached_service):
        service, prepared, cache, _db = cached_service()
        try:
            service.run(self.WARM, wait=60.0)
            lookups = cache.stats()["lookups"]
            doomed = service.submit(self.WARM, timeout=0)
            with pytest.raises(Overloaded) as excinfo:
                doomed.result(30.0)
            assert excinfo.value.reason == "expired"
        finally:
            service.drain()
        with pytest.raises(ServiceClosed):
            service.submit(self.WARM)
        counters = service.counters()
        assert_ledger(counters)
        assert counters["shed_expired"] == 1
        assert counters["rejected_closed"] == 1
        assert counters["inline_hits"] == 0
        # Neither refusal looked the binding up or evaluated it.
        assert cache.stats()["lookups"] == lookups
        assert prepared.runs == 1

    def test_open_breaker_cached_from_cache_uncached_falls_back(self):
        db, _source = sg_forest(trees=2, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db,
                                 cache=AnswerCache())
        board = BreakerBoard(threshold=1, cooldown=1e9)
        service = QueryService(prepared, db, workers=1, breakers=board)
        try:
            evaluated = service.run(self.WARM, wait=60.0)
            board.get(prepared.method).record_failure()
            assert board.get(prepared.method).state == OPEN
            hit = service.run(self.WARM, wait=60.0)
            after_hit = service.counters()
            degraded = service.run(self.COLD, wait=60.0)
        finally:
            service.drain()
        # The entry is the answer whatever the breaker says (every
        # strategy computes the same set): not consulted, not recorded.
        assert hit.answers == evaluated.answers
        assert hit.stats.cache_hits == 1
        assert hit.extras["service"]["fallback"] is False
        assert after_hit["inline_hits"] == 1
        assert after_hit["breaker_rejections"] == 0
        assert after_hit["fallbacks"] == 0
        assert board.get(prepared.method).state == OPEN
        # An uncached binding still degrades through the chain.
        assert degraded.extras["service"]["fallback"] is True
        assert degraded.answers == run_strategy(
            "naive", prepared.bind(self.COLD), db
        ).answers
        counters = service.counters()
        assert counters["breaker_rejections"] == 1
        assert counters["fallbacks"] == 1

    def test_audit_rows_of_both_paths_agree_and_replay(
            self, cached_service, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        audit = AuditLog(path, flush_every=1)
        service, prepared, _cache, db = cached_service(audit=audit)
        try:
            service.run(self.WARM, wait=60.0)
            service.run(self.WARM, wait=60.0)
        finally:
            service.drain()
            audit.close()
        assert service.counters()["inline_hits"] == 1
        (worker_row, caller_row), torn = read_audit(path)
        assert torn is None
        assert set(worker_row) == set(caller_row)
        for field in set(worker_row) - {"request_id",
                                        "execution_time_ms"}:
            assert worker_row[field] == caller_row[field], field
        assert worker_row["result_fingerprint"]
        assert worker_row["epoch_hash"] == epoch_hash(db)
        assert (worker_row["request_id"],
                caller_row["request_id"]) == (0, 1)
        report = verify_audit(path, prepared, db)
        assert report["checked"] == 2
        assert report["mismatched"] == []

    @pytest.mark.parametrize("snapshots", [True, False])
    def test_audited_epoch_hash_follows_the_database(
            self, cached_service, tmp_path, snapshots):
        path = str(tmp_path / "audit.jsonl")
        audit = AuditLog(path, flush_every=1)
        service, _prepared, _cache, db = cached_service(
            audit=audit, snapshots=snapshots
        )
        try:
            service.run(self.WARM, wait=60.0)
            service.run(self.WARM, wait=60.0)
            before = epoch_hash(db)
            db.add_fact("flat", forest_root(0), "audit_new_peer")
            service.run(self.WARM, wait=60.0)
        finally:
            service.drain()
            audit.close()
        hashes = [row["epoch_hash"] for row in read_audit(path)[0]]
        assert hashes == [before, before, epoch_hash(db)]
        assert before != epoch_hash(db)

    def test_write_between_reads_makes_the_second_a_miss(self, cached_service):
        service, _prepared, _cache, db = cached_service()
        try:
            service.run(self.WARM, wait=60.0)
            hit = service.run(self.WARM, wait=60.0)
            db.add_fact("flat", forest_root(0), "svc_new_peer")
            # The generation is refreshed before the probe, so the
            # stale entry cannot be served.
            after = service.run(self.WARM, wait=60.0)
            again = service.run(self.WARM, wait=60.0)
        finally:
            service.drain()
        assert hit.stats.cache_hits == 1
        assert ("svc_new_peer",) not in hit.answers
        assert after.stats.cache_hits == 0
        assert after.stats.cache_misses == 1
        assert ("svc_new_peer",) in after.answers
        assert again.stats.cache_hits == 1
        assert again.answers == after.answers
        counters = service.counters()
        assert counters["refreshes"] == 1
        assert counters["inline_hits"] == 2

    def test_queued_duplicates_evaluate_once(self, cached_service):
        gate = threading.Event()
        service, prepared, _cache, _db = cached_service(
            gate, queue_capacity=16
        )
        try:
            blocker = service.submit((forest_root(2),))
            assert prepared.started.wait(30.0)
            futures = [service.submit(self.COLD) for _ in range(10)]
            assert not any(future.done() for future in futures)
            gate.set()
            results = [future.result(60.0) for future in futures]
            blocker.result(60.0)
        finally:
            gate.set()
            service.drain()
        # All ten missed at admission; the worker's own look-up turns
        # the nine behind the first into hits.
        assert [r.stats.cache_hits for r in results] == [0] + [1] * 9
        assert [r.stats.total_work > 0 for r in results] == \
            [True] + [False] * 9
        assert len({r.answers for r in results}) == 1
        counters = service.counters()
        assert counters["inline_hits"] == 0
        assert counters["completed"] == 11

    def test_a_failing_probe_fails_the_request_not_the_ledger(
            self, cached_service):
        service, _prepared, _cache, _db = cached_service()
        try:
            service.run(self.WARM, wait=60.0)
            future = service.submit((["unhashable"],))
            with pytest.raises(TypeError):
                future.result(30.0)
            # The worker survived and the cache still answers inline.
            assert service.run(self.WARM,
                               wait=60.0).stats.cache_hits == 1
        finally:
            service.drain()
        counters = service.counters()
        assert_ledger(counters)
        assert counters["failed"] == 1
        assert counters["inline_hits"] == 1

    def test_drain_waits_for_hits_finishing_on_caller_threads(
            self, cached_service, tmp_path):
        # Regression: a hit admitted just before drain() closed
        # admissions must be counted and have its (buffered) audit row
        # flushed by the time drain() returns, although no worker ever
        # saw it.
        class SlowAudit(AuditLog):
            """Stretches the window between a request's terminal
            counter and its audit row, where the race lived."""

            def record(self, entry):
                time.sleep(0.0005)
                super().record(entry)

        path = str(tmp_path / "audit.jsonl")
        audit = SlowAudit(path)  # buffered: only drain's flush writes
        service, _prepared, _cache, _db = cached_service(
            audit=audit, workers=2
        )
        bindings = [(forest_root(index),) for index in range(3)]
        for binding in bindings:
            service.run(binding, wait=60.0)
        clients = 4
        futures = [[] for _ in range(clients)]
        warmed_up = threading.Semaphore(0)

        def client(index):
            mine = futures[index]
            while True:
                try:
                    mine.append(
                        service.submit(bindings[len(mine) % 3])
                    )
                except ServiceClosed:
                    return
                if len(mine) == 20:
                    warmed_up.release()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(clients):
                assert warmed_up.acquire(timeout=60.0)
            assert service.drain() is True
            rows, torn = read_audit(path)
            counters = service.counters()
        finally:
            sys.setswitchinterval(interval)
            service.drain()
            for thread in threads:
                thread.join(60.0)
            audit.close()
        assert not any(thread.is_alive() for thread in threads)
        assert torn is None
        assert_ledger(counters)
        assert counters["inflight"] == 0
        assert counters["admitted"] == counters["completed"]
        assert len(rows) == counters["completed"]
        assert counters["inline_hits"] >= 20 * clients
        issued = [future for mine in futures for future in mine]
        assert len(issued) == counters["completed"] - len(bindings)
        assert all(future.done() for future in issued)
        assert all(future.result(0).stats.cache_hits == 1
                   for future in issued)
        # Resolved exactly once: one audit row per request id.
        assert sorted(row["request_id"] for row in rows) == \
            list(range(counters["completed"]))


class TestGenerationsBesideWrites:
    """A write moves the service to a new snapshot generation that
    extends the previous one: requests in flight keep reading theirs,
    the next read inherits the indexes, the old one is freed."""

    WARM = (forest_root(0),)
    COLD = (forest_root(1),)
    PEER = ("churn_new_peer",)

    def test_held_request_answers_as_of_its_generation(
            self, cached_service, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        audit = AuditLog(path, flush_every=1)
        gate = threading.Event()
        gate.set()
        service, prepared, _cache, db = cached_service(
            gate, workers=2, audit=audit
        )
        assert prepared.method == "pointer_counting"
        as_of_g = run_strategy(prepared.method, prepared.bind(self.COLD),
                               db).answers
        try:
            # Generation g builds every index the form probes.
            service.run(self.WARM, wait=60.0)
            gate.clear()
            prepared.started.clear()
            held = service.submit(self.COLD)  # pinned to g at admission
            assert prepared.started.wait(30.0)
            prepared.gate = None  # later requests pass ungated
            db.add_fact("flat", self.COLD[0], self.PEER[0])
            served = service.run(self.COLD, wait=60.0)  # on g+1
            assert not held.done()
            gate.set()
            first = held.result(60.0)
        finally:
            gate.set()
            service.drain()
            audit.close()
        assert first.answers == as_of_g
        assert self.PEER not in first.answers
        assert self.PEER in served.answers
        assert (first.extras["service"]["generation"]
                != served.extras["service"]["generation"])
        # g+1 extended g's indexes instead of rebuilding them, and
        # deriving it took nothing away from g.
        assert served.stats.index_builds == 0
        assert first.stats.index_builds == 0
        counters = service.counters()
        assert_ledger(counters)
        assert counters["refreshes"] == 1
        assert counters["completed"] == 3
        # Only the read served at the final state is replayable.
        report = verify_audit(path, prepared, db)
        assert report["checked"] == 1
        assert report["skipped"] == 2
        assert report["mismatched"] == []

    def test_one_generation_alive_after_a_write_and_a_read(
            self, cached_service, refcount_only):
        service, prepared, _cache, db = cached_service()
        assert prepared.method == "pointer_counting"
        try:
            service.run(self.WARM, wait=60.0)
            old = weakref.ref(service._generation)
            old_flat = weakref.ref(
                service._generation.get(("flat", 2))._rel()
            )
            up = service._generation.get(("up", 2))._rel()
            db.add_fact("flat", self.WARM[0], self.PEER[0])
            after = service.run(self.WARM, wait=60.0)
            assert self.PEER in after.answers
            assert after.stats.index_builds == 0
            # By refcount alone: no cycle through the engine keeps the
            # previous generation or its copied views alive.
            assert old() is None
            assert old_flat() is None
            # The relation nobody wrote kept its view.
            assert service._generation.get(("up", 2))._rel() is up
        finally:
            service.drain()


class TestWorkerSurvival:
    def test_untyped_error_resolves_future_and_keeps_worker(self):
        # A non-ReproError escaping an attempt must not kill the worker
        # thread (which would shrink the pool and hang result() callers
        # forever): the future resolves with the raw error and the same
        # worker keeps serving.
        fake = FakePrepared(outcomes=[ValueError("boom"), (("a",),)])
        service = QueryService(fake, tiny_db(), workers=1,
                               snapshots=False)
        try:
            first = service.submit()
            with pytest.raises(ValueError):
                first.result(10.0)
            assert service.run(wait=10.0).answers == frozenset({("a",)})
        finally:
            service.drain()
        counters = service.counters()
        assert counters["failed"] == 1
        assert counters["completed"] == 1
        assert counters["admitted"] == (
            counters["completed"] + counters["failed"]
            + counters["cancelled"] + counters["shed_expired"]
        )

    def test_wrong_arity_constants_rejected_at_submit(self):
        # Malformed constants surface as ValueError in the submitter's
        # thread, before the request counts as submitted.
        db, _source = sg_forest(trees=1, fanout=2, depth=2)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        service = QueryService(prepared, db, workers=1)
        try:
            with pytest.raises(ValueError):
                service.submit(("a", "b", "c"))
        finally:
            service.drain()
        counters = service.counters()
        assert counters["submitted"] == 0
        assert counters["admitted"] == 0


class TestServiceUnderFaults:
    def test_counters_deterministic_across_seeded_runs(self):
        """Acceptance: same seed, same faults, same counter block."""

        def one_run():
            from repro.engine.faults import FaultInjector

            db, _source = sg_forest(trees=2, fanout=2, depth=3)
            prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
            poison_forest(db, tree=1)
            injector = FaultInjector(seed=5)
            injector.delay_sections(0.0002, every=3)
            bindings = forest_bindings(trees=2, queries=10)
            board = BreakerBoard(threshold=2, cooldown=1e9)
            with injector:
                service = QueryService(
                    prepared, db, workers=1, queue_capacity=16,
                    breakers=board,
                    retry=RetryPolicy(max_attempts=2, seed=3),
                )
                try:
                    for binding in bindings:
                        service.run(binding, wait=60.0)
                finally:
                    service.drain()
            return service.counters()

        assert one_run() == one_run()
