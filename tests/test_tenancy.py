"""Multi-tenant serving: forms, quotas, fair scheduling, isolation.

The quota and scheduler primitives are tested on fake clocks and
deterministic drains; the service-level tests drive a multi-tenant
``QueryService`` with scriptable fakes (rate/concurrency/pool sheds,
per-tenant breakers and retry streams) and with real prepared queries
over ``sg_forest`` for the audit-per-tenant and atomic-counters
drills.  Hypothesis property tests pin the token bucket's
no-over-admission invariant and the scheduler's weight
proportionality under saturation.
"""

import threading
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.data.workloads import (
    WORKLOADS,
    forest_bindings,
    forest_root,
    sg_forest,
)
from repro.durability.audit import read_audit, verify_audit
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    EvaluationCancelled,
    NotApplicableError,
    Overloaded,
    QuotaExceeded,
    ServiceClosed,
    ServiceError,
    UnknownFormError,
)
from repro.exec import AnswerCache, PreparedQuery
from repro.serve import BreakerBoard, QueryService, RetryPolicy
from repro.serve.breaker import OPEN
from repro.tenancy import (
    COST_OF,
    FairScheduler,
    FormRegistry,
    ResourcePool,
    TenantQuota,
    TokenBucket,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeStats:
    """Duck-types EvalStats far enough for quota charging."""

    def __init__(self, facts_derived=0):
        self.facts_derived = facts_derived


class FakeResult:
    def __init__(self, answers=frozenset(), facts=None):
        self.answers = frozenset(answers)
        self.method = "fake"
        self.extras = {}
        if facts is not None:
            self.stats = FakeStats(facts)


class FakePrepared:
    """Scriptable prepared query: per-call outcomes, optional gate."""

    method = "pointer_counting"

    def __init__(self, outcomes=((),), gate=None, facts=None,
                 clock=None, advance=0.0):
        self.outcomes = list(outcomes)
        self.gate = gate
        #: facts_derived reported per run (drives the facts pool).
        self.facts = facts
        #: Fake clock advanced by ``advance`` per run, so service-time
        #: EMAs and seconds pools see deterministic durations.
        self.clock = clock
        self.advance = advance
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
            if self.clock is not None and self.advance:
                self.clock.advance(self.advance)
        self.started.set()
        if self.gate is not None:
            self.gate.wait()
        if isinstance(outcome, BaseException):
            raise outcome
        return FakeResult(outcome, facts=self.facts)

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


# ---------------------------------------------------------------------
# Quota primitives
# ---------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == \
            [True, True, True, False]
        assert bucket.taken == 3
        assert bucket.denied == 1

    def test_refill_is_continuous(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.25)  # half a token: still not enough
        assert not bucket.try_take()
        clock.advance(0.25)  # a full token now
        assert bucket.try_take()

    def test_refill_after_prices_the_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        assert bucket.refill_after() == 0.0
        assert bucket.try_take()
        assert bucket.refill_after() == pytest.approx(0.25)
        clock.advance(0.1)
        assert bucket.refill_after() == pytest.approx(0.15)

    def test_level_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(100.0)
        assert bucket.level() == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=5, burst=0.5)


class TestResourcePool:
    def test_post_paid_debt_blocks_admission(self):
        clock = FakeClock()
        pool = ResourcePool("facts", capacity=10, refill=2.0,
                            clock=clock)
        assert pool.admits()
        pool.charge(25)  # one expensive query drives debt
        assert pool.balance() == pytest.approx(-15.0)
        assert not pool.admits()
        assert pool.denied == 1
        # retry_after pays the debt off to just above zero.
        assert pool.retry_after() == pytest.approx(7.5)
        clock.advance(7.5)
        assert pool.balance() == pytest.approx(0.0)
        clock.advance(0.1)
        assert pool.admits()

    def test_refill_clamps_at_capacity(self):
        clock = FakeClock()
        pool = ResourcePool("rounds", capacity=5, refill=100.0,
                            clock=clock)
        pool.charge(3)
        clock.advance(10.0)
        assert pool.balance() == 5.0

    def test_zero_refill_debt_is_permanent(self):
        pool = ResourcePool("facts", capacity=1, refill=0.0,
                            clock=FakeClock())
        pool.charge(2)
        assert pool.retry_after() == float("inf")

    def test_charged_counter_is_monotone(self):
        pool = ResourcePool("seconds", capacity=10, refill=1.0,
                            clock=FakeClock())
        pool.charge(3)
        pool.charge(0)  # no-op
        pool.charge(4)
        assert pool.charged == 7.0


class TestTenantQuota:
    def test_factories(self):
        clock = FakeClock()
        quota = TenantQuota(rate=5.0, burst=10, weight=2.0,
                            facts=(100, 10.0), seconds=(2.0, 0.5))
        bucket = quota.bucket(clock=clock)
        assert bucket.rate == 5.0 and bucket.burst == 10.0
        pools = quota.pools(clock=clock)
        assert sorted(pools) == ["facts", "seconds"]
        assert pools["facts"].capacity == 100.0

    def test_unlimited_quota_builds_nothing(self):
        quota = TenantQuota()
        assert quota.bucket() is None
        assert quota.pools() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(weight=0)
        with pytest.raises(ValueError):
            TenantQuota(max_concurrent=0)
        with pytest.raises(ValueError):
            TenantQuota(queue_capacity=0)


# ---------------------------------------------------------------------
# The deficit-round-robin scheduler
# ---------------------------------------------------------------------


class TestFairScheduler:
    def test_single_lane_is_fifo(self):
        sched = FairScheduler()
        sched.add_lane(None)
        for item in "abc":
            assert sched.offer(None, item)
        assert [sched.take(block=False) for _ in range(3)] == \
            ["a", "b", "c"]
        assert sched.take(block=False) is None

    def test_capacity_sheds_only_the_full_lane(self):
        sched = FairScheduler()
        sched.add_lane("a", capacity=1)
        sched.add_lane("b", capacity=4)
        assert sched.offer("a", "a0")
        assert not sched.offer("a", "a1")  # a is full...
        assert sched.offer("b", "b0")      # ...b is untouched
        stats = sched.lane_stats()
        assert stats["a"]["refused"] == 1
        assert stats["b"]["refused"] == 0

    def test_drr_interleaves_by_weight(self):
        sched = FairScheduler()
        sched.add_lane("heavy", weight=2.0, capacity=16)
        sched.add_lane("light", weight=1.0, capacity=16)
        for index in range(8):
            sched.offer("heavy", "h%d" % index)
            sched.offer("light", "l%d" % index)
        drained = [sched.take(block=False) for _ in range(12)]
        heavies = sum(1 for item in drained if item.startswith("h"))
        lights = len(drained) - heavies
        # 2:1 weights → 2:1 long-run service, within one rotation.
        assert heavies == 8
        assert lights == 4

    def test_cost_drains_deficit_faster(self):
        sched = FairScheduler()
        sched.add_lane("cheap", weight=1.0, capacity=16)
        sched.add_lane("pricey", weight=1.0, capacity=16)
        for index in range(8):
            sched.offer("cheap", "c%d" % index, cost=1.0)
            sched.offer("pricey", "p%d" % index, cost=4.0)
        drained = [sched.take(block=False) for _ in range(10)]
        cheap = sum(1 for item in drained if item.startswith("c"))
        # Equal weights but 4x cost: the pricey lane gets ~1/4 the
        # items for the same served *cost*.
        assert cheap == 8
        assert drained.count(None) == 0
        stats = sched.lane_stats()
        assert stats["cheap"]["served_cost"] == pytest.approx(8.0)
        assert stats["pricey"]["served_cost"] == pytest.approx(8.0)

    def test_emptied_lane_forfeits_deficit(self):
        sched = FairScheduler()
        sched.add_lane("a", weight=8.0, capacity=16)
        sched.add_lane("b", weight=1.0, capacity=16)
        sched.offer("a", "a0")
        assert sched.take(block=False) == "a0"
        # Lane a went idle; its banked deficit must not let it burst
        # past its weight when it comes back.
        for index in range(4):
            sched.offer("a", "a%d" % (index + 1), cost=8.0)
            sched.offer("b", "b%d" % index, cost=1.0)
        first_b = next(
            index
            for index in range(8)
            if (sched.take(block=False) or "").startswith("b")
        )
        assert first_b <= 2

    def test_close_drains_then_releases(self):
        sched = FairScheduler()
        sched.add_lane(None)
        sched.offer(None, "queued")
        sched.close()
        assert not sched.offer(None, "late")
        assert sched.take() == "queued"  # accepted work still runs
        assert sched.take() is None      # then workers are released

    def test_blocked_take_wakes_on_close(self):
        sched = FairScheduler()
        sched.add_lane(None)
        results = []

        def taker():
            results.append(sched.take())

        thread = threading.Thread(target=taker)
        thread.start()
        sched.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert results == [None]

    def test_validation(self):
        sched = FairScheduler()
        sched.add_lane("a")
        with pytest.raises(ValueError):
            sched.add_lane("a")
        with pytest.raises(ValueError):
            sched.add_lane("b", weight=0)
        with pytest.raises(ValueError):
            sched.add_lane("c", capacity=0)
        with pytest.raises(ValueError):
            sched.offer("a", "x", cost=0)
        with pytest.raises(ValueError):
            FairScheduler(quantum=0)


# ---------------------------------------------------------------------
# The form registry
# ---------------------------------------------------------------------


class TestFormRegistry:
    def test_register_resolve_and_versions(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        registry = FormRegistry(db)
        first = registry.register("sg", WORKLOADS["sg_forest"].query)
        assert first.version == 1
        second = registry.register("sg", WORKLOADS["sg_forest"].query)
        assert second.version == 2
        assert registry.get("sg") is second
        assert registry.get("sg", version=1) is first
        assert "sg" in registry and len(registry) == 1
        assert registry.names() == ["sg"]

    def test_unknown_form_and_version_raise_typed(self):
        registry = FormRegistry(tiny_db())
        with pytest.raises(UnknownFormError):
            registry.get("nope")
        registry.register("sg", WORKLOADS["sg_forest"].query)
        with pytest.raises(UnknownFormError):
            registry.get("sg", version=7)
        assert issubclass(UnknownFormError, ServiceError)

    def test_cost_class_from_size_bound(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        registry = FormRegistry(db, light_bound=10, medium_bound=20)
        form = registry.register("sg", WORKLOADS["sg_forest"].query)
        assert form.cost_class == registry.classify(form.size_bound)
        assert form.cost == COST_OF[form.cost_class]

    def test_explicit_cost_class_override(self):
        registry = FormRegistry(tiny_db())
        query = WORKLOADS["sg_forest"].query
        form = registry.register("sg", query, cost_class="heavy")
        assert form.cost == 4.0
        with pytest.raises(ValueError):
            registry.register("sg", query, cost_class="enormous")

    def test_describe_block(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        registry = FormRegistry(db)
        registry.register("sg", WORKLOADS["sg_forest"].query)
        block = registry.describe()["sg"]
        assert block["version"] == 1
        assert block["adornment"] == "bf"
        assert block["cost_class"] in COST_OF

    def test_size_bound_scales_with_edb_and_frees(self):
        small, _ = sg_forest(trees=1, fanout=2, depth=2)
        big, _ = sg_forest(trees=4, fanout=3, depth=4)
        query = WORKLOADS["sg_forest"].query
        bound_small = PreparedQuery(query, small).size_bound(small)
        bound_big = PreparedQuery(query, big).size_bound(big)
        assert bound_big > bound_small >= 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            FormRegistry(light_bound=20, medium_bound=10)


# ---------------------------------------------------------------------
# Multi-tenant QueryService
# ---------------------------------------------------------------------


class TestTenantAdmission:
    def test_unknown_tenant_is_a_value_error(self):
        service = QueryService(FakePrepared(), tiny_db(), workers=1,
                               tenants={"acme": TenantQuota()})
        try:
            with pytest.raises(ValueError):
                service.submit(tenant="ghost")
            assert service.counters()["submitted"] == 0
        finally:
            service.drain()

    def test_rate_quota_sheds_typed_with_refill_hint(self):
        clock = FakeClock()
        gate = threading.Event()
        prepared = FakePrepared(gate=gate)
        service = QueryService(
            prepared, tiny_db(), workers=1, clock=clock,
            tenants={"acme": TenantQuota(rate=2.0, burst=1)},
        )
        try:
            service.submit(tenant="acme")
            with pytest.raises(QuotaExceeded) as info:
                service.submit(tenant="acme")
            assert info.value.tenant == "acme"
            assert info.value.resource == "rate"
            assert info.value.retry_after == pytest.approx(0.5)
            clock.advance(0.5)
            service.submit(tenant="acme")  # refilled
            counters = service.counters()
            assert counters["shed_quota"] == 1
            assert counters["tenants"]["acme"]["shed_quota"] == 1
        finally:
            gate.set()
            service.drain()

    def test_concurrency_cap_counts_queued_plus_inflight(self):
        gate = threading.Event()
        prepared = FakePrepared(gate=gate)
        service = QueryService(
            prepared, tiny_db(), workers=2,
            tenants={"acme": TenantQuota(max_concurrent=2)},
        )
        try:
            futures = [service.submit(tenant="acme") for _ in range(2)]
            with pytest.raises(QuotaExceeded) as info:
                service.submit(tenant="acme")
            assert info.value.resource == "concurrency"
            gate.set()
            for future in futures:
                future.result(30.0)
            # Slots freed: admission works again.
            service.submit(tenant="acme").result(30.0)
        finally:
            gate.set()
            service.drain()

    def test_resource_pool_debt_blocks_next_admission(self):
        clock = FakeClock()
        prepared = FakePrepared(facts=8)
        service = QueryService(
            prepared, tiny_db(), workers=1, clock=clock,
            tenants={"acme": TenantQuota(facts=(10, 2.0))},
        )
        try:
            service.submit(tenant="acme").result(30.0)  # balance 2
            service.submit(tenant="acme").result(30.0)  # balance -6
            with pytest.raises(QuotaExceeded) as info:
                service.submit(tenant="acme")
            assert info.value.resource == "facts"
            assert info.value.retry_after == pytest.approx(3.0)
            clock.advance(3.1)
            service.submit(tenant="acme").result(30.0)
            block = service.counters()["tenants"]["acme"]
            assert block["quota"]["pools"]["facts"]["charged"] == 24.0
            assert block["quota"]["pools"]["facts"]["denied"] >= 1
        finally:
            service.drain()

    def test_quota_shed_never_burns_a_rate_token(self):
        clock = FakeClock()
        gate = threading.Event()
        prepared = FakePrepared(gate=gate)
        service = QueryService(
            prepared, tiny_db(), workers=1, clock=clock,
            tenants={"acme": TenantQuota(rate=100.0, burst=100,
                                         max_concurrent=1)},
        )
        try:
            service.submit(tenant="acme")
            for _ in range(5):
                with pytest.raises(QuotaExceeded):
                    service.submit(tenant="acme")
            # Five concurrency sheds, zero tokens consumed by them.
            quota = service.counters()["tenants"]["acme"]["quota"]
            assert quota["rate_tokens"] == pytest.approx(99.0)
        finally:
            gate.set()
            service.drain()

    def test_one_tenant_full_lane_never_sheds_another(self):
        gate = threading.Event()
        prepared = FakePrepared(gate=gate)
        service = QueryService(
            prepared, tiny_db(), workers=1, queue_capacity=2,
            tenants={
                "hog": TenantQuota(queue_capacity=1),
                "well": TenantQuota(queue_capacity=4),
            },
        )
        try:
            hog_futures = [service.submit(tenant="hog")]
            prepared.started.wait(30.0)  # one hog request in flight
            hog_futures.append(service.submit(tenant="hog"))  # queued
            with pytest.raises(Overloaded) as info:
                service.submit(tenant="hog")
            assert info.value.tenant == "hog"
            assert info.value.reason == "queue_full"
            # The well-behaved tenant's lane is independent.
            well = [service.submit(tenant="well") for _ in range(4)]
            gate.set()
            for future in hog_futures + well:
                assert future.result(30.0) is not None
        finally:
            gate.set()
            service.drain()

    def test_default_lane_still_serves_untenanted_submits(self):
        service = QueryService(FakePrepared(), tiny_db(), workers=1,
                               tenants={"acme": TenantQuota()})
        try:
            assert service.submit().result(30.0) is not None
        finally:
            service.drain()


class TestHitsUnderQuotas:
    """Cache hits answered inside ``submit`` pass the same quota gates
    first, are charged post-paid, and cost no lane slot or deficit."""

    WARM = (forest_root(0),)
    COLD = (forest_root(1),)

    @staticmethod
    def _refused(service, cache, binding, resource):
        lookups = cache.stats()["lookups"]
        with pytest.raises(QuotaExceeded) as info:
            service.submit(binding, tenant="acme")
        assert info.value.resource == resource
        assert info.value.tenant == "acme"
        # Refused before the probe: no look-up was counted.
        assert cache.stats()["lookups"] == lookups

    def test_rate_quota_refuses_a_cached_binding(self, cached_service):
        service, _prepared, cache, _db = cached_service(
            clock=FakeClock(),
            tenants={"acme": TenantQuota(rate=1.0, burst=2)},
        )
        try:
            service.run(self.WARM, tenant="acme", wait=60.0)
            hit = service.run(self.WARM, tenant="acme", wait=60.0)
            assert hit.stats.cache_hits == 1
            self._refused(service, cache, self.WARM, "rate")
        finally:
            service.drain()
        block = service.counters()["tenants"]["acme"]
        assert block["shed_quota"] == 1
        assert block["inline_hits"] == 1

    def test_concurrency_cap_refuses_a_cached_binding(
            self, cached_service):
        gate = threading.Event()
        gate.set()
        service, prepared, cache, _db = cached_service(
            gate, tenants={"acme": TenantQuota(max_concurrent=1)},
        )
        try:
            service.run(self.WARM, tenant="acme", wait=60.0)
            gate.clear()
            prepared.started.clear()
            holder = service.submit(self.COLD, tenant="acme")
            assert prepared.started.wait(30.0)
            self._refused(service, cache, self.WARM, "concurrency")
            gate.set()
            holder.result(60.0)
            # A hit itself never holds a slot: any number in a row fit
            # under a cap of one.
            for _ in range(3):
                assert service.submit(self.WARM, tenant="acme").done()
        finally:
            gate.set()
            service.drain()

    def test_pool_debt_refuses_and_hits_are_charged(self, cached_service):
        class TickingClock(FakeClock):
            """Every reading is 10 ms after the last."""

            def __call__(self):
                self.now += 0.01
                return self.now

        service, _prepared, cache, _db = cached_service(
            clock=TickingClock(),
            tenants={"acme": TenantQuota(seconds=(1.0, 0.0)),
                     "other": TenantQuota()},
        )

        def pool():
            return service.counters()["tenants"]["acme"]["quota"][
                "pools"]["seconds"]

        try:
            service.run(self.WARM, tenant="acme", wait=60.0)
            charged = pool()["charged"]
            assert service.submit(self.WARM, tenant="acme").done()
            # The hit's elapsed seconds were charged post-paid.
            assert pool()["charged"] > charged
            while pool()["balance"] > 0:
                assert service.submit(self.WARM, tenant="acme").done()
            self._refused(service, cache, self.WARM, "seconds")
            # Another tenant's hits are untouched by the debt.
            assert service.submit(self.WARM, tenant="other").done()
        finally:
            service.drain()
        tenants = service.counters()["tenants"]
        assert tenants["acme"]["shed_quota"] == 1
        assert tenants["acme"]["inline_hits"] == \
            tenants["acme"]["completed"] - 1
        assert tenants["other"]["inline_hits"] == 1

    def test_hits_cost_no_lane_slot_and_no_deficit(self, cached_service):
        service, _prepared, _cache, _db = cached_service(
            tenants={"acme": TenantQuota(queue_capacity=1)},
        )
        try:
            service.run(self.WARM, tenant="acme", wait=60.0)
            lane = service.counters()["tenants"]["acme"]["queue"]
            for _ in range(5):
                assert service.submit(self.WARM, tenant="acme").done()
            block = service.counters()["tenants"]["acme"]
        finally:
            service.drain()
        assert block["queue"] == lane  # offered/served/served_cost
        assert block["inline_hits"] == 5
        assert block["max_queue_depth"] <= 1
        assert service.counters()["inline_hits"] == 5

    def test_hits_stay_out_of_the_retry_after_ema(self, cached_service):
        clock = FakeClock()
        gate = threading.Event()
        gate.set()
        service, prepared, _cache, _db = cached_service(
            gate, clock=clock, queue_capacity=1,
        )
        evaluate = prepared.run

        def timed_run(*args, **options):
            clock.advance(0.1)  # every evaluation "takes" 100 ms
            return evaluate(*args, **options)

        prepared.run = timed_run
        try:
            service.run(self.WARM, wait=60.0)  # EMA seeded at 0.1s
            for _ in range(20):  # zero-time hits must not drag it down
                assert service.submit(self.WARM).done()
            gate.clear()
            prepared.started.clear()
            service.submit(self.COLD)
            assert prepared.started.wait(30.0)  # in flight, lane empty
            service.submit((forest_root(2),))   # fills the 1-deep lane
            with pytest.raises(Overloaded) as info:
                service.submit(self.COLD)
            assert info.value.retry_after == pytest.approx(0.2)
        finally:
            gate.set()
            service.drain()


class TestRetryAfterHints:
    def test_queue_full_hint_tracks_service_time_ema(self):
        clock = FakeClock()
        gate = threading.Event()
        prepared = FakePrepared(gate=gate, clock=clock, advance=0.1)
        service = QueryService(prepared, tiny_db(), workers=1,
                               queue_capacity=1, clock=clock)
        try:
            gate.set()
            service.submit().result(30.0)  # EMA seeded at ~0.1s
            gate.clear()
            prepared.started.clear()
            service.submit()
            prepared.started.wait(30.0)  # in flight, lane empty again
            service.submit()             # fills the 1-deep lane
            # The shed hint prices draining depth+1 requests at the
            # observed ~0.1s each over one worker.
            with pytest.raises(Overloaded) as info:
                service.submit()
            assert info.value.retry_after == pytest.approx(0.2)
        finally:
            gate.set()
            service.drain()

    def test_hint_is_none_before_first_completion(self):
        gate = threading.Event()
        prepared = FakePrepared(gate=gate)
        service = QueryService(prepared, tiny_db(), workers=1,
                               queue_capacity=1)
        try:
            service.submit()
            prepared.started.wait(30.0)
            service.submit()
            with pytest.raises(Overloaded) as info:
                service.submit()
            assert info.value.retry_after is None
        finally:
            gate.set()
            service.drain()


class TestTenantIsolation:
    def test_per_tenant_breaker_boards(self):
        prepared = FakePrepared(
            outcomes=[NotApplicableError("poisoned"),
                      NotApplicableError("poisoned"), ()],
        )
        service = QueryService(
            prepared, tiny_db(), workers=1, fallback=False,
            breakers=BreakerBoard(threshold=2),
            tenants={"poison": TenantQuota(), "healthy": TenantQuota()},
        )
        try:
            for _ in range(2):
                with pytest.raises(NotApplicableError):
                    service.run(tenant="poison", wait=30.0)
            counters = service.counters()
            assert counters["tenants"]["poison"]["breaker_states"][
                "pointer_counting"] == OPEN
            # The poisoned tenant is now rejected by its own breaker...
            with pytest.raises(CircuitOpenError):
                service.run(tenant="poison", wait=30.0)
            # ...while the healthy tenant's board never tripped.
            assert service.run(tenant="healthy",
                               wait=30.0) is not None
            counters = service.counters()
            assert counters["tenants"]["healthy"]["breaker_trips"] == 0
            assert counters["tenants"]["poison"]["breaker_trips"] == 1
        finally:
            service.drain()

    def test_per_tenant_retry_streams_are_independent(self):
        sleeps = []
        retry = RetryPolicy(max_attempts=3, base_delay=0.05, seed=9)
        prepared = FakePrepared(
            outcomes=[DeadlineExceeded("slow"), DeadlineExceeded("slow"),
                      ()],
        )
        service = QueryService(
            prepared, tiny_db(), workers=1, retry=retry,
            sleep=sleeps.append,
            tenants={"acme": TenantQuota()},
        )
        try:
            service.run(tenant="acme", wait=30.0)
        finally:
            service.drain()
        stream = zlib.crc32(b"acme")
        assert sleeps == list(retry.backoff(0, stream=stream))
        assert sleeps != list(retry.backoff(0))  # not the default stream

    def test_default_stream_reproduces_untenanted_delays(self):
        retry = RetryPolicy(max_attempts=4, seed=3)
        assert list(retry.backoff(7)) == list(retry.backoff(7, stream=0))


class TestRegistryService:
    def _registry(self, db):
        registry = FormRegistry(db)
        registry.register("sg", WORKLOADS["sg_forest"].query)
        return registry

    def test_submit_by_form_name(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        registry = self._registry(db)
        service = QueryService(None, db, workers=1, registry=registry)
        try:
            result = service.run((forest_root(0),), form="sg",
                                 wait=30.0)
            baseline = registry.get("sg").prepared.run(
                (forest_root(0),), db=db
            )
            assert result.answers == baseline.answers
            assert "sg" in service.counters()["forms"]
        finally:
            service.drain()

    def test_unknown_form_is_typed_and_not_submitted(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        service = QueryService(None, db, workers=1,
                               registry=self._registry(db))
        try:
            with pytest.raises(UnknownFormError):
                service.submit(form="nope")
            assert service.counters()["submitted"] == 0
        finally:
            service.drain()

    def test_formless_submit_requires_default_prepared(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        service = QueryService(None, db, workers=1,
                               registry=self._registry(db))
        try:
            with pytest.raises(ValueError):
                service.submit()
        finally:
            service.drain()

    def test_version_pinning_survives_reregistration(self):
        db, _ = sg_forest(trees=1, fanout=2, depth=2)
        registry = self._registry(db)
        first = registry.get("sg")
        registry.register("sg", WORKLOADS["sg_forest"].query,
                          method="magic")
        service = QueryService(None, db, workers=1, registry=registry)
        try:
            pinned = service.run((forest_root(0),), form="sg",
                                 version=1, wait=30.0)
            latest = service.run((forest_root(0),), form="sg",
                                 wait=30.0)
            assert pinned.answers == latest.answers
            assert pinned.method == first.prepared.method
            assert latest.method == "magic"
        finally:
            service.drain()

    def test_service_without_prepared_or_registry_rejected(self):
        with pytest.raises(ValueError):
            QueryService(None, tiny_db(), workers=1)


class TestTenantAudit:
    def test_audit_entries_carry_tenant_and_replay_per_tenant(
            self, tmp_path):
        from repro.durability.audit import AuditLog

        db, _ = sg_forest(trees=2, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        path = str(tmp_path / "audit.jsonl")
        audit = AuditLog(path, flush_every=1)
        service = QueryService(
            prepared, db, workers=2, audit=audit,
            tenants={"a": TenantQuota(), "b": TenantQuota()},
        )
        try:
            for index, binding in enumerate(
                forest_bindings(trees=2, queries=6)
            ):
                service.run(binding, tenant="a" if index % 2 else "b",
                            wait=60.0)
        finally:
            service.drain()
            audit.close()
        entries, torn = read_audit(path)
        assert torn is None
        assert sorted({entry["tenant"] for entry in entries}) == \
            ["a", "b"]
        report = verify_audit(path, prepared, db)
        assert report["mismatched"] == []
        assert report["checked"] == 6
        assert set(report["by_tenant"]) == {"a", "b"}
        only_a = verify_audit(path, prepared, db, tenant="a")
        assert only_a["mismatched"] == []
        assert only_a["checked"] == \
            report["by_tenant"]["a"]["checked"]
        assert set(only_a["by_tenant"]) == {"a"}

    def test_verify_resolves_forms_through_registry(self, tmp_path):
        from repro.durability.audit import AuditLog

        db, _ = sg_forest(trees=1, fanout=2, depth=3)
        registry = FormRegistry(db)
        registry.register("sg", WORKLOADS["sg_forest"].query)
        path = str(tmp_path / "audit.jsonl")
        audit = AuditLog(path, flush_every=1)
        service = QueryService(None, db, workers=1, registry=registry,
                               audit=audit,
                               tenants={"a": TenantQuota()})
        try:
            service.run((forest_root(0),), tenant="a", form="sg",
                        wait=60.0)
        finally:
            service.drain()
            audit.close()
        report = verify_audit(path, None, db, registry=registry)
        assert report["checked"] == 1
        assert report["mismatched"] == []


# ---------------------------------------------------------------------
# Satellite: atomic counter snapshots under injected stalls
# ---------------------------------------------------------------------


class TestAtomicCounters:
    def _assert_ledger(self, counters):
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

    def test_every_snapshot_is_a_consistent_cut(self, fault_injector):
        db, _source = sg_forest(trees=2, fanout=2, depth=3)
        cache = AnswerCache(capacity=8)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db,
                                 cache=cache)
        bindings = forest_bindings(trees=2, queries=8)
        fault_injector.delay_sections(0.0005, every=3)
        service = QueryService(
            prepared, db, workers=3, queue_capacity=64,
            tenants={"a": TenantQuota(weight=2.0),
                     "b": TenantQuota(weight=1.0)},
        )
        violations = []
        samples = [0]
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                counters = service.counters()
                samples[0] += 1
                try:
                    self._assert_ledger(counters)
                    for block in counters["tenants"].values():
                        self._assert_ledger(block)
                except AssertionError as exc:
                    violations.append(str(exc))

        def submitter(tenant):
            for round_index in range(6):
                for binding in bindings:
                    try:
                        service.run(binding, tenant=tenant, wait=60.0)
                    except (Overloaded, QuotaExceeded):
                        pass

        threads = [threading.Thread(target=sampler)] + [
            threading.Thread(target=submitter, args=(tenant,))
            for tenant in ("a", "b", "a", "b")
        ]
        try:
            with fault_injector:
                for thread in threads:
                    thread.start()
                for thread in threads[1:]:
                    thread.join(120.0)
        finally:
            stop.set()
            threads[0].join(30.0)
            service.drain()
        assert samples[0] > 0
        assert violations == []
        counters = service.counters()
        self._assert_ledger(counters)
        # Both paths raced the sampler: the bindings cycle over two
        # roots, so most requests were hits answered on their
        # submitter's thread, the rest went through the workers.
        assert 0 < counters["inline_hits"] < counters["completed"]
        assert counters["inline_hits"] == sum(
            block["inline_hits"]
            for block in counters["tenants"].values()
        )


# ---------------------------------------------------------------------
# Satellite: drain(grace=) resolves every request exactly once
# ---------------------------------------------------------------------


class TestDrainExactlyOnce:
    def test_concurrent_burst_drain_loses_nothing(self):
        prepared = CancellableFake()
        service = QueryService(
            prepared, tiny_db(), workers=2, queue_capacity=8,
            tenants={"a": TenantQuota(), "b": TenantQuota(),
                     "c": TenantQuota(weight=2.0)},
        )
        futures = []
        futures_lock = threading.Lock()
        sheds = [0]
        start = threading.Barrier(4)

        def submitter(tenant):
            start.wait()
            for _ in range(20):
                try:
                    future = service.submit(tenant=tenant)
                except (Overloaded, QuotaExceeded, ServiceClosed):
                    with futures_lock:
                        sheds[0] += 1
                    continue
                with futures_lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=submitter, args=(tenant,))
            for tenant in ("a", "b", "c")
        ]
        for thread in threads:
            thread.start()
        start.wait()
        prepared.started.wait(30.0)
        # Drain mid-burst with a short grace: in-flight requests must
        # be cancelled at their next budget checkpoint, queued ones
        # resolved as cancelled at dequeue, and late submits rejected
        # as closed — never lost.
        graceful = service.drain(grace=0.2)
        for thread in threads:
            thread.join(30.0)
        assert graceful is False
        outcomes = {"completed": 0, "cancelled": 0, "other": 0}
        for future in futures:
            assert future.done()  # resolved exactly once, none hang
            error = future.exception(0.0)
            if error is None:
                outcomes["completed"] += 1
            elif isinstance(error, EvaluationCancelled):
                outcomes["cancelled"] += 1
            else:
                outcomes["other"] += 1
        counters = service.counters()
        # Every submitted request is accounted for: admitted futures
        # we hold, plus typed sheds/rejections the submitters counted.
        assert counters["submitted"] == len(futures) + sheds[0]
        assert counters["admitted"] == len(futures)
        assert counters["inflight"] == 0
        assert counters["completed"] == outcomes["completed"]
        assert counters["cancelled"] == outcomes["cancelled"]
        assert outcomes["other"] == 0
        assert outcomes["cancelled"] > 0

    def test_drain_without_grace_completes_all_tenants(self):
        prepared = FakePrepared()
        service = QueryService(
            prepared, tiny_db(), workers=2, queue_capacity=32,
            tenants={"a": TenantQuota(), "b": TenantQuota()},
        )
        futures = [
            service.submit(tenant=tenant)
            for tenant in ("a", "b") * 8
        ]
        assert service.drain() is True
        for future in futures:
            assert future.result(0.0) is not None
        counters = service.counters()
        assert counters["completed"] == 16
        assert counters["inflight"] == 0


# ---------------------------------------------------------------------
# Satellite: property tests for bucket and scheduler
# ---------------------------------------------------------------------


class TestQuotaProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rate=st.floats(min_value=0.5, max_value=50.0),
        burst=st.integers(min_value=1, max_value=20),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1, max_size=40,
        ),
    )
    def test_token_bucket_never_over_admits(self, rate, burst, steps):
        """Admissions over any run never exceed burst + rate * time."""
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        admitted = 0
        for advance, takes in steps:
            clock.advance(advance)
            for _ in range(takes):
                if bucket.try_take():
                    admitted += 1
            assert admitted <= burst + rate * clock.now + 1e-6

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        weights=st.lists(
            st.floats(min_value=1.0, max_value=8.0),
            min_size=2, max_size=4,
        ),
        quantum=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_drr_service_proportional_to_weights(self, weights,
                                                 quantum):
        """Under saturation, served work per unit weight stays within
        one quantum of equal across lanes (the classic DRR bound)."""
        sched = FairScheduler(quantum=quantum)
        fill = 200
        total_weight = sum(weights)
        for index, weight in enumerate(weights):
            sched.add_lane(index, weight=weight, capacity=fill)
            for item in range(fill):
                sched.offer(index, (index, item))
        # Stop while every lane is still backlogged (the heaviest
        # lane's fair share stays under its fill), so the measured
        # interval is saturated for all of them.
        budget = int(0.8 * fill * total_weight / max(weights))
        served = [0.0] * len(weights)
        for _take in range(budget):
            lane, _item = sched.take(block=False)
            served[lane] += 1.0
        normalized = [
            served[i] / weights[i] for i in range(len(weights))
        ]
        spread = max(normalized) - min(normalized)
        assert spread <= 2.0 * quantum + 2.0
        assert all(count > 0 for count in served)
