"""A concurrent, overload-safe, multi-tenant front end over prepared
queries.

:class:`QueryService` admits every request on the submitter's thread
and serves it on one of **two paths**, chosen by what the answer cache
holds and never by an option:

* **A cache hit, on the submitter's thread.**  Once the closed check,
  the quota gates and the generation refresh have admitted a request,
  :meth:`QueryService.submit` probes the form's
  :class:`~repro.exec.cache.AnswerCache` with the look-up half of
  ``PreparedQuery.run``.  A hit is counted, resolved and audited there
  and ``submit`` returns a resolved future: no lane slot, no scheduling
  deficit, no worker, no ``retry_after`` EMA sample.  By the paper's
  equivalence theorems every strategy answers a bound query with the
  same set, so the entry *is* the answer whichever strategy would have
  run — a hit neither consults nor records on the tenant's breakers.
* **Everything else, queued for a worker thread**: misses, forms
  without a cache (or stand-ins without ``lookup``), and requests
  admitted with no time left, which are owed the ``expired`` shed.  The
  worker calls ``prepared.run`` unchanged and so looks the binding up
  once more — queued duplicates of an uncached binding evaluate once —
  which makes ``AnswerCache.lookups`` count probes, not requests.

Both end in :meth:`QueryService._finish` (terminal counter → future →
audit row) and share the failure modes of a production query tier,
designed in rather than bolted on:

* **Admission control / load shedding** — every tenant owns a bounded
  admission lane.  A submit that finds its lane full fails *fast* with
  a typed :class:`~repro.errors.Overloaded` (carrying the tenant and a
  ``retry_after`` hint) instead of piling latency onto every request
  queued behind it, so queue depth never exceeds the capacity.
* **Weighted-fair scheduling** — workers drain the lanes by deficit
  round-robin (:class:`~repro.tenancy.scheduler.FairScheduler`): under
  saturation a tenant's long-run service is proportional to its quota
  weight and a hog's backlog cannot starve a neighbour.  An untenanted
  service has one default lane — a plain FIFO queue.
* **Tenant quotas** — token-bucket request rates, concurrent-slot caps
  and cumulative resource pools (facts / rounds / wall-clock seconds,
  charged post-paid per attempt, a hit's seconds included) shed with a
  typed :class:`~repro.errors.QuotaExceeded` carrying the refill time
  as ``retry_after`` — before any cache look-up, and never affecting
  another tenant's admissions.
* **Form registry** — with a :class:`~repro.tenancy.forms.FormRegistry`
  attached, tenants submit ``(form_name, constants)``; the form's static
  cost class prices its round-robin cost, so heavy forms drain a
  tenant's weight faster.
* **Deadline propagation** — each request's deadline is threaded into
  every attempt as a derived :class:`~repro.engine.guard.ResourceBudget`
  (``child`` clamps it to the remaining allowance); a request already
  past its deadline when a worker dequeues it is shed unevaluated.
* **One failure policy** — a worker runs each request through
  :func:`~repro.exec.resilient.run_resilient` once; its table,
  :data:`~repro.exec.resilient.OUTCOMES`, retries (on a per-tenant
  seeded backoff stream), degrades (feeding the tenant's own breaker
  board) or fails each attempt.
* **Snapshot isolation** — requests read an epoch-pinned
  :meth:`~repro.engine.database.Database.snapshot` generation, so a
  concurrent writer never shows a half-applied mutation; admission
  re-pins it (only when epochs moved) before the cache probe.
* **Atomic observability** — admission counters, the breaker boards
  the service created and the ``inflight`` gauge share one metrics
  lock, so a :meth:`counters` snapshot is one consistent cut: always
  ``admitted == completed + failed + cancelled + shed_expired +
  inflight``, with ``inline_hits`` of ``completed`` off the first path.
* **Graceful drain** — :meth:`QueryService.drain` stops admissions,
  lets workers finish queued and in-flight work, and after an optional
  grace period flips the stragglers'
  :class:`~repro.engine.guard.CancellationToken`\\ s so evaluation
  stops at the next round boundary.  Every admitted request resolves
  exactly once — answered, shed, or cancelled.

Answers served concurrently are byte-identical to single-threaded
evaluation of the same requests — ``bench_s4_service_overload.py`` and
``bench_s6_multitenant.py`` under ``benchmarks/`` enforce exactly that.
"""

import threading
import time
import zlib

from ..durability.audit import (
    epoch_hash,
    jsonable_constants,
    result_fingerprint,
)
from ..engine.guard import CancellationToken, ResourceBudget
from ..errors import (
    EvaluationCancelled,
    Overloaded,
    QuotaExceeded,
    ReproError,
    ResilienceExhaustedError,
    ServiceClosed,
)
from ..exec.resilient import DEFAULT_CHAIN, FallbackPolicy, run_resilient
from ..tenancy.scheduler import FairScheduler
from .breaker import BreakerBoard

#: Resource-pool names, in the order admission checks them.
_POOL_ORDER = ("facts", "rounds", "seconds")


def _tenant_stream(name):
    """Deterministic per-tenant RNG stream for retry backoff.

    CRC32 of the name, *not* ``hash()`` — the builtin string hash is
    salted per process, and retry schedules must replay across runs.
    The default (untenanted) stream is 0, which
    :meth:`~repro.serve.retry.RetryPolicy.backoff` maps to the exact
    pre-tenancy delays.
    """
    if name is None:
        return 0
    return zlib.crc32(str(name).encode("utf-8"))


class ServiceStats:
    """Thread-safe counters describing one service's lifetime.

    The admission ledger always balances: ``submitted == admitted +
    shed_overload + shed_quota + rejected_closed``, and — because
    admission and every terminal transition move the ``inflight`` gauge
    under the same lock — at *every* snapshot ``admitted == completed +
    failed + cancelled + shed_expired + inflight`` exactly, not just at
    quiescence.  Passing a shared ``lock`` lets the service make this
    snapshot atomic with its breaker boards too.
    """

    #: Every counter, in ``as_dict`` order.  ``inline_hits`` are the
    #: ``completed`` requests answered from the answer cache on the
    #: submitter's thread (they never saw the queue or a worker);
    #: ``inflight`` is the gauge of admitted requests not yet terminal.
    FIELDS = ("submitted", "admitted", "shed_overload", "shed_expired",
              "shed_quota", "rejected_closed", "completed", "inline_hits",
              "failed", "cancelled", "retried", "fallbacks", "refreshes",
              "max_queue_depth", "inflight")
    __slots__ = ("_lock",) + FIELDS

    def __init__(self, lock=None):
        self._lock = lock if lock is not None else threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def bump(self, name, amount=1):
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def note_admitted(self):
        """Count an admission and raise the inflight gauge atomically."""
        with self._lock:
            self.admitted += 1
            self.inflight += 1

    def note_terminal(self, name):
        """Count a terminal outcome (``completed`` / ``failed`` /
        ``cancelled`` / ``shed_expired``) and drop the inflight gauge
        in the same critical section — the two must never be observable
        apart, or the ledger tears under concurrent snapshots."""
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
            self.inflight -= 1

    def note_depth(self, depth):
        with self._lock:
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth

    def as_dict(self):
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self):
        return "ServiceStats(%s)" % ", ".join(
            "%s=%d" % (k, v) for k, v in self.as_dict().items() if v
        )


class QueryFuture:
    """The pending outcome of one submitted request.

    :meth:`result` blocks for the answer (re-raising the request's
    typed error if it failed); :meth:`cancel` flips the request's
    cancellation token, which stops evaluation cooperatively at the
    next budget checkpoint.
    """

    __slots__ = ("request_id", "_done", "_result", "_error", "_token")
    #: ``token=None`` makes the future of a request answered inside
    #: ``submit``, with nothing to wait for or cancel; they share this
    #: set event — creating one costs as much as the cache probe.
    _ANSWERED = threading.Event()
    _ANSWERED.set()

    def __init__(self, request_id, token):
        self.request_id = request_id
        self._done = self._ANSWERED if token is None else threading.Event()
        self._result = None
        self._error = None
        self._token = token

    def done(self):
        return self._done.is_set()

    def result(self, timeout=None):
        """The :class:`~repro.exec.strategies.ExecutionResult`, or the
        request's typed error re-raised.  Raises ``TimeoutError`` if
        the outcome does not land within ``timeout`` seconds."""
        error = self.exception(timeout)
        if error is not None:
            raise error
        return self._result

    def exception(self, timeout=None):
        """The request's error (``None`` on success); blocks like
        :meth:`result`."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                "request %d not done within %gs" % (self.request_id,
                                                    timeout)
            )
        return self._error

    def cancel(self):
        """Request cooperative cancellation of this request."""
        if self._token is not None:
            self._token.cancel()

    def _resolve(self, result=None, error=None):
        self._result = result
        self._error = error
        self._done.set()

    def __repr__(self):
        state = "pending"
        if self._done.is_set():
            state = "error: %s" % type(self._error).__name__ \
                if self._error is not None else "done"
        return "QueryFuture(#%d, %s)" % (self.request_id, state)


class _TenantState:
    """Mutable runtime state for one tenant on one service."""

    __slots__ = ("name", "quota", "bucket", "pools", "stream", "board",
                 "stats", "in_system")

    def __init__(self, name, quota, bucket, pools, board, stats):
        self.name = name
        self.quota = quota
        self.bucket = bucket
        self.pools = pools
        self.stream = _tenant_stream(name)
        self.board = board
        #: Per-tenant ServiceStats (None for the default lane, whose
        #: traffic is only the service-wide ledger).
        self.stats = stats
        #: Requests in the system (queued + in flight), guarded by the
        #: service admission lock; enforces ``max_concurrent``.
        self.in_system = 0


class _Request:
    __slots__ = ("id", "prepared", "constants", "deadline", "budget",
                 "token", "future", "db", "submitted_at", "tenant",
                 "tstate", "form", "cost")

    def __init__(self, request_id, prepared, constants, deadline,
                 budget, token, future, db, submitted_at, tenant,
                 tstate, form, cost):
        self.id = request_id
        #: The resolved prepared form this request evaluates.
        self.prepared = prepared
        self.constants = constants
        #: Absolute deadline on the service clock, or ``None``.
        self.deadline = deadline
        #: Caller-supplied parent budget (optional) — attempts derive
        #: children from it so its fact/round caps propagate too.
        self.budget = budget
        self.token = token
        self.future = future
        #: The snapshot generation pinned at admission.
        self.db = db
        self.submitted_at = submitted_at
        self.tenant = tenant
        self.tstate = tstate
        #: Registered form name (None when serving the default form).
        self.form = form
        self.cost = cost


def _service_extras(request, attempts, fallback=False, **more):
    """The ``extras["service"]`` block of every served result."""
    return dict(attempts=attempts, fallback=fallback,
                generation=id(request.db), **more)


class QueryService:
    """Serve prepared query forms concurrently to multiple tenants.

    Parameters
    ----------
    prepared : :class:`~repro.exec.prepared.PreparedQuery` or None
        The default query form, served to submits that name no
        ``form``.  Anything duck-typing its ``method`` /
        ``run(constants, db=..., budget=...)`` / ``bind`` surface works
        (tests exploit this; without ``lookup`` every request queues).
        May be ``None`` when a ``registry`` is attached — then every
        submit must name a form.
    db : :class:`~repro.engine.database.Database`
        The live database.  Requests are evaluated against epoch-pinned
        snapshot generations of it (unless ``snapshots=False``).
    workers : int
        Worker-thread pool size.
    queue_capacity : int
        Per-lane admission-queue capacity (a tenant quota's
        ``queue_capacity`` overrides it for that tenant's lane);
        admission past it sheds with :class:`~repro.errors.Overloaded`.
    default_timeout : float or None
        Per-request deadline (seconds from admission) used when a
        submit names none.
    retry : :class:`~repro.serve.retry.RetryPolicy` or None
        Backoff for the retries :data:`~repro.exec.resilient.OUTCOMES`
        grants (None = one attempt), from a per-tenant seed stream.
    breakers : :class:`~repro.serve.breaker.BreakerBoard` or None
        The *default* tenant's per-strategy breakers, fed as that table
        says (a board on the shared metrics lock when omitted); named
        tenants get their own board with the same settings.
    fallback : bool
        Chain the default strategies after the prepared method (True);
        without, a request that would degrade fails with its own error.
    snapshots : bool
        Pin an epoch snapshot per admission generation (True) or serve
        the live database directly (False — only safe without
        concurrent writers).
    audit : :class:`~repro.durability.audit.AuditLog` or None
        Per-request JSONL audit trail.  Workers record every request's
        outcome — request id, tenant, form, epoch-table hash, strategy,
        attempts, execution time, and a deterministic result
        fingerprint — and :meth:`drain` flushes the buffer, so the log
        is replay-checkable after recovery, per tenant (see
        :func:`~repro.durability.audit.verify_audit`).
    clock, sleep : callables
        Injectable time sources for deadlines/quotas/breakers and
        backoff sleeps; tests drive fake time through these.
    registry : :class:`~repro.tenancy.forms.FormRegistry` or None
        Named, versioned forms; submits may pass ``form=`` (and
        ``version=``) to select one, and its cost class prices the
        request's scheduling cost.
    tenants : ``{name: TenantQuota}`` or None
        Named tenants with their quotas and weights.  ``None`` (or an
        empty mapping) configures a single anonymous default lane —
        exactly the untenanted service of old.  A default lane exists
        either way, so ``submit(tenant=None)`` always works.
    quantum : float
        Deficit-round-robin quantum (deficit earned per rotation per
        unit weight).
    """

    def __init__(self, prepared, db, workers=2, queue_capacity=16,
                 default_timeout=None, retry=None, breakers=None,
                 fallback=True, snapshots=True, audit=None, clock=None,
                 sleep=None, registry=None, tenants=None, quantum=1.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if prepared is None and registry is None:
            raise ValueError(
                "need a prepared query, a form registry, or both"
            )
        self.prepared = prepared
        self.db = db
        self.registry = registry
        self.queue_capacity = queue_capacity
        self.default_timeout = default_timeout
        self.retry = retry
        self.fallback = fallback
        self.snapshots = snapshots
        self.audit = audit
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        #: One lock under which admission counters, the inflight gauge
        #: and every service-created breaker transition move — a
        #: ``counters()`` snapshot taken under it is a single
        #: consistent cut of the whole service block.  Re-entrant,
        #: because snapshotting a board re-acquires it per breaker.
        self._metrics_lock = threading.RLock()
        self.stats = ServiceStats(lock=self._metrics_lock)
        self.breakers = breakers if breakers is not None else \
            BreakerBoard(lock=self._metrics_lock)
        #: EMA of per-request service time, for retry_after hints.
        self._ema_service = None
        self._scheduler = FairScheduler(quantum=quantum)
        self._tenants = {}
        self._multi = bool(tenants)
        self._add_tenant_state(None, None)
        for name, quota in (tenants or {}).items():
            if name is None:
                raise ValueError(
                    "None is the default lane, not a tenant name"
                )
            self._add_tenant_state(name, quota)
        self._admit_lock = threading.Lock()
        self._closed = False
        self._next_id = 0
        #: Admitted-but-unfinished requests, for drain cancellation.
        self._outstanding = {}
        self._generation = db.snapshot() if snapshots else db
        #: (generation, its epoch_hash) of the last audited request.
        self._epoch_memo = (None, None)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name="repro-serve-%d" % index,
                daemon=True,
            )
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    def _add_tenant_state(self, name, quota):
        if quota is None:
            from ..tenancy.quota import TenantQuota

            quota = TenantQuota()
        capacity = quota.queue_capacity
        if capacity is None:
            capacity = self.queue_capacity
        self._scheduler.add_lane(name, weight=quota.weight,
                                 capacity=capacity)
        if name is None:
            board, stats = self.breakers, None
        else:
            board = BreakerBoard(
                threshold=self.breakers.threshold,
                cooldown=self.breakers.cooldown,
                clock=self._clock,
                lock=self._metrics_lock,
            )
            stats = ServiceStats(lock=self._metrics_lock)
        self._tenants[name] = _TenantState(
            name, quota,
            quota.bucket(clock=self._clock),
            quota.pools(clock=self._clock),
            board, stats,
        )

    # -- admission -----------------------------------------------------

    def submit(self, constants=None, timeout=None, budget=None,
               tenant=None, form=None, version=None):
        """Admit one request; returns a :class:`QueryFuture`, already
        resolved on an answer-cache hit (module docstring: two paths).

        Raises — all before the request counts as submitted —
        ``ValueError`` when ``constants`` does not match the form's
        arity or ``tenant`` is unknown, and
        :class:`~repro.errors.UnknownFormError` for an unregistered
        ``form``.  After that, raises
        :class:`~repro.errors.ServiceClosed` once :meth:`drain` ran,
        :class:`~repro.errors.QuotaExceeded` when the tenant's own
        allowance (rate, concurrency, or a resource pool) refuses, and
        :class:`~repro.errors.Overloaded` (fast, without queuing) when
        the tenant's lane is at capacity.  Both shed errors carry a
        machine-readable ``retry_after`` hint in seconds.
        """
        prepared, form_name, cost = self._resolve_form(form, version)
        constants = self._validated(prepared, constants)
        tstate = self._tenants.get(tenant)
        if tstate is None:
            raise ValueError(
                "unknown tenant %r (configured: %s)"
                % (tenant,
                   ", ".join(sorted(n for n in self._tenants
                                    if n is not None)) or "none")
            )
        now = self._clock()
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else now + timeout
        with self._admit_lock:
            # The whole admission decision — submitted bump through
            # admitted/shed outcome — sits in one metrics-lock critical
            # section, so both ledger identities (``submitted ==
            # admitted + sheds + rejected`` and ``admitted ==
            # terminals + inflight``) hold at *every* counters()
            # snapshot, never just at quiescence: a worker that already
            # serves a freshly offered request cannot count its
            # terminal before the submitter has counted the admission.
            with self._metrics_lock:
                self._bump(tstate, "submitted")
                if self._closed:
                    self._bump(tstate, "rejected_closed")
                    raise ServiceClosed(
                        "service is draining; admissions are closed"
                    )
                self._check_quota(tstate)
                request_id = self._next_id
                self._next_id += 1
                generation = self._refreshed_generation()
                # A request admitted with no time left is owed the
                # worker's ``expired`` shed, not an answer.
                hit = None if deadline is not None and deadline <= now \
                    else self._cached(prepared, constants, generation)
                token = CancellationToken() if hit is None else None
                future = QueryFuture(request_id, token)
                request = _Request(
                    request_id, prepared, constants, deadline, budget,
                    token, future, generation, now, tenant, tstate,
                    form_name, cost)
                if hit is None:
                    self._enqueue(request)
                self.stats.note_admitted()
                if tstate.stats is not None:
                    tstate.stats.note_admitted()
            if hit is not None:
                # Still under the admission lock, which drain() takes
                # to close admissions: a hit admitted before the close
                # is counted and audited before drain() flushes the log.
                # Post-paid pools are charged it like any attempt.
                self._charge(request, ({"seconds": self._clock() - now},))
                hit.extras["service"] = _service_extras(request, 1)
                self._finish(request, "completed", hit, None, now)
                self._bump(tstate, "inline_hits")
                return future
        self.stats.note_depth(self._scheduler.depth())
        if tstate.stats is not None:
            tstate.stats.note_depth(self._scheduler.lane_depth(tenant))
        return future

    @staticmethod
    def _cached(prepared, constants, generation):
        """The binding's cached answer for the pinned generation, by
        ``PreparedQuery.lookup`` (the code ``run`` looks up with), or
        ``None`` — also for a stand-in without it: the request queues."""
        lookup = getattr(prepared, "lookup", None)
        if lookup is None:
            return None
        try:
            return lookup(constants, db=generation)
        except Exception:
            # E.g. an unhashable constant.  The worker's own look-up
            # raises it again and fails the request through its future.
            return None

    def _enqueue(self, request):
        """Offer an admitted miss to its tenant's lane, or shed it."""
        tenant, tstate = request.tenant, request.tstate
        if not self._scheduler.offer(tenant, request, cost=request.cost):
            self._bump(tstate, "shed_overload")
            depth = self._scheduler.lane_depth(tenant)
            raise Overloaded(
                "admission lane%s at capacity (%d queued); request shed"
                % ("" if tenant is None else " of tenant %r" % tenant,
                   depth),
                reason="queue_full", tenant=tenant,
                retry_after=self._drain_hint(depth),
            )
        self._outstanding[request.id] = request
        tstate.in_system += 1

    def run(self, constants=None, timeout=None, budget=None,
            tenant=None, form=None, version=None, wait=None):
        """Submit and block for the result (closed-loop convenience)."""
        return self.submit(
            constants, timeout=timeout, budget=budget, tenant=tenant,
            form=form, version=version
        ).result(wait)

    def _resolve_form(self, form, version):
        """(prepared, form name, DRR cost) for one submit."""
        if form is not None:
            if self.registry is None:
                raise ValueError(
                    "submit named form %r but the service has no "
                    "registry" % (form,)
                )
            registered = self.registry.get(form, version)
            return registered.prepared, registered.name, registered.cost
        if self.prepared is None:
            raise ValueError(
                "this service serves named forms only; pass form="
            )
        return self.prepared, None, 1.0

    def _validated(self, prepared, constants):
        """Reject malformed constants in the submitter's thread.

        A wrong-arity binding must surface here as a ``ValueError``
        before the request counts as submitted — never inside a worker,
        where an untyped crash would kill the thread.
        """
        if constants is None:
            return None
        constants = tuple(constants)
        bound = getattr(prepared, "bound_positions", None)
        if bound is not None and len(constants) != len(bound):
            raise ValueError(
                "query form binds %d position(s), got %d constant(s)"
                % (len(bound), len(constants))
            )
        return constants

    def _bump(self, tstate, counter, amount=1):
        """Count on the service-wide ledger and the tenant's own."""
        self.stats.bump(counter, amount)
        if tstate.stats is not None:
            tstate.stats.bump(counter, amount)

    def _check_quota(self, tstate):
        """Every quota gate for one admission, cheapest-regret first.

        Ordering matters: the resource pools and the concurrency cap
        are checked *before* the token bucket, so a request shed by
        them has not burned a rate token it never used.  Called under
        the admission lock, which is what makes the concurrency count
        race-free.
        """
        for name in _POOL_ORDER:
            pool = tstate.pools.get(name)
            if pool is not None and not pool.admits():
                self._bump(tstate, "shed_quota")
                raise QuotaExceeded(
                    "tenant %r exhausted its %s pool (balance %.4g)"
                    % (tstate.name, name, pool.balance()),
                    tenant=tstate.name, resource=name,
                    retry_after=pool.retry_after(),
                )
        limit = tstate.quota.max_concurrent
        if limit is not None and tstate.in_system >= limit:
            self._bump(tstate, "shed_quota")
            raise QuotaExceeded(
                "tenant %r at its concurrency cap (%d in system)"
                % (tstate.name, tstate.in_system),
                tenant=tstate.name, resource="concurrency",
                retry_after=self._drain_hint(1),
            )
        if tstate.bucket is not None and not tstate.bucket.try_take():
            self._bump(tstate, "shed_quota")
            raise QuotaExceeded(
                "tenant %r over its request rate (%.4g/s)"
                % (tstate.name, tstate.bucket.rate),
                tenant=tstate.name, resource="rate",
                retry_after=tstate.bucket.refill_after(),
            )

    def _drain_hint(self, depth):
        """Seconds until ``depth`` requests plausibly drained, from the
        EMA of recent service times; None before anything completed."""
        with self._metrics_lock:
            ema = self._ema_service
        if ema is None:
            return None
        return max(0.0, depth + 1) * ema / len(self._workers)

    def _refreshed_generation(self):
        """The current snapshot generation, re-pinned iff epochs moved.

        Keeping the generation object stable while the database is
        quiet is what keeps the answer cache hot: its validity check is
        by database identity, so gratuitous re-pinning would read as an
        invalidation on every entry.
        """
        if not self.snapshots:
            return self.db
        generation = self._generation
        pinned = generation._relations
        # Snapshot the live epoch table under the database lock: a
        # concurrent writer inserting a first-use relation key would
        # otherwise resize the dict mid-iteration.
        with self.db._lock:
            live = [
                (key, rel.epoch)
                for key, rel in self.db._relations.items()
            ]
        stale = len(live) != len(pinned)
        if not stale:
            for key, epoch in live:
                view = pinned.get(key)
                if view is None or view.epoch != epoch:
                    stale = True
                    break
        if stale:
            generation = self.db.snapshot()
            self._generation = generation
            self.stats.bump("refreshes")
        return generation

    # -- the worker side -----------------------------------------------

    def _worker_loop(self):
        while True:
            request = self._scheduler.take()
            if request is None:
                # Closed and fully drained: the pool winds down.
                return
            try:
                self._serve(request)
            finally:
                with self._admit_lock:
                    self._outstanding.pop(request.id, None)
                    request.tstate.in_system -= 1

    def _serve(self, request):
        """Decide one dequeued request's outcome and finish it."""
        now = self._clock()
        outcome, result, error = "completed", None, None
        evaluated = False
        if request.token.cancelled:
            # Cancelled while still queued (future.cancel() before any
            # worker dequeued it): resolve without evaluation.  Without
            # this check the request would be fully evaluated and its
            # cancellation only honoured if a budget checkpoint
            # happened to fire mid-run.
            outcome, error = "cancelled", EvaluationCancelled(
                "request %d cancelled while queued" % request.id
            )
        elif request.deadline is not None and now >= request.deadline:
            # Shed without evaluation: the deadline passed while the
            # request sat in the queue.
            outcome, error = "expired", Overloaded(
                "deadline expired after %.4fs in queue; request shed "
                "unevaluated" % (now - request.submitted_at),
                reason="expired", tenant=request.tenant,
            )
        else:
            evaluated = True
            try:
                result = self._evaluate(request)
            except EvaluationCancelled as exc:
                outcome, error = "cancelled", exc
            except BaseException as exc:
                # A typed ReproError, or an untyped bug — which must
                # not kill the worker thread: that would shrink the
                # pool for good, leave the future unresolved (hanging
                # result() callers forever) and unbalance the ledger.
                outcome, error = "failed", exc
        self._finish(request, outcome, result, error, now)
        if evaluated:
            self._note_service_time(self._clock() - now)

    def _finish(self, request, outcome, result, error, started):
        """The one terminal path, for every outcome on either thread:
        terminal counter (with the inflight gauge), future, audit row —
        a client that saw its result also sees it counted."""
        counter = "shed_expired" if outcome == "expired" else outcome
        self.stats.note_terminal(counter)
        if request.tstate.stats is not None:
            request.tstate.stats.note_terminal(counter)
        request.future._resolve(result=result, error=error)
        self._audit_record(request, outcome, result, error, started)

    def _note_service_time(self, elapsed):
        """Feed the ``retry_after`` EMA: how fast the *queue* drains,
        so hits answered on the submitter's thread stay out of it."""
        if elapsed < 0:
            return
        with self._metrics_lock:
            if self._ema_service is None:
                self._ema_service = elapsed
            else:
                self._ema_service = (
                    0.8 * self._ema_service + 0.2 * elapsed
                )

    def _audit_record(self, request, outcome, result, error, started):
        """Append one request's outcome to the audit trail (if any).

        Auditing is observability, never control flow: any failure to
        render or write the entry is swallowed so it cannot fail the
        request it describes or kill the worker thread.
        """
        if self.audit is None:
            return
        try:
            constants = (
                request.constants
                if request.constants is not None
                else getattr(request.prepared, "default_constants", ())
            )
            rendered, replayable = jsonable_constants(constants)
            entry = {
                "request_id": request.id,
                "tenant": request.tenant,
                "form": request.form,
                "constants": rendered,
                "replayable": replayable,
                "epoch_hash": self._epoch_hash(request.db),
                "lineage": getattr(request.db, "lineage", None),
                "outcome": outcome,
                "execution_time_ms": round(
                    (self._clock() - started) * 1000.0, 4
                ),
            }
            if error is not None:
                entry["error"] = "%s: %s" % (type(error).__name__, error)
            if result is not None:
                entry["strategy"] = result.method
                entry["result_fingerprint"] = result_fingerprint(
                    result.answers
                )
                service_extras = result.extras.get("service", {})
                entry["attempts"] = service_extras.get("attempts")
                entry["fallback"] = service_extras.get("fallback")
            self.audit.record(entry)
        except Exception:  # pragma: no cover - defensive
            pass

    def _epoch_hash(self, db):
        """``epoch_hash(db)`` — a digest over the whole epoch table —
        taken once per pinned generation, which never changes; the
        live database (``snapshots=False``) is hashed per request."""
        memo = self._epoch_memo
        if memo[0] is not db or not self.snapshots:
            memo = self._epoch_memo = (db, epoch_hash(db))
        return memo[1]

    def _budget_for(self, request):
        """A fresh per-attempt budget carrying the request's remaining
        deadline, cancellation token, and any caller-supplied caps."""
        remaining = None
        if request.deadline is not None:
            remaining = max(0.0, request.deadline - self._clock())
        if request.budget is not None:
            return request.budget.child(
                timeout=remaining, token=request.token
            )
        return ResourceBudget(
            timeout=remaining, token=request.token, clock=self._clock
        )

    def _charge(self, request, usages):
        """Post-paid quota charge, one usage dict per attempt (a hit's
        has seconds only).  Charging after the fact lets one expensive
        query drive a pool into debt — the debt then blocks the *next*
        admission, which is the isolation contract."""
        pools = request.tstate.pools
        if not pools:
            return
        for usage in usages:
            for name, pool in pools.items():
                amount = usage.get(name)
                if amount:
                    pool.charge(amount)

    def _evaluate(self, request):
        """One request, one :func:`~repro.exec.resilient.run_resilient`
        call (stage 0: the prepared form's own ``run``); counters, pool
        charges and ``extras["service"]`` come off its report."""
        prepared, tstate = request.prepared, request.tstate
        method = prepared.method
        chain = (method,) + tuple(
            m for m in DEFAULT_CHAIN if self.fallback and m != method)
        error = None
        try:
            report = run_resilient(
                lambda: prepared.bind(request.constants), request.db,
                FallbackPolicy(chain),
                breakers=tstate.board,
                budget_factory=lambda: self._budget_for(request),
                first=lambda budget: prepared.run(
                    request.constants, db=request.db, budget=budget),
                retry=None if self.retry is None
                else (self.retry, request.id, tstate.stream),
                clock=self._clock, sleep=self._sleep,
            )
        except ReproError as exc:
            report, error = getattr(exc, "report", None), exc
            if report is None:
                raise
        fallback = report.stages > 1
        if report.retries:
            self._bump(tstate, "retried", report.retries)
        if fallback:
            self._bump(tstate, "fallbacks")
        self._charge(request, (attempt.usage for attempt in report.attempts))
        if isinstance(error, ResilienceExhaustedError) and not fallback:
            # The chain was stage 0 alone: fail with its own error.
            error = report.attempts[-1].error
        if error is not None:
            raise error
        report.result.extras["service"] = _service_extras(
            request, len(report.attempts), fallback,
            **({"resilient": report.summary()} if fallback else {})
        )
        return report.result

    # -- shutdown ------------------------------------------------------

    def drain(self, grace=None):
        """Stop admissions, finish accepted work, cancel stragglers.

        Admissions close at once (later submits raise
        :class:`~repro.errors.ServiceClosed`), after any cache hit
        still being finished on its submitter's thread is counted and
        audited; queued and in-flight requests run to completion — the
        scheduler dispatches what its lanes still hold and only then
        releases the workers.  With ``grace`` set, workers still alive
        after that many (real) seconds get their requests' cancellation
        tokens flipped, which aborts in-flight evaluation at the next
        budget checkpoint and resolves still-queued requests as
        cancelled when a worker picks them up — every admitted request
        resolves exactly once either way.  Returns True when
        everything finished gracefully, False when stragglers had to be
        cancelled.  Idempotent.
        """
        with self._admit_lock:
            self._closed = True
        self._scheduler.close()
        deadline = None if grace is None else time.monotonic() + grace
        graceful = True
        for worker in self._workers:
            worker.join(
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            if worker.is_alive():
                graceful = False
        if not graceful:
            # Grace expired: flip every outstanding token and wait for
            # the workers to notice at their next round boundary (or,
            # for still-queued requests, at dequeue).
            with self._admit_lock:
                outstanding = list(self._outstanding.values())
            for request in outstanding:
                request.token.cancel()
            for worker in self._workers:
                worker.join()
        if self.audit is not None:
            # Workers are parked and hits finish under the admission
            # lock taken above: every recorded entry reaches disk.
            self.audit.flush()
        return graceful

    def close(self, grace=None):
        """Alias for :meth:`drain` (context-manager exit path)."""
        return self.drain(grace=grace)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.drain()
        return False

    # -- observability -------------------------------------------------

    def counters(self):
        """The ``service`` counter block: admission ledger, retries,
        breaker trips/rejections, per-strategy breaker states, and —
        when the prepared query carries them — snapshots of the
        answer-cache and counting-store counters.

        The ledger, the inflight gauge and every breaker board the
        service created share one lock, so the whole block is a single
        atomic cut: ``admitted == completed + failed + cancelled +
        shed_expired + inflight`` holds in *every* snapshot, even taken
        mid-burst.  On a multi-tenant service a ``tenants`` block adds,
        per tenant, the same ledger plus lane, breaker and quota state.
        """
        with self._metrics_lock:
            counters = self.stats.as_dict()
            counters["breaker_trips"] = self.breakers.trips
            counters["breaker_rejections"] = self.breakers.rejections
            counters["breaker_states"] = self.breakers.states()
            if self._multi:
                lanes = self._scheduler.lane_stats()
                counters["tenants"] = {
                    name: self._tenant_block(tstate, lanes.get(name))
                    for name, tstate in sorted(
                        (n, t) for n, t in self._tenants.items()
                        if n is not None
                    )
                }
        cache = getattr(self.prepared, "cache", None)
        if cache is not None:
            counters["answer_cache"] = cache.stats()
        store = getattr(self.prepared, "counting_store", None)
        if store is not None:
            counters["counting_store"] = store.stats()
        if self.registry is not None:
            counters["forms"] = self.registry.describe()
        if self.audit is not None:
            counters["audit"] = {
                "path": self.audit.path,
                "entries": self.audit.entries_written,
            }
        return counters

    def _tenant_block(self, tstate, lane):
        block = tstate.stats.as_dict()
        block["queue"] = lane
        block["breaker_trips"] = tstate.board.trips
        block["breaker_rejections"] = tstate.board.rejections
        block["breaker_states"] = tstate.board.states()
        quota = {"weight": tstate.quota.weight}
        if tstate.bucket is not None:
            quota["rate"] = tstate.bucket.rate
            quota["rate_tokens"] = tstate.bucket.level()
            quota["rate_denied"] = tstate.bucket.denied
        if tstate.quota.max_concurrent is not None:
            quota["max_concurrent"] = tstate.quota.max_concurrent
        if tstate.pools:
            quota["pools"] = {
                name: {
                    "balance": pool.balance(),
                    "capacity": pool.capacity,
                    "charged": pool.charged,
                    "denied": pool.denied,
                }
                for name, pool in sorted(tstate.pools.items())
            }
        block["quota"] = quota
        return block

    def __repr__(self):
        return "QueryService(%s, %d worker(s), %d tenant lane(s), %s)" % (
            getattr(self.prepared, "method", "forms"),
            len(self._workers), len(self._tenants),
            "closed" if self._closed else "open",
        )
