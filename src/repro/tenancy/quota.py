"""Per-tenant quotas: token buckets and cumulative resource pools.

A tenant's allowance has three independent axes, all refilled on an
injectable clock so tests step through admission decisions without
sleeping:

* **Request rate** — a classic :class:`TokenBucket` of ``rate`` tokens
  per second up to ``burst``; a submit that finds no token is shed with
  :class:`~repro.errors.QuotaExceeded` (``resource='rate'``) carrying
  the exact refill time as its ``retry_after`` hint.
* **Concurrency** — ``max_concurrent`` caps the tenant's requests in
  the system at once (queued plus in flight); enforced by the service
  under its admission lock.
* **Cumulative resources** — a :class:`ResourcePool` per resource
  (derived facts, fixpoint rounds, wall-clock seconds) charged *after*
  each attempt from what the attempt's
  :meth:`~repro.engine.guard.ResourceBudget.usage` reports.  Charging
  is post-paid, so one expensive query can drive a pool into debt; the
  pool then refuses new admissions until its refill rate pays the debt
  off — which is precisely the ``retry_after`` the shed error carries.

The configuration lives in the immutable :class:`TenantQuota`; the
mutable runtime state (bucket levels, pool balances) is built from it
per service via :meth:`TenantQuota.bucket` / :meth:`TenantQuota.pools`.
"""

import threading
import time


class TokenBucket:
    """``rate`` tokens/second up to ``burst``, on an injectable clock.

    ``try_take`` is the admission gate; ``refill_after`` prices the
    wait for a shed caller.  Refill is continuous (fractional tokens
    accumulate), so two calls at the same fake-clock instant see the
    same level — admission decisions are deterministic per clock
    schedule.
    """

    __slots__ = ("rate", "burst", "_clock", "_lock", "_tokens",
                 "_stamped", "taken", "denied")

    def __init__(self, rate, burst=None, clock=None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(rate if burst is None else burst)
        if self.burst < 1.0:
            raise ValueError("burst must admit at least one request")
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._stamped = None
        self.taken = 0
        self.denied = 0

    def _refill_locked(self):
        now = self._clock()
        if self._stamped is None:
            self._stamped = now
        elif now > self._stamped:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamped) * self.rate
            )
            self._stamped = now
        return now

    def try_take(self, tokens=1):
        """Take ``tokens`` if available; returns True on success."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.taken += 1
                return True
            self.denied += 1
            return False

    def refill_after(self, tokens=1):
        """Seconds until ``tokens`` are available (0.0 if already)."""
        with self._lock:
            self._refill_locked()
            missing = tokens - self._tokens
            if missing <= 0:
                return 0.0
            return missing / self.rate

    def level(self):
        """Current token level (refilled to now)."""
        with self._lock:
            self._refill_locked()
            return self._tokens

    def __repr__(self):
        return "TokenBucket(%.3g/s, burst %.3g, %.3g available)" % (
            self.rate, self.burst, self.level()
        )


class ResourcePool:
    """A cumulative allowance that refills over time and admits debt.

    ``capacity`` units, refilling at ``refill`` units/second.  Usage is
    charged *after* the work ran (:meth:`charge` — the balance may go
    negative, since a query's cost is only known once it finished), and
    admission asks :meth:`admits` *before* new work starts: a pool in
    debt refuses until the refill pays it back above zero.
    """

    __slots__ = ("name", "capacity", "refill", "_clock", "_lock",
                 "_balance", "_stamped", "charged", "denied")

    def __init__(self, name, capacity, refill, clock=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if refill < 0:
            raise ValueError("refill must be non-negative")
        self.name = name
        self.capacity = float(capacity)
        self.refill = float(refill)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._balance = self.capacity
        self._stamped = None
        #: Total units ever charged (monotone, for counters).
        self.charged = 0.0
        self.denied = 0

    def _refill_locked(self):
        now = self._clock()
        if self._stamped is None:
            self._stamped = now
        elif now > self._stamped:
            self._balance = min(
                self.capacity,
                self._balance + (now - self._stamped) * self.refill,
            )
            self._stamped = now

    def charge(self, amount):
        """Deduct ``amount`` units (post-paid; may drive debt)."""
        if amount <= 0:
            return
        with self._lock:
            self._refill_locked()
            self._balance -= amount
            self.charged += amount

    def admits(self):
        """May new work start against this pool right now?"""
        with self._lock:
            self._refill_locked()
            if self._balance > 0:
                return True
            self.denied += 1
            return False

    def balance(self):
        with self._lock:
            self._refill_locked()
            return self._balance

    def retry_after(self):
        """Seconds until the balance turns positive (0.0 if it is)."""
        with self._lock:
            self._refill_locked()
            if self._balance > 0:
                return 0.0
            if self.refill <= 0:
                return float("inf")
            # Refill to just above zero, not back to capacity.
            return -self._balance / self.refill

    def __repr__(self):
        return "ResourcePool(%s, %.3g/%.3g, +%.3g/s)" % (
            self.name, self.balance(), self.capacity, self.refill
        )


class TenantQuota:
    """Immutable per-tenant allowance configuration.

    Parameters
    ----------
    rate, burst : float or None
        Token-bucket request rate (requests/second) and burst size;
        ``rate=None`` means unlimited request rate.
    max_concurrent : int or None
        Cap on the tenant's requests in the system at once (queued
        plus in flight); ``None`` = unlimited.
    queue_capacity : int or None
        The tenant's admission-lane depth; ``None`` inherits the
        service-wide default.
    weight : float
        Deficit-round-robin scheduling weight — long-run service under
        saturation is proportional to it (see
        :class:`~repro.tenancy.scheduler.FairScheduler`).
    facts, rounds, seconds : (capacity, refill_per_second) or None
        Cumulative :class:`ResourcePool` specs, charged post-paid from
        every attempt's :meth:`~repro.engine.guard.ResourceBudget.usage`.
    """

    __slots__ = ("rate", "burst", "max_concurrent", "queue_capacity",
                 "weight", "facts", "rounds", "seconds")

    def __init__(self, rate=None, burst=None, max_concurrent=None,
                 queue_capacity=None, weight=1.0, facts=None,
                 rounds=None, seconds=None):
        if weight <= 0:
            raise ValueError("weight must be positive")
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.rate = rate
        self.burst = burst
        self.max_concurrent = max_concurrent
        self.queue_capacity = queue_capacity
        self.weight = float(weight)
        self.facts = facts
        self.rounds = rounds
        self.seconds = seconds

    def bucket(self, clock=None):
        """A fresh :class:`TokenBucket`, or None without a rate."""
        if self.rate is None:
            return None
        return TokenBucket(self.rate, burst=self.burst, clock=clock)

    def pools(self, clock=None):
        """``{resource: ResourcePool}`` for every configured pool."""
        pools = {}
        for name in ("facts", "rounds", "seconds"):
            spec = getattr(self, name)
            if spec is None:
                continue
            capacity, refill = spec
            pools[name] = ResourcePool(name, capacity, refill,
                                       clock=clock)
        return pools

    def __repr__(self):
        parts = ["weight=%g" % self.weight]
        if self.rate is not None:
            parts.append("rate=%g/s" % self.rate)
        if self.max_concurrent is not None:
            parts.append("max_concurrent=%d" % self.max_concurrent)
        for name in ("facts", "rounds", "seconds"):
            if getattr(self, name) is not None:
                parts.append("%s=%r" % (name, getattr(self, name)))
        return "TenantQuota(%s)" % ", ".join(parts)
