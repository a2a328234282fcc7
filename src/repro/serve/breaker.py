"""Per-strategy circuit breakers.

A strategy that keeps failing — a counting method on data that turned
cyclic, an engine bug surfacing under one rewriting — wastes its whole
attempt budget on every request before the fallback chain saves the
answer.  A :class:`CircuitBreaker` remembers: after ``threshold``
*consecutive* failures it opens and the strategy is skipped outright
(:meth:`allow` returns False) until ``cooldown`` seconds pass; the
first caller after the cooldown is admitted as a half-open *probe*
whose outcome decides whether the breaker closes again or re-opens.

What counts as a failure is the caller's choice, with one house rule:
budget aborts (:class:`~repro.errors.BudgetExceededError`) describe the
*caller's* limits, not the strategy's health, so the one failure table
(:data:`repro.exec.resilient.OUTCOMES`) never records them here — a
service melting down under tight deadlines must not also poison its
strategy table.

All transitions run under a lock (the serving layer shares one breaker
per strategy across its worker pool) and the clock is injectable, so
tests step through open → half-open → closed without sleeping.
"""

import threading
import time

#: Breaker states.  ``closed`` = healthy, requests flow; ``open`` =
#: tripped, requests are rejected until the cooldown passes;
#: ``half_open`` = one probe is in flight, everyone else still waits.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trip after K consecutive failures; half-open after a cooldown."""

    __slots__ = ("threshold", "cooldown", "_clock", "_lock", "_state",
                 "_failures", "_opened_at", "_probed_at", "trips",
                 "rejections", "successes", "failures")

    def __init__(self, threshold=5, cooldown=30.0, clock=None,
                 lock=None):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock if clock is not None else time.monotonic
        # Re-entrant so a caller holding a shared metrics lock (the
        # service snapshots boards and queue stats atomically) can read
        # state without deadlocking against itself.
        self._lock = lock if lock is not None else threading.RLock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = None
        self._probed_at = None
        #: Transitions into the open state (including half-open probes
        #: that failed and re-opened it).
        self.trips = 0
        #: Calls turned away by :meth:`allow`.
        self.rejections = 0
        self.successes = 0
        self.failures = 0

    @property
    def state(self):
        """Current state, as last recorded.  Reading it never moves
        the breaker: an open breaker whose cooldown has passed still
        reports ``open`` until :meth:`allow` admits the half-open
        probe."""
        with self._lock:
            return self._state

    def allow(self):
        """May the strategy run now?  The first permitted call after an
        open breaker's cooldown becomes the half-open probe; until its
        outcome is recorded, every other caller is rejected.

        A probe whose attempt ends with no recordable outcome (budget
        aborts and cancellations are deliberately never recorded here)
        must not wedge the breaker half-open forever: once a full
        cooldown passes with the probe unresolved, the next caller is
        admitted as a fresh probe."""
        with self._lock:
            if self._state == CLOSED:
                return True
            now = self._clock()
            if self._state == OPEN:
                if now - self._opened_at >= self.cooldown:
                    self._state = HALF_OPEN
                    self._probed_at = now
                    return True
            elif self._state == HALF_OPEN:
                if now - self._probed_at >= self.cooldown:
                    self._probed_at = now
                    return True
            self.rejections += 1
            return False

    def record_success(self):
        """The strategy finished cleanly: close and reset the streak."""
        with self._lock:
            self.successes += 1
            self._failures = 0
            self._state = CLOSED

    def record_failure(self):
        """One more consecutive failure; trips at the threshold, and a
        failed half-open probe re-opens immediately."""
        with self._lock:
            self.failures += 1
            self._failures += 1
            if (
                self._state == HALF_OPEN
                or self._failures >= self.threshold
            ):
                if self._state != OPEN:
                    self.trips += 1
                self._state = OPEN
                self._opened_at = self._clock()
                self._failures = 0

    def __repr__(self):
        return "CircuitBreaker(%s, %d trip(s), %d rejection(s))" % (
            self.state, self.trips, self.rejections
        )


class BreakerBoard:
    """Per-strategy breakers created on demand with shared settings.

    Duck-types ``dict.get`` (what :func:`repro.exec.resilient.
    run_resilient` calls), except a missing strategy gets a fresh
    breaker instead of ``None`` — every strategy the board ever sees is
    tracked.
    """

    __slots__ = ("threshold", "cooldown", "_clock", "_lock",
                 "_breaker_lock", "_breakers")

    def __init__(self, threshold=5, cooldown=30.0, clock=None,
                 lock=None):
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = lock if lock is not None else threading.RLock()
        #: Lock shared by every breaker this board creates; when the
        #: service passes its metrics lock here, a ``states()`` sweep
        #: is atomic with the queue/stats counters it is reported with.
        self._breaker_lock = lock
        self._breakers = {}

    def get(self, method):
        breaker = self._breakers.get(method)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.get(method)
                if breaker is None:
                    breaker = CircuitBreaker(
                        threshold=self.threshold,
                        cooldown=self.cooldown,
                        clock=self._clock,
                        lock=self._breaker_lock,
                    )
                    self._breakers[method] = breaker
        return breaker

    def states(self):
        """``{strategy: state}`` for every breaker seen so far."""
        with self._lock:
            return {
                method: breaker.state
                for method, breaker in sorted(self._breakers.items())
            }

    @property
    def trips(self):
        with self._lock:
            return sum(b.trips for b in self._breakers.values())

    @property
    def rejections(self):
        with self._lock:
            return sum(b.rejections for b in self._breakers.values())

    def __iter__(self):
        with self._lock:
            return iter(sorted(self._breakers.items()))

    def __repr__(self):
        return "BreakerBoard(%s)" % ", ".join(
            "%s=%s" % (m, s) for m, s in self.states().items()
        ) if self._breakers else "BreakerBoard(empty)"
