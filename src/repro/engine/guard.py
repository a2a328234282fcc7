"""Resource governance for evaluation: budgets and cancellation.

The counting-family methods have hard applicability preconditions and
known divergence modes on cyclic data; a misclassified query must never
hang the engine or die with partial state.  A :class:`ResourceBudget`
bounds one evaluation along four axes:

* ``timeout`` — a wall-clock deadline in seconds;
* ``max_facts`` — a cap on distinct derived facts;
* ``max_rounds`` — a cap on budget checkpoints (fixpoint rounds for the
  semi-naive engine, frontier pops for the dedicated evaluators);
* ``token`` — a :class:`CancellationToken` another thread (or a test)
  can trip to stop evaluation cooperatively.

Engines call :meth:`ResourceBudget.check` at *round boundaries* — before
each semi-naive round, per node expansion in the counting DFS, per
state pop in the answer phase — so a budget fires within one round of
being exceeded, never mid-tuple.  The raised errors are the typed
:class:`~repro.errors.BudgetExceededError` subclasses and carry the
partial :class:`~repro.engine.instrumentation.EvalStats`, so callers
see exactly how far evaluation got before the abort.

Budgets are *single-use*: the deadline clock starts at the first check
(or an explicit :meth:`start`).  The resilient runner
(:mod:`repro.exec.resilient`) therefore builds a fresh budget per
strategy attempt rather than sharing one across the chain.
"""

import threading
import time

from ..errors import (
    DeadlineExceeded,
    EvaluationCancelled,
    FactBudgetExceeded,
    RoundBudgetExceeded,
)


class CancellationToken:
    """Cooperative cancellation flag shared between caller and engine.

    Backed by a :class:`threading.Event`, so a flip on one thread is
    immediately visible to an engine checking the token on another —
    the serving layer (:mod:`repro.serve`) cancels straggling workers
    this way during drain.  The flag is monotonic: once cancelled, a
    token never goes live again.
    """

    __slots__ = ("_event",)

    def __init__(self):
        self._event = threading.Event()

    def cancel(self):
        """Request cancellation; the next budget check raises."""
        self._event.set()

    @property
    def cancelled(self):
        return self._event.is_set()

    def wait(self, timeout=None):
        """Block until cancelled or ``timeout`` elapses; returns the flag."""
        return self._event.wait(timeout)

    def __repr__(self):
        return "CancellationToken(%s)" % (
            "cancelled" if self.cancelled else "live"
        )


class ResourceBudget:
    """Limits for one evaluation run; raises typed errors when hit.

    Parameters
    ----------
    timeout : float or None
        Wall-clock seconds allowed from :meth:`start` (auto-started by
        the first :meth:`check`).
    max_facts : int or None
        Maximum ``stats.facts_derived`` tolerated.
    max_rounds : int or None
        Maximum number of :meth:`check` calls (i.e. round boundaries)
        tolerated.
    token : :class:`CancellationToken` or None
        Cooperative cancellation flag.
    clock : callable returning seconds
        Injectable for deterministic tests; defaults to
        :func:`time.monotonic`.
    """

    __slots__ = ("timeout", "max_facts", "max_rounds", "token",
                 "_clock", "_started", "_deadline", "rounds")

    def __init__(self, timeout=None, max_facts=None, max_rounds=None,
                 token=None, clock=None):
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be non-negative")
        if max_facts is not None and max_facts < 0:
            raise ValueError("max_facts must be non-negative")
        if max_rounds is not None and max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.timeout = timeout
        self.max_facts = max_facts
        self.max_rounds = max_rounds
        self.token = token
        self._clock = clock if clock is not None else time.monotonic
        self._started = None
        self._deadline = None
        #: Budget checkpoints passed so far.
        self.rounds = 0

    def is_unlimited(self):
        """True when no limit is configured (checks can be skipped)."""
        return (
            self.timeout is None
            and self.max_facts is None
            and self.max_rounds is None
            and self.token is None
        )

    def start(self):
        """Start the wall clock now; idempotent.  Returns ``self``."""
        if self._started is None:
            self._started = self._clock()
            if self.timeout is not None:
                self._deadline = self._started + self.timeout
        return self

    def elapsed(self):
        """Wall-clock seconds since :meth:`start` (0.0 if not started)."""
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def remaining(self):
        """Seconds left before the deadline, or ``None`` without one.

        Clamped at 0.0: an overrun budget has no time left, not
        negative time — callers feed this into ``child()`` timeouts
        and sleep computations, where a negative value would either
        raise or, worse, be interpreted as "no limit".
        """
        if self.timeout is None:
            return None
        self.start()
        return max(0.0, self._deadline - self._clock())

    def expired(self):
        """Non-raising deadline probe.

        Mirrors :meth:`check` exactly: probing starts the clock (so a
        budget with a timeout reports expiry relative to first use
        instead of always ``False`` before an explicit ``start``), and
        the comparison is the same strict one ``check`` uses — at the
        exact deadline instant the budget is not yet expired on either
        path.
        """
        if self.timeout is None:
            return False
        self.start()
        return self._clock() > self._deadline

    def usage(self, stats=None):
        """What this budget's run actually consumed, for quota charging.

        Returns ``{"seconds", "rounds", "facts"}`` — wall-clock seconds
        since :meth:`start`, budget checkpoints passed, and (when the
        engine's ``stats`` are supplied) distinct facts derived.  The
        tenancy layer (:mod:`repro.tenancy`) charges these against a
        tenant's cumulative resource pools after each attempt, whether
        it completed or aborted.
        """
        return {
            "seconds": self.elapsed(),
            "rounds": self.rounds,
            "facts": 0 if stats is None else stats.facts_derived,
        }

    def child(self, timeout=None, max_facts=None, max_rounds=None,
              token=None):
        """Derive a fresh budget bounded by this budget's remaining time.

        Budgets are single-use, but a request that retries (or fans out
        into per-attempt budgets) must not be granted a fresh deadline
        each time: the child's ``timeout`` is clamped to the parent's
        :meth:`remaining` wall-clock allowance, so the *request*
        deadline propagates through every derived attempt.  Calling
        :meth:`child` starts the parent clock (deriving "remaining"
        implies the request is in flight).

        ``max_facts`` / ``max_rounds`` / ``token`` default to the
        parent's values; pass explicit ones to override.  The parent's
        injectable clock is always inherited, so tests driving a fake
        clock see the same time in every generation.
        """
        remaining = self.remaining()
        if remaining is not None:
            remaining = max(0.0, remaining)
            timeout = remaining if timeout is None \
                else min(timeout, remaining)
        return ResourceBudget(
            timeout=timeout,
            max_facts=self.max_facts if max_facts is None else max_facts,
            max_rounds=self.max_rounds if max_rounds is None
            else max_rounds,
            token=self.token if token is None else token,
            clock=self._clock,
        )

    def check(self, stats=None):
        """Raise a typed budget error if any limit is exhausted.

        Called at round boundaries; ``stats`` (the engine's partial
        :class:`EvalStats`) is attached to the error so the caller can
        inspect how much work completed before the abort.
        """
        self.start()
        self.rounds += 1
        if self.token is not None and self.token.cancelled:
            raise EvaluationCancelled(
                "evaluation cancelled by caller after %.4fs"
                % self.elapsed(),
                stats=stats, elapsed=self.elapsed(),
            )
        if self._deadline is not None and self._clock() > self._deadline:
            raise DeadlineExceeded(
                "wall-clock deadline of %.4fs exceeded (%.4fs elapsed)"
                % (self.timeout, self.elapsed()),
                stats=stats, elapsed=self.elapsed(),
            )
        if (
            self.max_facts is not None
            and stats is not None
            and stats.facts_derived > self.max_facts
        ):
            raise FactBudgetExceeded(
                "derived-fact budget of %d exceeded (%d derived)"
                % (self.max_facts, stats.facts_derived),
                stats=stats, elapsed=self.elapsed(),
            )
        if self.max_rounds is not None and self.rounds > self.max_rounds:
            raise RoundBudgetExceeded(
                "round budget of %d exceeded" % self.max_rounds,
                stats=stats, elapsed=self.elapsed(),
            )

    def __repr__(self):
        limits = []
        if self.timeout is not None:
            limits.append("timeout=%gs" % self.timeout)
        if self.max_facts is not None:
            limits.append("max_facts=%d" % self.max_facts)
        if self.max_rounds is not None:
            limits.append("max_rounds=%d" % self.max_rounds)
        if self.token is not None:
            limits.append("token=%r" % self.token)
        return "ResourceBudget(%s)" % (
            ", ".join(limits) if limits else "unlimited"
        )
