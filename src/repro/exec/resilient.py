"""Graceful strategy degradation: the one attempt loop.

The optimizer picks the *strongest* applicable method, but strategy
selection is fallible: applicability checks are static approximations,
cyclic data makes counting methods diverge, and a production deployment
additionally imposes resource limits no static check can anticipate.
Theorems 1–3 make every strategy an equivalent rewriting, so a request
may switch strategy when one fails.  :func:`run_resilient` walks a
preferred chain (by default ``pointer_counting → extended_counting →
magic_counting → sup_magic → naive``), one *attempt* per stage, and
:data:`OUTCOMES` decides every failed attempt; the serving layer calls
it once per queued request.  The returned :class:`ExecutionReport`
records every attempt, retries and skips included, with its failure
class, elapsed time and partial stats.

Isolation is worked out from the input.  A live :class:`Database` is
copied per attempt, so a strategy that dies mid-fixpoint — or an
injected fault that corrupts its working copy — can never leave the
caller's database mutated; a :class:`DatabaseSnapshot` is read-only by
type and is never copied.  Budgets apply to every stage alike; choose
the chain and limits so the last stage can finish.
"""

import time

from ..datalog.rules import Query
from ..engine.database import Database, DatabaseSnapshot
from ..engine.guard import ResourceBudget
from ..errors import (
    BudgetExceededError,
    CircuitOpenError,
    CountingDivergenceError,
    EvaluationCancelled,
    EvaluationError,
    FactBudgetExceeded,
    NotApplicableError,
    ResilienceExhaustedError,
    RoundBudgetExceeded,
)
from .strategies import STRATEGIES, run_strategy

#: The default preference chain: strongest counting method first,
#: always-applicable naive evaluation last.
DEFAULT_CHAIN = (
    "pointer_counting",
    "extended_counting",
    "magic_counting",
    "sup_magic",
    "naive",
)

NEXT, RETRY, RAISE = "next", "retry", "raise"

#: The one failure policy: the first row matching a failed attempt's
#: error decides, by whose budget it ran under.  A *per-attempt* limit
#: (the policy's ``timeout`` / ``max_facts`` / ``max_rounds``) says only
#: that the stage was too dear: the next one gets a fresh allowance.
#: The *caller's* budget (``budget_factory``) is spent whatever runs
#: next: a timing abort may retry the stage after a backoff, a fact or
#: round cap (deterministic on the same input) ends the run.  Only
#: strategy-health failures feed breakers; unlisted errors propagate.
OUTCOMES = (
    # error classes                              per-attempt caller breaker
    ((EvaluationCancelled,),                     RAISE, RAISE, False),
    ((FactBudgetExceeded, RoundBudgetExceeded),  NEXT, RAISE, False),
    ((BudgetExceededError,),                     NEXT, RETRY, False),
    ((NotApplicableError, CountingDivergenceError,
      EvaluationError),                          NEXT, NEXT, True),
)
_HANDLED = sum((row[0] for row in OUTCOMES), ())


class FallbackPolicy:
    """Which strategies to try, in what order, under what limits.

    ``timeout`` / ``max_facts`` / ``max_rounds`` configure a *fresh*
    :class:`ResourceBudget` per attempt (budgets are single-use; a
    shared budget would charge stage N for stage N-1's spending).
    Every stage runs with its strategy's defaults.
    """

    __slots__ = ("chain", "timeout", "max_facts", "max_rounds")

    def __init__(self, chain=DEFAULT_CHAIN, timeout=None, max_facts=None,
                 max_rounds=None):
        chain = tuple(chain)
        if not chain:
            raise ValueError("fallback chain must name at least one strategy")
        unknown = [name for name in chain if name not in STRATEGIES]
        if unknown:
            raise ValueError(
                "unknown strategies in fallback chain: %s"
                % ", ".join(unknown)
            )
        self.chain = chain
        self.timeout = timeout
        self.max_facts = max_facts
        self.max_rounds = max_rounds

    def make_budget(self):
        """A fresh per-attempt budget, or ``None`` when unlimited."""
        if (
            self.timeout is None
            and self.max_facts is None
            and self.max_rounds is None
        ):
            return None
        return ResourceBudget(
            timeout=self.timeout,
            max_facts=self.max_facts,
            max_rounds=self.max_rounds,
        )

    def __repr__(self):
        return "FallbackPolicy(%s)" % " -> ".join(self.chain)


class AttemptRecord:
    """One stage of a resilient run: a strategy and its outcome."""

    __slots__ = ("method", "error", "elapsed", "stats", "breaker_state",
                 "rounds", "budget")

    def __init__(self, method, error=None, elapsed=0.0, stats=None,
                 breaker_state=None, rounds=0, budget=None):
        self.method = method
        #: The typed error the stage failed with, or ``None`` on success.
        self.error = error
        self.elapsed = elapsed
        #: Partial :class:`EvalStats` — for budget errors, how far the
        #: stage got before the abort; ``None`` when unavailable.
        self.stats = stats
        #: The strategy's circuit-breaker state *after* this attempt was
        #: recorded, or ``None`` when the run had no breakers.  A
        #: :class:`~repro.errors.CircuitOpenError` attempt with
        #: ``elapsed == 0`` is a skip, not a real execution.
        self.breaker_state = breaker_state
        #: Fixpoint rounds the stage ran: ``stats.iterations`` of a
        #: stage that answered; for a failed one, the ``rounds`` its
        #: error reports (0 when it reports none) — work the next stage
        #: does again.
        self.rounds = rounds
        #: The attempt's budget (``None`` for a skip or an unlimited
        #: run); :attr:`usage` reads what it consumed.
        self.budget = budget

    @property
    def usage(self):
        """What the attempt consumed, for post-paid quota charging: its
        budget's ``facts`` / ``rounds`` plus the attempt's ``seconds``."""
        usage = {} if self.budget is None else self.budget.usage(self.stats)
        usage["seconds"] = self.elapsed
        return usage

    @property
    def failed(self):
        return self.error is not None

    @property
    def error_class(self):
        """The failure's class name, or ``None`` on success."""
        return None if self.error is None else type(self.error).__name__

    def __repr__(self):
        outcome = self.error_class if self.failed else "ok"
        return "AttemptRecord(%s: %s, %.4fs)" % (
            self.method, outcome, self.elapsed
        )


class ExecutionReport:
    """Every attempt of a resilient run plus the final result.

    ``attempts`` lists one :class:`AttemptRecord` per attempt, retries
    and skips included, in order; ``result`` is the winning stage's
    :class:`~repro.exec.strategies.ExecutionResult` (``None`` only
    inside a :class:`ResilienceExhaustedError`).
    """

    __slots__ = ("attempts", "result", "policy", "retries")

    def __init__(self, policy):
        self.policy = policy
        self.attempts = []
        self.result = None
        #: Attempts that re-ran the stage before them (caller-budget
        #: timing aborts retried on the backoff schedule).
        self.retries = 0

    @property
    def succeeded(self):
        return self.result is not None

    @property
    def method(self):
        """The strategy that produced the answers, or ``None``."""
        return None if self.result is None else self.result.method

    @property
    def stages(self):
        """Stages reached, skipped ones included (> 1: it fell back)."""
        return len(self.attempts) - self.retries

    @property
    def fallback_depth(self):
        """How many preferred stages failed before the winning one."""
        return self.stages - 1 if self.succeeded else self.stages

    @property
    def budget_aborts(self):
        """Attempts that died on a :class:`BudgetExceededError`."""
        return sum(
            1 for attempt in self.attempts
            if isinstance(attempt.error, BudgetExceededError)
        )

    @property
    def total_elapsed(self):
        return sum(attempt.elapsed for attempt in self.attempts)

    def render(self):
        """Human-readable attempt log, one line per stage."""
        lines = []
        for attempt in self.attempts:
            outcome = (
                "ok" if not attempt.failed
                else "failed: %s (%s)" % (attempt.error_class,
                                          attempt.error)
            )
            if attempt.breaker_state is not None:
                outcome += "  [breaker: %s]" % attempt.breaker_state
            lines.append(
                "%-18s %8.4fs  %s" % (attempt.method, attempt.elapsed,
                                      outcome)
            )
        return "\n".join(lines)

    def summary(self):
        """Structured run log for service/ops telemetry.

        One dict with the winning method and headline counters plus a
        per-attempt list carrying each stage's wall-clock seconds and
        the state its circuit breaker was left in — enough to diagnose
        a shed or retried request from logs alone, without the report
        object in hand.
        """
        return {
            "method": self.method,
            "succeeded": self.succeeded,
            "fallback_depth": self.fallback_depth,
            "budget_aborts": self.budget_aborts,
            "total_elapsed": self.total_elapsed,
            "attempts": [
                {
                    "method": attempt.method,
                    "outcome": attempt.error_class or "ok",
                    "elapsed": attempt.elapsed,
                    "breaker": attempt.breaker_state,
                    "rounds": attempt.rounds,
                }
                for attempt in self.attempts
            ],
        }

    def __repr__(self):
        return "ExecutionReport(%s, %d attempts, %d budget aborts)" % (
            self.method or "exhausted", len(self.attempts),
            self.budget_aborts,
        )


def run_resilient(query, db, policy=None, breakers=None,
                  budget_factory=None, first=None, retry=None,
                  clock=time.perf_counter, sleep=time.sleep):
    """Run ``query`` under a degrading strategy chain.

    Returns an :class:`ExecutionReport` whose ``result`` holds the
    first successful stage's answers.  :data:`OUTCOMES` decides every
    failed attempt; a ``raise`` row re-raises the attempt's own error
    with the report attached as ``.report``.  Raises
    :class:`ResilienceExhaustedError` (carrying the report) when every
    stage fails — by construction impossible with the default chain's
    terminal ``naive`` stage unless a budget is set tight enough to
    starve even that.  ``query`` may be a zero-argument callable, called
    only once a cold stage needs the query.

    ``breakers`` (anything with ``get(method) -> CircuitBreaker or
    None``, e.g. a :class:`~repro.serve.breaker.BreakerBoard` or plain
    dict) wires per-strategy circuit breakers into the chain: a stage
    whose breaker refuses admission is *skipped* — recorded as a
    zero-elapsed :class:`~repro.errors.CircuitOpenError` attempt.

    ``budget_factory`` builds the caller's budget per attempt in place
    of ``policy.make_budget`` (the serving layer threads request
    deadlines through it) and selects the table's caller column;
    ``retry`` is ``(RetryPolicy, request id, stream)``, the backoff
    schedule a retried stage sleeps on.  ``first(budget)`` runs stage 0
    in place of a cold ``run_strategy`` — the serving layer's prepared
    form, caches included.  ``clock`` and ``sleep`` are injectable.
    """
    if policy is None:
        policy = FallbackPolicy()
    if not (isinstance(query, Query) or callable(query)):
        raise TypeError("expected a Query")
    if not isinstance(db, Database):
        raise TypeError("expected a Database")
    report = ExecutionReport(policy)
    backoff = iter(()) if retry is None else \
        retry[0].backoff(retry[1], stream=retry[2])
    stage = 0
    while stage < len(policy.chain):
        method = policy.chain[stage]
        breaker = None if breakers is None else breakers.get(method)
        if breaker is not None and not breaker.allow():
            report.attempts.append(
                AttemptRecord(
                    method,
                    error=CircuitOpenError(
                        "circuit for %r is %s; stage skipped"
                        % (method, breaker.state)
                    ),
                    breaker_state=breaker.state,
                )
            )
            stage += 1
            continue
        budget = budget_factory() if budget_factory is not None \
            else policy.make_budget()
        started = clock()
        try:
            if stage == 0 and first is not None:
                result = first(budget)
            else:
                query = query if isinstance(query, Query) else query()
                result = run_strategy(
                    method, query,
                    db if isinstance(db, DatabaseSnapshot) else db.copy(),
                    budget=budget
                )
        except _HANDLED as exc:
            _classes, per_attempt, caller, feeds_breaker = next(
                row for row in OUTCOMES if isinstance(exc, row[0])
            )
            if feeds_breaker and breaker is not None:
                breaker.record_failure()
            report.attempts.append(
                AttemptRecord(
                    method,
                    error=exc,
                    elapsed=clock() - started,
                    stats=getattr(exc, "stats", None),
                    breaker_state=None if breaker is None
                    else breaker.state,
                    rounds=getattr(exc, "rounds", 0) or 0,
                    budget=budget,
                )
            )
            action = per_attempt if budget_factory is None else caller
            if action == RETRY:
                delay = next(backoff, None)
                # The room left is what a fresh caller budget gets now.
                room = None if delay is None else budget_factory().timeout
                if delay is not None and (room is None or delay < room):
                    sleep(delay)
                    report.retries += 1
                    continue
                action = RAISE
            if action == RAISE:
                exc.report = report
                raise
            stage += 1
            continue
        if breaker is not None:
            breaker.record_success()
        stats = getattr(result, "stats", None)
        report.attempts.append(
            AttemptRecord(
                method, elapsed=clock() - started, stats=stats,
                breaker_state=None if breaker is None
                else breaker.state,
                rounds=getattr(stats, "iterations", 0),
                budget=budget,
            )
        )
        report.result = result
        return report
    raise ResilienceExhaustedError(
        "all %d strategies failed: %s"
        % (
            len(report.attempts),
            "; ".join(
                "%s (%s)" % (a.method, a.error_class)
                for a in report.attempts
            ),
        ),
        report=report,
    )
