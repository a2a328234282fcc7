"""The resilient fallback runner: degradation, isolation, reporting."""

import pytest

from repro import FallbackPolicy, run_resilient, run_strategy
from repro.errors import (
    BudgetExceededError,
    CountingDivergenceError,
    FactBudgetExceeded,
    NotApplicableError,
    ReproError,
    ResilienceExhaustedError,
)
from repro.exec.resilient import DEFAULT_CHAIN, ExecutionReport


class TestHappyPath:
    def test_first_stage_wins_on_acyclic_data(self, sg_query, sg_db):
        report = run_resilient(sg_query, sg_db)
        assert report.succeeded
        assert report.method == DEFAULT_CHAIN[0]
        assert report.fallback_depth == 0
        assert report.budget_aborts == 0
        assert len(report.attempts) == 1
        assert not report.attempts[0].failed

    def test_report_matches_direct_run(self, sg_query, sg_db):
        direct = run_strategy("pointer_counting", sg_query, sg_db)
        report = run_resilient(sg_query, sg_db)
        assert report.result.answers == direct.answers


class TestDegradation:
    def test_cyclic_data_degrades_observably(self, sg_query, example5_db):
        report = run_resilient(sg_query, example5_db)
        assert report.succeeded
        # pointer and extended counting both fail typed on cyclic data.
        assert report.fallback_depth >= 2
        errors = [a.error for a in report.attempts if a.failed]
        assert any(isinstance(e, NotApplicableError) for e in errors)
        assert any(isinstance(e, CountingDivergenceError) for e in errors)
        # Answers still correct: compare against the naive baseline.
        naive = run_strategy("naive", sg_query, example5_db)
        assert report.result.answers == naive.answers

    def test_every_counting_stage_fails_naive_still_answers(
            self, sg_query, example5_db):
        # Acceptance scenario: a chain whose every counting stage
        # diverges or is inapplicable on cyclic data must still return
        # correct answers through the terminal naive stage, with each
        # failure recorded and typed.
        policy = FallbackPolicy(
            chain=("pointer_counting", "extended_counting",
                   "classical_counting", "naive"),
        )
        report = run_resilient(sg_query, example5_db, policy)
        assert report.method == "naive"
        assert report.fallback_depth == 3
        classes = [a.error_class for a in report.attempts]
        assert classes == [
            "NotApplicableError",
            "CountingDivergenceError",
            "CountingDivergenceError",
            None,
        ]
        naive = run_strategy("naive", sg_query, example5_db)
        assert report.result.answers == naive.answers

    def test_budget_abort_degrades_to_cheaper_stage(self, sg_query,
                                                    sg_db):
        # Starve the first stages with a zero fact budget... every
        # stage shares the same per-attempt limits, so only stages
        # deriving nothing can win; use max_rounds to let naive's few
        # rounds through while killing multi-phase strategies.
        policy = FallbackPolicy(
            chain=("classical_counting", "naive"),
            max_facts=3,
        )
        with pytest.raises(ResilienceExhaustedError) as info:
            run_resilient(sg_query, sg_db, policy)
        report = info.value.report
        assert report.budget_aborts == 2
        assert all(
            isinstance(a.error, BudgetExceededError)
            for a in report.attempts
        )

    def test_budget_aborts_counted(self, sg_query, sg_db):
        policy = FallbackPolicy(
            chain=("classical_counting", "magic", "naive"),
            max_facts=4,
        )
        try:
            report = run_resilient(sg_query, sg_db, policy)
        except ResilienceExhaustedError as exc:
            report = exc.report
        assert report.budget_aborts >= 1
        for attempt in report.attempts:
            if isinstance(attempt.error, FactBudgetExceeded):
                # Budget errors carry the partial stats.
                assert attempt.stats is not None
                assert attempt.stats.facts_derived > 4


class TestIsolation:
    def test_injected_fault_leaves_database_byte_identical(
            self, sg_query, sg_db, fault_injector):
        # Acceptance: a mid-fixpoint fault plus corrupted snapshot
        # copies; after the resilient run the caller's database must be
        # byte-identical to its pre-attempt snapshot.
        snapshot = sg_db.to_text()
        fault_injector.raise_mid_fixpoint(after=1)
        fault_injector.corrupt_copies(every=3)
        with fault_injector:
            try:
                run_resilient(sg_query, sg_db)
            except ReproError:
                pass  # exhaustion is acceptable; mutation is not
        assert sg_db.to_text() == snapshot

    def test_fault_then_fallback_still_correct(self, sg_query, sg_db,
                                               fault_injector):
        baseline = run_strategy("naive", sg_query, sg_db)
        snapshot = sg_db.to_text()
        # One-shot fault at the first unwind checkpoint: kills the
        # pointer stage mid-answer-phase, then the chain recovers.
        fault_injector.raise_mid_fixpoint(after=1, points=("unwind",))
        with fault_injector:
            report = run_resilient(sg_query, sg_db)
        assert report.fallback_depth >= 1
        assert report.attempts[0].error_class == "InjectedFault"
        assert report.result.answers == baseline.answers
        assert sg_db.to_text() == snapshot

    def test_snapshot_input_is_never_copied(self, sg_query, sg_db,
                                            fault_injector):
        # A DatabaseSnapshot is read-only by type: no attempt can
        # mutate it, so isolation takes no copy of it.
        fault_injector.corrupt_copies(every=1)
        policy = FallbackPolicy(chain=("pointer_counting", "naive"))
        with fault_injector:
            report = run_resilient(sg_query, sg_db.snapshot(), policy)
        assert fault_injector.copies_corrupted == 0
        assert report.succeeded


class TestPolicyAndReport:
    def test_unknown_strategy_rejected_up_front(self):
        with pytest.raises(ValueError):
            FallbackPolicy(chain=("no_such_method",))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackPolicy(chain=())

    def test_type_errors_propagate(self, sg_query, sg_db):
        with pytest.raises(TypeError):
            run_resilient("not a query", sg_db)
        with pytest.raises(TypeError):
            run_resilient(sg_query, "not a database")

    def test_exhaustion_error_carries_report(self, sg_query, sg_db):
        policy = FallbackPolicy(chain=("pointer_counting",),
                                max_facts=0)
        with pytest.raises(ResilienceExhaustedError) as info:
            run_resilient(sg_query, sg_db, policy)
        report = info.value.report
        assert isinstance(report, ExecutionReport)
        assert not report.succeeded
        assert report.method is None
        assert report.fallback_depth == 1

    def test_render_lists_every_attempt(self, sg_query, example5_db):
        report = run_resilient(sg_query, example5_db)
        text = report.render()
        for attempt in report.attempts:
            assert attempt.method in text
        assert "NotApplicableError" in text

    def test_fresh_budget_per_attempt(self, sg_query, example5_db):
        # A shared budget would charge stage N for stage N-1's rounds;
        # each attempt must get its own allowance.
        policy = FallbackPolicy(chain=DEFAULT_CHAIN, timeout=30.0)
        report = run_resilient(sg_query, example5_db, policy)
        assert report.succeeded
        assert report.budget_aborts == 0
