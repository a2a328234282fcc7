"""Self-healing sharded fixpoint: supervision, repair, speculation.

Covers the :class:`~repro.parallel.supervisor.RecoveryPolicy` knobs and
their validation, the :class:`~repro.parallel.supervisor.Supervisor`'s
failure classification under an injected clock, the barrier checkpoint
spill round-trip, and — the acceptance drills — killing, wedging and
slowing pool workers mid-fixpoint and asserting the run completes
*without* serial fallback with answers and merged counters byte-equal
to an undisturbed parallel run.  The crash-at-every-barrier matrix
walks each barrier index of representative linear workloads; the
shutdown-escalation regression pins the kill-after-terminate teardown
path with a SIGTERM-immune worker.
"""

import os
import pickle
import signal
import time

import multiprocessing

import pytest

from repro.data.workloads import WORKLOADS
from repro.engine.faults import FaultInjector, strip_worker_plans
from repro.errors import RecoveryExhaustedError, WorkerHungError
from repro.exec.strategies import run_strategy
from repro.parallel import (
    RECOVERY_MODES,
    RecoveryPolicy,
    RoundCheckpoint,
    Supervisor,
    WorkerCrashError,
    plan_partitions,
)
from repro.parallel.executor import _WorkerHandle, _reap_worker


def _oracle(query, db, workers):
    """The undisturbed parallel run every healed run must match."""
    return run_strategy("parallel", query, db, workers=workers)


def _assert_equivalent(healed, oracle):
    """The recovery invariant: identical answers *and* counters."""
    assert healed.answers == oracle.answers
    assert healed.stats.as_dict() == oracle.stats.as_dict()


# -- the recovery policy -----------------------------------------------


class TestRecoveryPolicy:
    def test_defaults(self):
        policy = RecoveryPolicy()
        assert policy.mode == "reassign"
        assert policy.max_repairs == 2
        assert policy.speculate
        assert not policy.spill

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(mode="restart")
        for mode in RECOVERY_MODES:
            assert RecoveryPolicy(mode=mode).mode == mode

    @pytest.mark.parametrize("kwargs", [
        {"max_repairs": -1},
        {"heartbeat_interval": 0.0},
        {"liveness_timeout": 0.05, "heartbeat_interval": 0.1},
        {"barrier_timeout": 0.0},
        {"straggler_multiple": 0.5},
        {"straggler_min_seconds": -1.0},
    ])
    def test_threshold_validation(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_coerce(self):
        assert RecoveryPolicy.coerce(None).mode == "reassign"
        assert RecoveryPolicy.coerce("respawn").mode == "respawn"
        policy = RecoveryPolicy(mode="serial")
        assert RecoveryPolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            RecoveryPolicy.coerce(3)
        with pytest.raises(ValueError):
            RecoveryPolicy.coerce("sideways")

    def test_as_dict_carries_the_knobs(self):
        summary = RecoveryPolicy(mode="respawn", max_repairs=5,
                                 spill=True).as_dict()
        assert summary["mode"] == "respawn"
        assert summary["max_repairs"] == 5
        assert summary["spill"] is True


# -- the supervisor under an injected clock ----------------------------


class TestSupervisor:
    def _supervisor(self, clock, **kwargs):
        policy = RecoveryPolicy(
            heartbeat_interval=kwargs.pop("heartbeat_interval", 0.1),
            liveness_timeout=kwargs.pop("liveness_timeout", 1.0),
            barrier_timeout=kwargs.pop("barrier_timeout", 5.0),
            **kwargs,
        )
        return Supervisor(policy, clock=clock)

    def test_diagnose_crash_beats_everything(self):
        sup = self._supervisor(lambda: 0.0)
        assert sup.diagnose(0, waited=0.0, alive=False) == "crash"

    def test_diagnose_heartbeat_silence_is_a_hang(self):
        now = [0.0]
        sup = self._supervisor(lambda: now[0])
        sup.beat(0)
        now[0] = 0.5
        assert sup.diagnose(0, waited=0.5, alive=True) is None
        now[0] = 1.6
        assert sup.diagnose(0, waited=1.6, alive=True) == "hang"

    def test_diagnose_barrier_overstay_is_a_hang(self):
        now = [0.0]
        sup = self._supervisor(lambda: now[0])
        sup.beat(0)  # heartbeats flowing...
        assert sup.diagnose(0, waited=5.5, alive=True) == "hang"

    def test_forget_clears_liveness_state(self):
        now = [0.0]
        sup = self._supervisor(lambda: now[0])
        sup.beat(0)
        sup.forget(0)
        now[0] = 100.0
        # No beat on record: silence cannot be held against the slot.
        assert sup.diagnose(0, waited=0.0, alive=True) is None

    def test_straggler_deadline_needs_history(self):
        sup = self._supervisor(lambda: 0.0, straggler_multiple=4.0,
                               straggler_min_seconds=0.2)
        assert sup.straggler_deadline() is None
        for seconds in (0.01, 0.05, 0.03):
            sup.observe_round_time(seconds)
        assert sup.median_round_time() == 0.03
        assert sup.straggler_deadline() == pytest.approx(0.2)
        sup.observe_round_time(1.0)
        # Median is robust: one slow round barely moves the deadline.
        assert sup.median_round_time() == pytest.approx(0.04)

    def test_speculation_off_means_no_deadline(self):
        sup = self._supervisor(lambda: 0.0, speculate=False)
        sup.observe_round_time(0.01)
        assert sup.straggler_deadline() is None

    def test_repair_budget_and_event_log(self):
        sup = self._supervisor(lambda: 0.0, max_repairs=1)
        assert sup.allow_repair()
        sup.record("crash", 1, 3, seconds=0.2, detail="exit code -9")
        sup.record("reassign", 1, 3, detail="1 survivors")
        sup.repairs += 1
        assert not sup.allow_repair()
        assert sup.crashes == 1 and sup.reassignments == 1
        summary = sup.as_dict()
        assert summary["repairs"] == 1
        assert [e["kind"] for e in summary["events"]] == \
            ["crash", "reassign"]
        assert summary["events"][0]["detail"] == "exit code -9"


class TestRoundCheckpoint:
    def test_bytes_round_trip(self):
        checkpoint = RoundCheckpoint(
            4,
            {0: {("sg", 2): b"alpha"}, 2: {("sg", 2): b"beta"}},
            {("sg", 2): 17},
        )
        clone = RoundCheckpoint.from_bytes(checkpoint.to_bytes())
        assert clone.round_index == 4
        assert clone.portions == checkpoint.portions
        assert clone.epochs == checkpoint.epochs
        assert clone.portion(2) == {("sg", 2): b"beta"}
        assert clone.portion(5) == {}


# -- acceptance: heal in place, never change the answer ----------------


class TestCrashHealing:
    def test_kill_one_of_four_heals_without_fallback(self):
        """The headline drill: SIGKILL 1 of 4 workers mid-fixpoint;
        the run completes in parallel (no serial fallback) with answers
        and merged EvalStats byte-identical to an undisturbed run."""
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        oracle = _oracle(w.query, db, workers=4)
        injector = FaultInjector(seed=0).crash_at_barrier(
            worker=1, barrier=2
        )
        with injector:
            healed = run_strategy("parallel", w.query, db, workers=4)
        _assert_equivalent(healed, oracle)
        recovery = healed.extras["recovery"]
        assert recovery["crashes"] == 1
        assert recovery["reassignments"] == 1
        assert recovery["repairs"] == 1
        assert recovery["rounds_replayed"] == 1
        kinds = [event["kind"] for event in recovery["events"]]
        assert kinds == ["crash", "reassign"]

    def test_respawn_heals_in_the_same_slot(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        oracle = _oracle(w.query, db, workers=4)
        injector = FaultInjector(seed=0).crash_at_barrier(
            worker=2, barrier=3
        )
        with injector:
            healed = run_strategy(
                "parallel", w.query, db, workers=4,
                recovery=RecoveryPolicy(mode="respawn"),
            )
        _assert_equivalent(healed, oracle)
        recovery = healed.extras["recovery"]
        assert recovery["crashes"] == 1
        assert recovery["respawns"] == 1
        assert recovery["reassignments"] == 0

    def test_hang_heals_via_barrier_deadline(self):
        """A wedged-but-alive worker (heartbeats flowing, no reply) is
        detected by the barrier deadline and repaired — without
        waiting out its sleep."""
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        oracle = _oracle(w.query, db, workers=4)
        injector = FaultInjector(seed=0).hang_at_barrier(
            worker=1, barrier=2, seconds=30.0
        )
        started = time.perf_counter()
        with injector:
            healed = run_strategy(
                "parallel", w.query, db, workers=4,
                recovery=RecoveryPolicy(barrier_timeout=0.3,
                                        speculate=False),
            )
        elapsed = time.perf_counter() - started
        _assert_equivalent(healed, oracle)
        recovery = healed.extras["recovery"]
        assert recovery["hangs"] == 1
        assert recovery["reassignments"] == 1
        assert elapsed < 15.0  # nowhere near the 30s sleep

    def test_spill_checkpoints_are_equivalent(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        oracle = _oracle(w.query, db, workers=2)
        injector = FaultInjector(seed=0).crash_at_barrier(
            worker=0, barrier=2
        )
        with injector:
            healed = run_strategy(
                "parallel", w.query, db, workers=2,
                recovery=RecoveryPolicy(spill=True),
            )
        _assert_equivalent(healed, oracle)
        recovery = healed.extras["recovery"]
        assert recovery["repairs"] == 1
        assert recovery["checkpoints"] > 0
        assert recovery["checkpoint_bytes"] > 0


class TestDegradation:
    def test_serial_mode_restores_fail_fast(self, fault_injector):
        """mode="serial" is PR 9 behaviour: the typed error escapes the
        strategy, carrying the rounds it completed and the supervisor's
        story, and nothing is repaired."""
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        fault_injector.kill_worker(worker=1, after=2)
        with fault_injector:
            with pytest.raises(WorkerCrashError) as info:
                run_strategy("parallel", w.query, db, workers=2,
                             recovery="serial")
        exc = info.value
        assert type(exc) is WorkerCrashError
        assert exc.rounds > 0
        assert exc.recovery["crashes"] == 1
        assert exc.recovery["repairs"] == 0
        assert exc.recovery["policy"]["mode"] == "serial"

    def test_exhausted_allowance_raises_with_the_repair_log(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        injector = FaultInjector(seed=0).crash_at_barrier(
            worker=0, barrier=1
        )
        with injector:
            with pytest.raises(RecoveryExhaustedError) as info:
                run_strategy(
                    "parallel", w.query, db, workers=2,
                    recovery=RecoveryPolicy(max_repairs=0),
                )
        exc = info.value
        assert exc.repairs and exc.repairs[0]["kind"] == "crash"
        assert exc.rounds > 0
        assert exc.recovery is not None

    def test_errors_pickle_with_their_payload(self):
        hung = WorkerHungError("worker 3 hung", stats=None)
        clone = pickle.loads(pickle.dumps(hung))
        assert isinstance(clone, WorkerHungError)
        assert isinstance(clone, WorkerCrashError)
        exhausted = RecoveryExhaustedError(
            "allowance spent", repairs=[{"kind": "crash", "worker": 1}],
            rounds=4,
        )
        clone = pickle.loads(pickle.dumps(exhausted))
        assert clone.repairs == [{"kind": "crash", "worker": 1}]
        assert clone.rounds == 4


# -- speculation -------------------------------------------------------


class TestSpeculation:
    POLICY = dict(straggler_multiple=1.0, straggler_min_seconds=0.15)

    def test_local_twin_beats_a_straggler_on_a_sharded_plan(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=5)
        assert plan_partitions(w.query, db, workers=2).sharded
        oracle = _oracle(w.query, db, workers=2)
        injector = FaultInjector(seed=0).slow_worker(
            worker=1, seconds=0.6
        )
        with injector:
            healed = run_strategy(
                "parallel", w.query, db, workers=2,
                recovery=RecoveryPolicy(**self.POLICY),
            )
        _assert_equivalent(healed, oracle)
        recovery = healed.extras["recovery"]
        assert recovery["speculative_wins"] >= 1
        assert recovery["repairs"] == 0  # mitigation, not repair
        details = {e["detail"] for e in recovery["events"]
                   if e["kind"] == "speculative_win"}
        assert details == {"local"}

    def test_idle_peer_runs_the_twin_on_a_broadcast_plan(self):
        w = WORKLOADS["sg_tree"]
        db, _src = w.make_db(fanout=3, depth=3)
        assert not plan_partitions(w.query, db, workers=2).sharded
        oracle = _oracle(w.query, db, workers=2)
        injector = FaultInjector(seed=0).slow_worker(
            worker=1, seconds=0.6
        )
        with injector:
            healed = run_strategy(
                "parallel", w.query, db, workers=2,
                recovery=RecoveryPolicy(**self.POLICY),
            )
        _assert_equivalent(healed, oracle)
        recovery = healed.extras["recovery"]
        assert recovery["speculative_wins"] >= 1
        details = {e["detail"] for e in recovery["events"]
                   if e["kind"] == "speculative_win"}
        assert "peer" in details


# -- the crash-at-every-barrier matrix ---------------------------------


class _BarrierMatrix:
    """Walk every barrier index of one workload until the fault stops
    firing (the index is past the last worker round); each disturbed
    run must match the undisturbed oracle exactly."""

    #: Safety rail: no matrix workload runs this many rounds.
    LIMIT = 40

    def drill(self, wname, params, kind):
        w = WORKLOADS[wname]
        db, _src = w.make_db(**params)
        oracle = _oracle(w.query, db, workers=2)
        barrier = 1
        while barrier < self.LIMIT:
            injector = FaultInjector(seed=0)
            if kind == "crash":
                injector.crash_at_barrier(worker=1, barrier=barrier)
                policy = RecoveryPolicy(speculate=False)
            else:
                injector.hang_at_barrier(worker=1, barrier=barrier,
                                         seconds=30.0)
                policy = RecoveryPolicy(barrier_timeout=0.25,
                                        speculate=False)
            with injector:
                healed = run_strategy(
                    "parallel", w.query, db, workers=2,
                    recovery=policy,
                )
            _assert_equivalent(healed, oracle)
            recovery = healed.extras["recovery"]
            fired = recovery["crashes"] + recovery["hangs"]
            if not fired:
                break  # past the last barrier: undisturbed run
            assert fired == 1
            assert recovery["repairs"] == 1
            barrier += 1
        assert 1 < barrier < self.LIMIT
        return barrier - 1


#: The matrix cells: a plan that shards and one that only broadcasts.
BARRIER_CELLS = pytest.mark.parametrize("wname,params", [
    pytest.param("sg_cylinder", {"width": 16, "height": 5},
                 id="sg_cylinder-params0-columnar"),
    pytest.param("mixed_linear", {"up_depth": 5, "down_depth": 5},
                 id="mixed_linear-params1-columnar"),
])


class TestBarrierMatrix(_BarrierMatrix):
    @BARRIER_CELLS
    def test_sigkill_at_every_barrier(self, wname, params):
        barriers = self.drill(wname, params, "crash")
        assert barriers >= 2

    @BARRIER_CELLS
    def test_hang_at_every_barrier(self, wname, params):
        barriers = self.drill(wname, params, "hang")
        assert barriers >= 2


# -- satellite regressions ---------------------------------------------


def _sigterm_immune_worker():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(60)


class TestWorkerTeardown:
    def test_reap_escalates_to_sigkill(self):
        """A worker that masks SIGTERM still dies: terminate fails,
        the escalation ends in kill(), and both pipe ends plus the
        Process object are always closed."""
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        parent, child = context.Pipe(duplex=True)
        hb_recv, hb_send = context.Pipe(duplex=False)
        process = context.Process(target=_sigterm_immune_worker,
                                  daemon=True)
        process.start()
        child.close()
        hb_send.close()
        pid = process.pid
        handle = _WorkerHandle(0, process, parent, hb_recv)
        time.sleep(0.1)  # let the child install its SIGTERM handler
        _reap_worker(handle, patience=0.3, graceful=False)
        # SIGKILL got it despite the ignored SIGTERM...
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        # ...and every coordinator-side resource is released.
        assert parent.closed
        assert hb_recv.closed
        with pytest.raises(ValueError):
            process.is_alive()

    def test_strip_worker_plans_disarms_only_worker_faults(self):
        injector = FaultInjector(seed=7)
        injector.crash_at_barrier(worker=1, barrier=2)
        injector.slow_worker(worker=0, seconds=0.5)
        injector.delay_probes(every=100, seconds=0.001)
        spec = injector.spec()
        stripped = strip_worker_plans(spec)
        assert stripped["seed"] == 7
        assert stripped["plans"]["_kill_worker_target"] is None
        assert stripped["plans"]["_slow_worker_target"] is None
        # Non-worker plans ship unchanged.
        assert stripped["plans"]["_delay_every"] == \
            spec["plans"]["_delay_every"]
        assert strip_worker_plans(None) is None
