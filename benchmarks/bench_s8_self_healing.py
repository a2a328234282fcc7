"""S8 — self-healing sharded fixpoint: crash repair vs serial restart.

Workload: the S1 cylinder evaluated by the ``parallel`` strategy with
4 workers while a :class:`~repro.engine.faults.FaultInjector` SIGKILLs
worker 1 at its second round barrier — the same drill the acceptance
suite runs, at benchmark size.

Three disturbed configurations are measured against the undisturbed
parallel oracle:

* **reassign** — the default :class:`~repro.parallel.supervisor.
  RecoveryPolicy`: the dead worker's shards are rehashed onto the three
  survivors and its checkpointed round portion re-routed; the run
  completes in parallel.
* **respawn** — a replacement is forked into the dead worker's slot
  and rebuilt from the retained spawn payload plus the replicate log.
* **serial restart** — ``RecoveryPolicy(mode="serial")``: the PR 9
  baseline that abandons the parallel attempt on its typed
  ``WorkerCrashError`` and re-runs the query from scratch with the
  default chain's first serial strategy.

Claims asserted:

* every healed run completes *without* serial fallback, with answers
  and merged ``EvalStats`` byte-identical to the undisturbed oracle,
  and its recovery extras record exactly one crash and one repair;
* the serial-restart baseline really does degrade (the parallel
  attempt fails with ``WorkerCrashError`` and the answers come from a
  serial strategy) and re-does the rounds the parallel attempt had
  already completed;
* a straggling worker (repeating injected delay) is beaten by
  speculative re-execution — at least one speculative win, same
  answers and counters, zero repairs spent;
* (full size, >=4 cores only) crash-plus-reassign finishes faster
  than the crash-plus-serial-restart baseline — repairing in place
  beats throwing the parallel attempt away.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for CI smoke runs.
"""

import collections
import gc
import os
import time

import pytest

from conftest import register_table
from _common import assert_claims

from repro.data.workloads import WORKLOADS
from repro.engine.faults import FaultInjector
from repro.exec.resilient import DEFAULT_CHAIN
from repro.exec.strategies import run_strategy
from repro.parallel import RecoveryPolicy, WorkerCrashError

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
WIDTH = 8 if SMOKE else 40
HEIGHT = 16 if SMOKE else 48
TRIALS = 2 if SMOKE else 3
WORKERS = 4
CRASH_WORKER = 1
CRASH_BARRIER = 2

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux fallback
    CORES = os.cpu_count() or 1

#: The repair-beats-restart wall-clock claim needs real parallelism.
MULTICORE = CORES >= 4

WORKLOAD = WORKLOADS["sg_cylinder"]


def make_db():
    db, _source = WORKLOAD.make_db(width=WIDTH, height=HEIGHT)
    return db


def _crash_injector():
    return FaultInjector(seed=0).crash_at_barrier(
        worker=CRASH_WORKER, barrier=CRASH_BARRIER
    )


def _healed_run(query, db, mode):
    with _crash_injector():
        return run_strategy(
            "parallel", query, db, workers=WORKERS,
            recovery=RecoveryPolicy(mode=mode),
        )


#: The serial-restart baseline: the fail-fast parallel attempt's typed
#: crash, the serial result that replaced it, and the wall clock of
#: both together.
Restart = collections.namedtuple("Restart", "crash result elapsed")


def _restart_run(query, db):
    started = time.perf_counter()
    with _crash_injector(), pytest.raises(WorkerCrashError) as crash:
        run_strategy("parallel", query, db, workers=WORKERS,
                     recovery="serial")
    result = run_strategy(DEFAULT_CHAIN[0], query, db)
    return Restart(crash.value, result, time.perf_counter() - started)


@pytest.fixture(scope="module")
def measurements():
    """Best-of-``TRIALS`` disturbed runs against one undisturbed oracle.

    Equality of answers and merged counters is checked on *every*
    disturbed run, not just the fastest; the timing claim compares
    best against best so machine drift hits both sides equally.
    """
    db = make_db()
    query = WORKLOAD.query
    gc.collect()
    oracle = run_strategy("parallel", query, db, workers=WORKERS)
    sides = {}
    for _trial in range(TRIALS):
        for mode in ("reassign", "respawn"):
            gc.collect()
            healed = _healed_run(query, db, mode)
            assert healed.answers == oracle.answers, mode
            assert healed.stats.as_dict() == oracle.stats.as_dict(), mode
            best = sides.get(mode)
            if best is None or healed.elapsed < best.elapsed:
                sides[mode] = healed
        gc.collect()
        restart = _restart_run(query, db)
        assert restart.result.answers == oracle.answers
        best = sides.get("restart")
        if best is None or restart.elapsed < best.elapsed:
            sides["restart"] = restart
    gc.collect()
    with FaultInjector(seed=0).slow_worker(worker=1, seconds=0.2):
        straggled = run_strategy(
            "parallel", query, db, workers=WORKERS,
            recovery=RecoveryPolicy(straggler_multiple=2.0,
                                    straggler_min_seconds=0.05),
        )
    data = {
        "oracle": oracle,
        "sides": sides,
        "straggled": straggled,
        "db_facts": db.total_facts(),
    }
    register_table("s8_self_healing", _render_table(data))
    return data


def _render_table(data):
    oracle = data["oracle"]
    lines = [
        "S8: self-healing on the S1 cylinder (width %d, height %d, "
        "%d facts; %d core(s); kill worker %d at barrier %d of %d)"
        % (WIDTH, HEIGHT, data["db_facts"], CORES,
           CRASH_WORKER, CRASH_BARRIER, WORKERS),
        "undisturbed       : %.1f ms (%d answers, %d facts derived)"
        % (oracle.elapsed * 1e3, len(oracle.answers),
           oracle.stats.facts_derived),
    ]
    for mode in ("reassign", "respawn"):
        healed = data["sides"][mode]
        recovery = healed.extras["recovery"]
        lines.append(
            "crash + %-9s : %.1f ms, %d repair(s), %d round(s) "
            "replayed, recovery %.1f ms"
            % (mode, healed.elapsed * 1e3, recovery["repairs"],
               recovery["rounds_replayed"],
               recovery["recovery_seconds"] * 1e3)
        )
    restart = data["sides"]["restart"]
    lines.append(
        "crash + restart   : %.1f ms total (%s after %s, %d parallel "
        "round(s) thrown away)"
        % (restart.elapsed * 1e3, restart.result.method,
           type(restart.crash).__name__, restart.crash.rounds)
    )
    recovery = data["straggled"].extras["recovery"]
    lines.append(
        "straggler         : %d speculative win(s), %d repair(s)"
        % (recovery["speculative_wins"], recovery["repairs"])
    )
    gates = []
    if SMOKE:
        gates.append("smoke size: timing claim off")
    if not MULTICORE:
        gates.append("<4 cores: timing claim off")
    if gates:
        lines.append("claims gated      : " + "; ".join(gates))
    return "\n".join(lines)


def test_s8_time_healed_reassign(benchmark, measurements):
    benchmark(lambda: _healed_run(WORKLOAD.query, make_db(),
                                  "reassign"))


def test_s8_time_serial_restart(benchmark, measurements):
    benchmark(lambda: _restart_run(WORKLOAD.query, make_db()))


def test_s8_healed_runs_match_the_oracle(measurements, benchmark):
    def check():
        oracle = measurements["oracle"]
        for mode in ("reassign", "respawn"):
            healed = measurements["sides"][mode]
            assert healed.answers == oracle.answers, mode
            assert healed.stats.as_dict() == oracle.stats.as_dict(), mode
            recovery = healed.extras["recovery"]
            assert recovery["crashes"] == 1, mode
            assert recovery["repairs"] == 1, mode
            repaired = (recovery["reassignments"]
                        if mode == "reassign"
                        else recovery["respawns"])
            assert repaired == 1, mode

    assert_claims(benchmark, check)


def test_s8_restart_baseline_really_degrades(measurements, benchmark):
    def check():
        restart = measurements["sides"]["restart"]
        assert restart.result.method != "parallel"
        assert type(restart.crash) is WorkerCrashError
        # The rounds the parallel attempt completed before the crash
        # are exactly what the serial restart re-computes.
        assert restart.crash.rounds > 0
        assert restart.crash.recovery["crashes"] == 1

    assert_claims(benchmark, check)


def test_s8_speculation_beats_the_straggler(measurements, benchmark):
    def check():
        oracle = measurements["oracle"]
        straggled = measurements["straggled"]
        assert straggled.answers == oracle.answers
        assert straggled.stats.as_dict() == oracle.stats.as_dict()
        recovery = straggled.extras["recovery"]
        assert recovery["speculative_wins"] >= 1
        assert recovery["repairs"] == 0

    assert_claims(benchmark, check)


@pytest.mark.skipif(
    SMOKE or not MULTICORE,
    reason="repair-vs-restart timing is claimed at full size on "
           ">=4 cores only",
)
def test_s8_repair_beats_serial_restart(measurements, benchmark):
    def check():
        healed = measurements["sides"]["reassign"].elapsed
        restart = measurements["sides"]["restart"].elapsed
        assert healed < restart, (
            "crash+reassign %.1f ms not faster than serial restart "
            "%.1f ms" % (healed * 1e3, restart * 1e3)
        )

    assert_claims(benchmark, check)
