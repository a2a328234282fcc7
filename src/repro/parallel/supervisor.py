"""Worker supervision for the self-healing sharded fixpoint.

PR 9's executor treated any worker failure as fatal to the whole
parallel attempt: one ``WorkerCrashError`` and the resilient chain
re-ran the query serially from scratch, throwing away every completed
round.  The counting method's phase structure makes rounds natural
recovery points — the deltas exchanged at a barrier are a complete,
consistent description of per-shard progress — so this module gives
the coordinator everything it needs to repair the pool *in place* and
lose at most one round of work:

* :class:`RecoveryPolicy` — which failures to repair, how often, and
  how aggressively to chase stragglers.  ``mode="reassign"`` rehashes
  a dead worker's shards onto the survivors, ``mode="respawn"`` forks
  a replacement and rebuilds its shard state from the checkpoint,
  ``mode="serial"`` restores the PR 9 behaviour (fail the attempt,
  let the resilient chain degrade).

* :class:`RoundCheckpoint` — the coordinator-side barrier state: the
  routed per-worker delta portions of the in-flight round (already
  columnar ``to_bytes`` blobs — the routing currency *is* the
  checkpoint format) plus the per-relation epochs of every derived
  relation at the barrier.  ``to_bytes``/``from_bytes`` give the
  optional spill path: with ``RecoveryPolicy(spill=True)`` the
  checkpoint round-trips through bytes every round, so the in-memory
  form is provably equivalent to an on-disk one.

* :class:`Supervisor` — liveness bookkeeping and the repair budget.
  Workers heartbeat on a dedicated pipe; the supervisor tracks the
  last beat per slot, keeps a window of completed round times for the
  robust straggler threshold (a multiple of the median), records every
  failure and repair as a :class:`RepairEvent`, and enforces
  ``max_repairs``.

The supervisor never touches processes or pipes itself — the executor
owns the pool mechanics and consults the supervisor for *decisions*
(is this slot hung?  is it a straggler?  may I repair again?), which
keeps every policy number in one inspectable, testable object.

Invariant the whole layer is built around: recovery must never change
answers or the merged :class:`~repro.engine.instrumentation.EvalStats`
at any crash point.  Repairs only ever re-execute the failed worker's
portion of the in-flight round on a peer, a replacement, or the
coordinator itself; every derivation occurrence is still integrated
exactly once, so the differential matrix holds at every barrier index.
"""

import pickle
import time

#: Recovery modes a policy may select.
RECOVERY_MODES = ("reassign", "respawn", "serial")


class RecoveryPolicy:
    """How the coordinator responds to worker failures.

    Parameters
    ----------
    mode : str
        ``"reassign"`` (default) — rehash the dead worker's shards onto
        the survivors and re-route its in-flight delta portion;
        ``"respawn"`` — fork a replacement into the same slot and
        rebuild its shard state from the spawn payload plus the
        replicate log; ``"serial"`` — no in-place repair, fail the
        parallel attempt with the typed error (PR 9 behaviour).
    max_repairs : int
        Repair allowance per evaluation.  Once spent, the next failure
        raises :class:`~repro.errors.RecoveryExhaustedError` carrying
        the repair log — degrade-to-serial is the last resort, not the
        first response.
    heartbeat_interval : float
        Seconds between worker heartbeats (a dedicated pipe beside the
        data channel, fed by a daemon thread in each worker).
    liveness_timeout : float
        Heartbeat silence tolerated while the process is *alive* before
        the slot is declared hung — catches wedged processes (SIGSTOP,
        a C-level deadlock) that ``is_alive`` can never see.
    barrier_timeout : float
        Longest a slot may sit on one barrier reply before it is
        declared hung even though its heartbeats still flow — catches a
        stuck round (the main loop sleeping forever) on deadline-less
        budgets.
    straggler_multiple / straggler_min_seconds : float
        Speculative re-execution triggers once a slot's wait exceeds
        ``max(straggler_min_seconds, straggler_multiple * median)`` of
        the completed round times observed so far.  The median is the
        robust centre — one slow round never drags the threshold up.
    speculate : bool
        Master switch for speculative straggler re-execution.
    spill : bool
        Round-trip every :class:`RoundCheckpoint` through its
        ``to_bytes`` encoding (the columnar spill path) instead of
        keeping live objects.
    """

    __slots__ = ("mode", "max_repairs", "heartbeat_interval",
                 "liveness_timeout", "barrier_timeout",
                 "straggler_multiple", "straggler_min_seconds",
                 "speculate", "spill")

    def __init__(self, mode="reassign", max_repairs=2,
                 heartbeat_interval=0.1, liveness_timeout=2.0,
                 barrier_timeout=120.0, straggler_multiple=6.0,
                 straggler_min_seconds=0.5, speculate=True, spill=False):
        if mode not in RECOVERY_MODES:
            raise ValueError(
                "unknown recovery mode %r; expected one of %s"
                % (mode, ", ".join(RECOVERY_MODES))
            )
        if max_repairs < 0:
            raise ValueError("max_repairs must be >= 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if liveness_timeout <= heartbeat_interval:
            raise ValueError(
                "liveness_timeout must exceed heartbeat_interval"
            )
        if barrier_timeout <= 0:
            raise ValueError("barrier_timeout must be positive")
        if straggler_multiple < 1.0:
            raise ValueError("straggler_multiple must be >= 1")
        if straggler_min_seconds < 0:
            raise ValueError("straggler_min_seconds must be >= 0")
        self.mode = mode
        self.max_repairs = max_repairs
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.barrier_timeout = barrier_timeout
        self.straggler_multiple = straggler_multiple
        self.straggler_min_seconds = straggler_min_seconds
        self.speculate = speculate
        self.spill = spill

    @classmethod
    def coerce(cls, value):
        """``None`` -> default policy, mode string -> policy, policy
        -> itself: what the ``parallel`` strategy's ``recovery``
        option goes through."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            "recovery must be a RecoveryPolicy, a mode string, or None"
        )

    def as_dict(self):
        return {
            "mode": self.mode,
            "max_repairs": self.max_repairs,
            "barrier_timeout": self.barrier_timeout,
            "liveness_timeout": self.liveness_timeout,
            "straggler_multiple": self.straggler_multiple,
            "speculate": self.speculate,
            "spill": self.spill,
        }

    def __repr__(self):
        return "RecoveryPolicy(%s, max_repairs=%d%s)" % (
            self.mode, self.max_repairs,
            ", speculate" if self.speculate else "",
        )


class RepairEvent:
    """One recovery-relevant incident: a failure, a repair, or a
    speculative win."""

    __slots__ = ("kind", "worker", "round_index", "seconds", "detail")

    def __init__(self, kind, worker, round_index, seconds=0.0,
                 detail=""):
        self.kind = kind
        self.worker = worker
        self.round_index = round_index
        self.seconds = seconds
        self.detail = detail

    def as_dict(self):
        return {
            "kind": self.kind,
            "worker": self.worker,
            "round": self.round_index,
            "seconds": self.seconds,
            "detail": self.detail,
        }

    def __repr__(self):
        return "RepairEvent(%s, worker=%d, round=%d)" % (
            self.kind, self.worker, self.round_index
        )


class RoundCheckpoint:
    """Barrier-consistent recovery state for one in-flight round.

    ``portions`` maps pool slot -> ``{predicate key: columnar blob}``
    — exactly the routed delta the coordinator shipped at the barrier,
    already in the ``ColumnStore.to_bytes`` wire format, so rebuilding
    a lost worker's round input is a dictionary lookup, not a
    re-encode.  ``epochs`` snapshots each derived relation's mutation
    epoch at the barrier: repairs assert progress monotonicity against
    it, and the spill format carries it so an on-disk checkpoint is as
    self-describing as the in-memory one.
    """

    __slots__ = ("round_index", "portions", "epochs")

    def __init__(self, round_index, portions, epochs):
        self.round_index = round_index
        self.portions = {
            slot: dict(blobs) for slot, blobs in portions.items()
        }
        self.epochs = dict(epochs)

    def portion(self, slot):
        """The routed delta blobs slot was sent this round."""
        return self.portions.get(slot, {})

    def to_bytes(self):
        """Spill encoding: the blobs are already columnar bytes, the
        skeleton (slots, keys, epochs) pickles around them."""
        return pickle.dumps(
            (self.round_index, self.portions, self.epochs),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, data):
        round_index, portions, epochs = pickle.loads(data)
        return cls(round_index, portions, epochs)

    def __repr__(self):
        rows = sum(len(blobs) for blobs in self.portions.values())
        return "RoundCheckpoint(round=%d, %d slots, %d portions)" % (
            self.round_index, len(self.portions), rows
        )


class Supervisor:
    """Liveness bookkeeping and the repair budget for one evaluation.

    Owned by the coordinator; consulted (never in charge of I/O) from
    the barrier wait loop.  All thresholds come from the
    :class:`RecoveryPolicy`; all timing flows through the injectable
    ``clock`` so tests drive deterministic failures.
    """

    #: Completed round times kept for the straggler median.
    _WINDOW = 32

    def __init__(self, policy, clock=None):
        self.policy = policy
        self._clock = clock if clock is not None else time.monotonic
        self._last_beat = {}
        self._round_times = []
        self.events = []
        self.crashes = 0
        self.hangs = 0
        self.reassignments = 0
        self.respawns = 0
        self.speculative_wins = 0
        self.rounds_replayed = 0
        self.repairs = 0
        self.recovery_seconds = 0.0
        self.checkpoints_retained = 0
        self.checkpoint_bytes = 0

    # -- heartbeats and round timing ---------------------------------

    def beat(self, slot, now=None):
        """Record a heartbeat (or any traffic) from ``slot``."""
        self._last_beat[slot] = self._clock() if now is None else now

    def forget(self, slot):
        self._last_beat.pop(slot, None)

    def observe_round_time(self, seconds):
        """Feed one completed reply's wall time into the median window."""
        self._round_times.append(seconds)
        if len(self._round_times) > self._WINDOW:
            del self._round_times[0]

    def median_round_time(self):
        if not self._round_times:
            return None
        ordered = sorted(self._round_times)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def straggler_deadline(self):
        """Seconds of barrier wait after which a slot is a straggler,
        or ``None`` while there is no history to be robust against."""
        if not self.policy.speculate:
            return None
        median = self.median_round_time()
        if median is None:
            return None
        return max(
            self.policy.straggler_min_seconds,
            self.policy.straggler_multiple * median,
        )

    # -- failure classification --------------------------------------

    def diagnose(self, slot, waited, alive, now=None):
        """Classify a pending slot: ``None`` (healthy), ``"crash"``,
        or ``"hang"``.

        ``waited`` is seconds since the slot's current head message
        started being processed; ``alive`` the process's liveness.
        Hang covers both silence (no heartbeat within
        ``liveness_timeout`` while alive) and overstay (the barrier
        deadline passed with heartbeats still flowing).
        """
        if not alive:
            return "crash"
        now = self._clock() if now is None else now
        last = self._last_beat.get(slot)
        if last is not None and \
                now - last > self.policy.liveness_timeout:
            return "hang"
        if waited > self.policy.barrier_timeout:
            return "hang"
        return None

    # -- the repair budget -------------------------------------------

    def allow_repair(self):
        return self.repairs < self.policy.max_repairs

    def record(self, kind, worker, round_index, seconds=0.0, detail=""):
        event = RepairEvent(kind, worker, round_index, seconds, detail)
        self.events.append(event)
        if kind == "crash":
            self.crashes += 1
        elif kind == "hang":
            self.hangs += 1
        elif kind == "reassign":
            self.reassignments += 1
        elif kind == "respawn":
            self.respawns += 1
        elif kind == "speculative_win":
            self.speculative_wins += 1
        return event

    def note_checkpoint(self, checkpoint, spilled=None):
        self.checkpoints_retained += 1
        if spilled is not None:
            self.checkpoint_bytes += len(spilled)

    def event_dicts(self):
        return [event.as_dict() for event in self.events]

    def as_dict(self):
        """The ``extras["recovery"]`` block: policy plus outcome."""
        return {
            "policy": self.policy.as_dict(),
            "crashes": self.crashes,
            "hangs": self.hangs,
            "reassignments": self.reassignments,
            "respawns": self.respawns,
            "speculative_wins": self.speculative_wins,
            "rounds_replayed": self.rounds_replayed,
            "repairs": self.repairs,
            "recovery_seconds": self.recovery_seconds,
            "checkpoints": self.checkpoints_retained,
            "checkpoint_bytes": self.checkpoint_bytes,
            "events": self.event_dicts(),
        }

    def __repr__(self):
        return "Supervisor(%s, %d repairs, %d events)" % (
            self.policy.mode, self.repairs, len(self.events)
        )
