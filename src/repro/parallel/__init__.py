"""Data-parallel sharded fixpoint evaluation (plan/execute split).

:mod:`repro.parallel.plan` computes an explicit
:class:`~repro.parallel.plan.PartitionedPlan` for a query — partition
columns, shard-vs-broadcast decisions, delta-exchange schedule — and
:mod:`repro.parallel.executor` runs it over a persistent
``multiprocessing`` worker pool, supervised by
:mod:`repro.parallel.supervisor`.  The only entry point outside this
package is the ``parallel`` strategy,
:func:`~repro.exec.strategies.run_parallel`.  See ``docs/api.md``
("Parallel evaluation") for the worker lifecycle and recovery
semantics.
"""

from .executor import (
    ParallelEngine,
    PlanViolationError,
    RecoveryExhaustedError,
    WorkerCrashError,
    WorkerHungError,
)
from .plan import (
    DEFAULT_BROADCAST_ROWS,
    PartitionedPlan,
    plan_partitions,
    shard_of,
    shard_rows,
)
from .supervisor import (
    RECOVERY_MODES,
    RecoveryPolicy,
    RepairEvent,
    RoundCheckpoint,
    Supervisor,
)

__all__ = [
    "DEFAULT_BROADCAST_ROWS",
    "ParallelEngine",
    "PartitionedPlan",
    "PlanViolationError",
    "RECOVERY_MODES",
    "RecoveryExhaustedError",
    "RecoveryPolicy",
    "RepairEvent",
    "RoundCheckpoint",
    "Supervisor",
    "WorkerCrashError",
    "WorkerHungError",
    "plan_partitions",
    "shard_of",
    "shard_rows",
]
