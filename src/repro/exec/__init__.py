"""Dedicated evaluators and uniform strategy executors."""

from .cache import AnswerCache, CountingTableStore
from .counting_engine import CountingEngine, CountingTable
from .magic_counting import MagicCountingEngine, recurring_nodes
from .prepared import PreparedQuery
from .resilient import (
    DEFAULT_CHAIN,
    AttemptRecord,
    ExecutionReport,
    FallbackPolicy,
    run_resilient,
)
from .weak_stratification import (
    tables_equivalent,
    wavefront_counting_table,
    weakly_stratified_counting_table,
)
from .strategies import (
    STRATEGIES,
    ExecutionResult,
    run_classical_counting,
    run_cyclic_counting,
    run_extended_counting,
    run_magic,
    run_magic_counting,
    run_naive,
    run_pointer_counting,
    run_reduced_counting,
    run_strategy,
)

__all__ = [
    "AnswerCache",
    "AttemptRecord",
    "CountingEngine",
    "CountingTableStore",
    "PreparedQuery",
    "CountingTable",
    "DEFAULT_CHAIN",
    "ExecutionReport",
    "ExecutionResult",
    "FallbackPolicy",
    "MagicCountingEngine",
    "STRATEGIES",
    "run_resilient",
    "recurring_nodes",
    "run_classical_counting",
    "run_cyclic_counting",
    "run_extended_counting",
    "run_magic",
    "run_magic_counting",
    "run_naive",
    "run_pointer_counting",
    "run_reduced_counting",
    "run_strategy",
    "tables_equivalent",
    "wavefront_counting_table",
    "weakly_stratified_counting_table",
]
