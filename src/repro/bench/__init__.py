"""Benchmark harness: strategy matrices, sweeps and table rendering."""

from .export import rows_to_records, write_csv, write_json
from .harness import BenchRow, matrix_table, run_matrix, summarize, sweep
from .reporting import format_table, speedup

__all__ = [
    "BenchRow",
    "format_table",
    "matrix_table",
    "rows_to_records",
    "run_matrix",
    "speedup",
    "summarize",
    "sweep",
    "write_csv",
    "write_json",
]
