"""Measurement and reporting harness for the experiments.

Per-run metrics (:mod:`.metrics`), user × server-class sweeps
(:mod:`.runner`), parallel sweep backends (:mod:`.parallel`), the ASCII
tables/series the benchmarks print (:mod:`.tables`), and the fast
one-command reproduction report (:mod:`.report`, runnable as
``python -m repro.analysis.report``).
"""

from repro.analysis.metrics import (
    RunMetrics,
    collect_metrics,
    Summary,
    success_rate,
    rounds_summary,
)
from repro.analysis.runner import (
    CellTask,
    CellTelemetry,
    SweepCell,
    SweepResult,
    merge_telemetry,
    sweep,
    sweep_goals,
)
from repro.analysis.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ensure_picklable,
)
from repro.analysis.tables import (
    format_table,
    format_series,
    format_sparkline,
    format_telemetry,
)

__all__ = [
    "RunMetrics",
    "collect_metrics",
    "Summary",
    "success_rate",
    "rounds_summary",
    "CellTask",
    "CellTelemetry",
    "SweepCell",
    "SweepResult",
    "merge_telemetry",
    "sweep",
    "sweep_goals",
    "SerialExecutor",
    "ProcessExecutor",
    "ensure_picklable",
    "format_table",
    "format_series",
    "format_sparkline",
    "format_telemetry",
]
