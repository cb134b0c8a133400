"""Benchmark harness: datasets, scaled specs, run matrices, tables,
machine-readable perf records (:mod:`repro.bench.trajectory`) and the
named suites behind ``python -m repro.cli bench``."""

from .datasets import (
    FIG8_DATASETS,
    FIG9_DATASETS,
    FIG10_DATASETS,
    FIG12_DATASETS,
    TABLE2_DATASETS,
    WORKLOAD_SCALE,
    benchmark_spec,
    get_graph,
    pick_sources,
)
from .harness import (
    MethodRun,
    RESULTS_DIR,
    default_results_dir,
    format_table,
    geo_speedup,
    run_matrix,
    run_method,
    write_results,
)
from .suites import SUITES, SuiteSpec, run_suite, suite_names
from .trajectory import (
    SCHEMA_VERSION,
    WALL_TOLERANCE,
    BenchRecord,
    ComparisonReport,
    SchemaVersionError,
    compare_records,
    format_diff,
    load_trajectory,
    record_from_run,
    write_trajectory,
)

__all__ = [
    "WORKLOAD_SCALE",
    "benchmark_spec",
    "get_graph",
    "pick_sources",
    "FIG8_DATASETS",
    "TABLE2_DATASETS",
    "FIG9_DATASETS",
    "FIG10_DATASETS",
    "FIG12_DATASETS",
    "MethodRun",
    "run_method",
    "run_matrix",
    "format_table",
    "write_results",
    "geo_speedup",
    "RESULTS_DIR",
    "default_results_dir",
    # continuous benchmarking
    "SCHEMA_VERSION",
    "WALL_TOLERANCE",
    "BenchRecord",
    "ComparisonReport",
    "SchemaVersionError",
    "compare_records",
    "format_diff",
    "load_trajectory",
    "record_from_run",
    "write_trajectory",
    "SUITES",
    "SuiteSpec",
    "run_suite",
    "suite_names",
]
