"""Synthetic GPU workloads: traces, patterns, value models, benchmarks."""

from repro.workloads.benchmarks import (
    BENCHMARKS,
    PAPER_ROSTER,
    BenchmarkProfile,
    PatternSpec,
    benchmark_names,
    build_all_traces,
    build_trace,
    get_profile,
    scaled_profile,
)
from repro.workloads.patterns import PATTERNS, PatternResult, generate
from repro.workloads.stats import TraceStats, characterize, rw_breakdown
from repro.workloads.trace import Trace, TraceAccess
from repro.workloads.traceio import (
    dump_event_log,
    dump_trace,
    dumps_event_log,
    dumps_trace,
    load_event_log,
    load_trace,
    loads_event_log,
    loads_trace,
    merge_traces,
)
from repro.workloads.values import (
    ValueModel,
    ValueModelConfig,
    study_trace_values,
)

__all__ = [
    "BENCHMARKS",
    "PAPER_ROSTER",
    "BenchmarkProfile",
    "PATTERNS",
    "PatternResult",
    "PatternSpec",
    "Trace",
    "TraceAccess",
    "TraceStats",
    "ValueModel",
    "ValueModelConfig",
    "benchmark_names",
    "build_all_traces",
    "build_trace",
    "characterize",
    "dump_event_log",
    "dump_trace",
    "dumps_event_log",
    "dumps_trace",
    "load_event_log",
    "load_trace",
    "loads_event_log",
    "loads_trace",
    "merge_traces",
    "generate",
    "get_profile",
    "rw_breakdown",
    "scaled_profile",
    "study_trace_values",
]
