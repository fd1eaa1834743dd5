"""Observability configuration.

One frozen dataclass controls the entire instrumentation layer. The
default is *fully disabled*: every hook in the pipeline collapses to a
single attribute check, simulation outputs are byte-identical to an
uninstrumented build, and no clocks are read. Enabling it (the
``profile`` harness subcommand does) turns on a metrics registry,
an event tracer, and periodic traffic snapshots in the replay loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the observability layer (default: everything off)."""

    #: Master switch. False keeps every hook a no-op.
    enabled: bool = False
    #: Collect counters/gauges/histograms/samplers (requires ``enabled``).
    metrics: bool = True
    #: Collect structured events and phase spans (requires ``enabled``).
    tracing: bool = True
    #: DRAM-side events between traffic/engine snapshots in the replay
    #: loop; 0 disables interval sampling even when enabled.
    interval_events: int = 1024
    #: Ring-buffer capacity of the event tracer; older events are
    #: dropped (and counted) once full.
    ring_capacity: int = 65536
    #: Maximum retained points per time-series sampler; full samplers
    #: compact by merging adjacent points, so a series always spans the
    #: whole run at bounded memory.
    sampler_window: int = 512
    #: Collect hierarchical profiler spans at pipeline-phase granularity
    #: (requires ``enabled``).
    spans: bool = True
    #: Also open spans inside the replay pass — one per batched engine
    #: run and per metadata phase (counter/MAC read and write), plus
    #: BMT traversals and crypto primitives. Expensive (a clock pair per
    #: operation); off by default even in profile runs.
    span_detail: bool = False
    #: Raw per-call span records retained for the Chrome trace export;
    #: aggregates are unaffected by this bound.
    max_spans: int = 65536

    def __post_init__(self) -> None:
        if self.interval_events < 0:
            raise ConfigurationError("interval_events cannot be negative")
        if self.ring_capacity <= 0:
            raise ConfigurationError("ring_capacity must be positive")
        if self.sampler_window < 8:
            raise ConfigurationError("sampler_window must be at least 8")
        if self.max_spans <= 0:
            raise ConfigurationError("max_spans must be positive")

    @property
    def metrics_active(self) -> bool:
        return self.enabled and self.metrics

    @property
    def tracing_active(self) -> bool:
        return self.enabled and self.tracing

    @property
    def spans_active(self) -> bool:
        return self.enabled and self.spans

    @property
    def span_detail_active(self) -> bool:
        return self.enabled and self.spans and self.span_detail

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: Shared everything-off configuration.
DISABLED = ObsConfig()
