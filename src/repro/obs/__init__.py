"""Observability: event recording, timelines, distributions, exporters.

Layers (DESIGN.md "Observability" and "Distributional observability"):

* :class:`Recorder` / :class:`NullRecorder` — structured counters,
  gauges, events, and wall-clock spans; the null default costs nothing.
* :class:`Timeline` / :class:`EpochRecord` — per-epoch breakdowns of
  every aggregate in :class:`~repro.sim.metrics.SimulationReport`.
* :class:`LatencyHistogram` / :class:`TierHistogramSet` — fixed
  log-bucket latency distributions per serving tier, and
  :class:`SpatialAccumulator` / :class:`SpatialReport` — per-unit load
  and the stack-to-stack link-traffic matrix.
* :class:`PerfTracer` — the one span API: hierarchical perf_counter
  spans over the simulator's own hot paths (trace generation, L1
  filter, policy, DRAM, reconfigure).  Recorder spans are tracer spans;
  the ``profile`` verb's Perfetto export and bottleneck report live in
  :mod:`repro.obs.perfreport`, imported directly to keep this package
  import-light.
* :mod:`repro.obs.export` — the serving Prometheus document behind
  ``serve --prom`` and the live ``/metrics``, and the strict JSON
  writer behind every ``--report-out``.

``read_trace`` / ``summarize`` / ``diff_rows`` are the read side used
by ``python -m repro stats``.
"""

from repro.obs.histogram import (
    BUCKET_SCHEME,
    TIERS,
    LatencyHistogram,
    TierHistogramSet,
)
from repro.obs.recorder import (
    SCHEMA_VERSION,
    NullRecorder,
    Recorder,
    sanitize_json,
)
from repro.obs.slo import (
    SLO_OK,
    SLO_PAGE,
    SLO_WARN,
    SloEngine,
    SloObjective,
    alert_severity,
    default_objectives,
)
from repro.obs.spatial import SpatialAccumulator, SpatialReport
from repro.obs.timeline import EpochRecord, Timeline
from repro.obs.tracing import (
    ENGINE_PHASES,
    NULL_TRACER,
    NullTracer,
    PerfTracer,
    SpanAgg,
    SpanEvent,
    activate,
    current,
)
from repro.obs.traceio import (
    TraceFile,
    diff_rows,
    read_trace,
    summarize,
    summary_rows,
)

__all__ = [
    "BUCKET_SCHEME",
    "ENGINE_PHASES",
    "NULL_TRACER",
    "SCHEMA_VERSION",
    "TIERS",
    "EpochRecord",
    "LatencyHistogram",
    "NullRecorder",
    "NullTracer",
    "PerfTracer",
    "Recorder",
    "SLO_OK",
    "SLO_PAGE",
    "SLO_WARN",
    "SloEngine",
    "SloObjective",
    "SpanAgg",
    "SpanEvent",
    "activate",
    "alert_severity",
    "current",
    "default_objectives",
    "SpatialAccumulator",
    "SpatialReport",
    "TierHistogramSet",
    "Timeline",
    "TraceFile",
    "diff_rows",
    "read_trace",
    "sanitize_json",
    "summarize",
    "summary_rows",
]
