"""Live observability: span tracing, metrics, trace export, reconciliation.

The analytic layers (:mod:`repro.perf`, the engine comm models) *predict*
where time and bytes go; this subsystem *measures* it on real
multiprocess runs and closes the loop:

* :mod:`repro.obs.tracer` — per-rank span tracing with a ring buffer and
  a zero-cost null tracer;
* :mod:`repro.obs.metrics` — counters/gauges/histograms for collective
  calls, payload bytes, kernel ops, failures and recoveries;
* :mod:`repro.obs.instrument` — the :class:`TracingHook` communicator
  hook and the :class:`TracedExecutor` worker kernel, which instrument
  collectives and kernel ops without touching semantics;
* :mod:`repro.obs.export` — per-rank JSONL streams, cross-rank merging,
  Chrome-trace/Perfetto JSON, Prometheus text exposition;
* :mod:`repro.obs.reconcile` — measured-vs-modeled byte reconciliation
  per Table-I category;
* :mod:`repro.obs.analyze` — wait-time attribution, critical-path and
  load-imbalance analysis over merged traces;
* :mod:`repro.obs.scaling` — the measured scaling harness behind
  ``repro scale``;
* :mod:`repro.obs.regress` — performance regression gating over
  ``BENCH_*.json`` records;
* :mod:`repro.obs.heartbeat` — per-rank heartbeat side channel (status
  files rewritten by a background thread, decoupled from the
  collective path) plus the :class:`HeartbeatHook` communicator hook;
* :mod:`repro.obs.progress` — structured in-run progress events
  streamed as JSONL while the search executes;
* :mod:`repro.obs.monitor` — parent-side stall diagnosis (hung rank vs
  slow straggler vs global stall) and the ``repro watch`` table;
* :mod:`repro.obs.registry` — the persistent ``.repro_runs/`` run
  registry behind ``repro runs list|show|compare``;
* :mod:`repro.obs.context` — end-to-end trace context: the serve
  daemon mints a ``trace_id`` per submission, records scheduler spans
  under it, and propagates it into the job's per-rank tracers so one
  merged Chrome trace covers submit → queue → launch → iterations;
* :mod:`repro.obs.slo` — offline service-level analytics (queue-wait /
  turnaround percentiles, utilization, per-tenant fairness) from
  registry manifests alone, behind ``repro slo``;
* :mod:`repro.obs.hotspots` — kernel-level compute observability: the
  per-op :class:`OpProfiler` (wall time, invocations, work units and
  CLV memory per kernel op × partition), analytic FLOP/byte accounting
  and roofline placement, behind ``repro hotspots``.

See ``docs/OBSERVABILITY.md`` for the workflow, and ``repro profile`` /
``repro scale`` / ``repro regress`` on the CLI for the one-command
versions.
"""

from repro.obs.analyze import (
    CriticalPath,
    CriticalPathStep,
    RankBreakdown,
    TraceAnalysis,
    analyze_trace,
    attribute_wait,
    critical_path,
    load_imbalance,
    match_collectives,
)
from repro.obs.context import (
    current_trace_id,
    new_trace_id,
    record_service_spans,
    service_instant,
    service_span,
)
from repro.obs.export import (
    chrome_trace,
    merge_job_trace,
    merge_rank_streams,
    rank_trace_path,
    read_jsonl,
    snapshot_to_prom,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.heartbeat import (
    DEFAULT_BEAT_INTERVAL,
    HeartbeatState,
    HeartbeatWriter,
    HeartbeatHook,
    heartbeat_path,
    read_heartbeat,
    read_heartbeats,
)
from repro.obs.hotspots import (
    CLV_MEMORY_SPAN,
    CLV_RATIO_MAX,
    CLV_RATIO_MIN,
    KERNEL_OP_SPAN,
    NULL_OP_PROFILER,
    HotspotReport,
    NullOpProfiler,
    OpProfiler,
    OpStat,
    build_hotspot_report,
    emit_kernel_profile,
)
from repro.obs.instrument import TracedExecutor, TracingHook
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.monitor import (
    DEFAULT_BEAT_TIMEOUT,
    DEFAULT_STALL_AFTER,
    DEFAULT_STRAGGLER_AFTER,
    Diagnosis,
    Monitor,
    MonitorThread,
    RankHealth,
    diagnose,
    format_watch_table,
    watch_loop,
)
from repro.obs.metrics import histogram_quantile
from repro.obs.progress import (
    NULL_PROGRESS,
    NullProgress,
    ProgressReporter,
    ProgressStream,
    progress_path,
    read_progress,
    read_progress_since,
)
from repro.obs.slo import (
    JobStats,
    SloReport,
    collect_job_stats,
    compute_slo,
    percentile,
)
from repro.obs.reconcile import (
    DECENTRALIZED_REL_TOL,
    FORKJOIN_REL_TOL,
    CategoryDelta,
    ReconcileReport,
    modeled_byte_totals,
    reconcile,
    reconcile_live_run,
)
from repro.obs.registry import (
    RunRegistry,
    compare_runs,
    format_compare_table,
    runs_root,
)
from repro.obs.regress import (
    GateReport,
    GateRow,
    bench_metrics,
    compare_to_baselines,
    load_baselines,
)
from repro.obs.scaling import ScalePoint, ScalingResult, run_scaling
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "TraceAnalysis",
    "RankBreakdown",
    "CriticalPath",
    "CriticalPathStep",
    "analyze_trace",
    "attribute_wait",
    "critical_path",
    "load_imbalance",
    "match_collectives",
    "snapshot_to_prom",
    "GateReport",
    "GateRow",
    "bench_metrics",
    "compare_to_baselines",
    "load_baselines",
    "ScalePoint",
    "ScalingResult",
    "run_scaling",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "histogram_quantile",
    "TracingHook",
    "TracedExecutor",
    "KERNEL_OP_SPAN",
    "CLV_MEMORY_SPAN",
    "CLV_RATIO_MIN",
    "CLV_RATIO_MAX",
    "OpProfiler",
    "NullOpProfiler",
    "NULL_OP_PROFILER",
    "OpStat",
    "HotspotReport",
    "build_hotspot_report",
    "emit_kernel_profile",
    "chrome_trace",
    "merge_job_trace",
    "merge_rank_streams",
    "rank_trace_path",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "CategoryDelta",
    "ReconcileReport",
    "modeled_byte_totals",
    "reconcile",
    "reconcile_live_run",
    "DECENTRALIZED_REL_TOL",
    "FORKJOIN_REL_TOL",
    "DEFAULT_BEAT_INTERVAL",
    "HeartbeatState",
    "HeartbeatWriter",
    "HeartbeatHook",
    "heartbeat_path",
    "read_heartbeat",
    "read_heartbeats",
    "NULL_PROGRESS",
    "NullProgress",
    "ProgressReporter",
    "ProgressStream",
    "progress_path",
    "read_progress",
    "read_progress_since",
    "current_trace_id",
    "new_trace_id",
    "record_service_spans",
    "service_instant",
    "service_span",
    "JobStats",
    "SloReport",
    "collect_job_stats",
    "compute_slo",
    "percentile",
    "DEFAULT_BEAT_TIMEOUT",
    "DEFAULT_STALL_AFTER",
    "DEFAULT_STRAGGLER_AFTER",
    "Diagnosis",
    "Monitor",
    "MonitorThread",
    "RankHealth",
    "diagnose",
    "format_watch_table",
    "watch_loop",
    "RunRegistry",
    "compare_runs",
    "format_compare_table",
    "runs_root",
]
