"""repro.obs — fleet-wide metrics, span tracing, and run health reports.

Observability for the *runtime*, complementing the telemetry layer's record
of the *simulation*: counters/gauges/histograms with deterministic
cross-process merging, a wall-time span tree, and a per-run health report.
Disabled by default; :func:`enable` (or ``--profile`` on the runners) turns
it on for the current process, and shard workers ship their collector
snapshots back with their results for the orchestrator to merge.

All helpers are trace-neutral by construction: they never touch simulation
state or RNG streams, so golden traces stay bit-exact with obs on or off.

Live, in-flight observability lives in :mod:`repro.obs.live` (shard
heartbeats into an in-parent table, straggler watchdog, a status file
rewritten on every tick — re-exported here) and its companions
:mod:`repro.obs.monitor` (``python -m repro.obs.monitor``, which reads only
that file),
:mod:`repro.obs.telemetry_reader` (the one telemetry file reader), and
:mod:`repro.obs.trace_export` (Chrome/Perfetto span timelines).  The latter
three import the fleet/analytics layers, so they are deliberately *not*
imported here — reach them as modules to avoid import cycles.
"""

from repro.obs.core import (
    Collector,
    SpanNode,
    active,
    collect,
    counter_add,
    disable,
    enable,
    enabled,
    gauge_max,
    merge_shard_snapshot,
    observe,
    span,
)
from repro.obs.live import (
    HeartbeatPublisher,
    LiveRun,
    RunStatus,
    ShardStatus,
    active_run,
    live_run,
)
from repro.obs.registry import BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.obs.report import (
    REPORT_VERSION,
    build_run_report,
    find_span,
    format_report,
    load_report,
    peak_rss_bytes,
    span_coverage,
    span_names,
    write_report,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Collector",
    "HeartbeatPublisher",
    "Histogram",
    "LiveRun",
    "MetricsRegistry",
    "REPORT_VERSION",
    "RunStatus",
    "ShardStatus",
    "SpanNode",
    "active",
    "active_run",
    "build_run_report",
    "collect",
    "counter_add",
    "disable",
    "enable",
    "enabled",
    "find_span",
    "format_report",
    "gauge_max",
    "live_run",
    "load_report",
    "merge_shard_snapshot",
    "observe",
    "peak_rss_bytes",
    "span",
    "span_coverage",
    "span_names",
    "write_report",
]
