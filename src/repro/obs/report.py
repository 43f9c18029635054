"""Run health reports: one JSON document describing how a run *executed*.

Where the telemetry JSONL records what the simulation *did* (sessions,
segments, link usage — the replayable ground truth), the run report records
how the runtime *behaved*: a merged metrics snapshot, the span tree with
per-phase wall time, throughput in sessions/sec and segments/sec, fallback
counters and peak RSS.  The same document is appended to the fleet telemetry
stream as a ``run_report`` event and written standalone as ``report.json``
by ``experiments/runner.py --profile`` / ``examples/fleet_day.py --profile``.

Pretty-print a saved report with::

    python -m repro.obs.report report.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.core import Collector, active

#: Report documents carry a schema version so downstream tooling (the CI
#: artifact diffing, the pretty printer) can evolve without guessing.
#: v2 added the ``live`` section (heartbeat/straggler/ETA summary from
#: :mod:`repro.obs.live`); :func:`load_report` rejects any other version.
REPORT_VERSION = 2


def peak_rss_bytes() -> int | None:
    """Peak resident-set size of this process and its children, in bytes.

    ``None`` on platforms without :mod:`resource` (Windows).  Children are
    included so pooled fleet runs report the worker peak too (``ru_maxrss``
    of the largest finished child).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return int(max(self_rss, child_rss) * scale)


def find_span(spans: dict, path: str) -> dict | None:
    """Look up a node in a serialised span tree by ``/``-joined name path.

    ``find_span(report["spans"], "fleet.run_day/fleet.run_shards")`` returns
    that phase's payload, or ``None`` when the path does not exist.
    """
    node = spans
    for name in path.split("/"):
        node = next(
            (c for c in node.get("children", []) if c["name"] == name), None
        )
        if node is None:
            return None
    return node


def span_coverage(node: dict) -> float:
    """Fraction of a span's wall time attributed to its child spans.

    1.0 for a leaf (nothing to attribute) and for a zero-duration node.
    """
    children = node.get("children", [])
    if not children or node["total_s"] <= 0.0:
        return 1.0
    return min(sum(c["total_s"] for c in children) / node["total_s"], 1.0)


def span_names(spans: dict) -> list[str]:
    """All ``/``-joined span paths of a tree, sorted — its *structure*.

    Two runs of the same workload under different shard/worker counts must
    produce equal ``span_names`` lists (the tests pin this).
    """
    names: list[str] = []

    def walk(node: dict, prefix: str) -> None:
        for child in node.get("children", []):
            path = f"{prefix}{child['name']}"
            names.append(path)
            walk(child, path + "/")

    walk(spans, "")
    return sorted(names)


def build_run_report(
    collector: Collector | None = None,
    *,
    run_id: str = "run",
    sessions: int | None = None,
    segments: int | None = None,
    wall_time_s: float | None = None,
    fallback_sessions: int | None = None,
    batch_sessions: int | None = None,
    per_shard: list[dict] | None = None,
    live: dict | None = None,
) -> dict:
    """Assemble the run health document from the collector's current state.

    ``collector`` defaults to the process's active one.  Explicit
    ``sessions``/``segments``/fallback numbers win; otherwise they are read
    from the standard counters (``fleet.sessions`` etc.) so a profiled
    multi-run session (``runner.py --profile``) aggregates naturally.
    ``wall_time_s`` defaults to the span tree's top-level total, which for a
    report built *inside* ``fleet.run_day`` includes the in-flight elapsed
    time of the open span.
    """
    collector = collector or active()
    if collector is None:
        raise ValueError("observability is disabled; no collector to report on")
    snapshot = collector.snapshot()
    counters = snapshot["metrics"]["counters"]
    if sessions is None:
        sessions = int(counters.get("fleet.sessions", 0))
    if segments is None:
        segments = int(counters.get("fleet.segments", 0))
    if fallback_sessions is None:
        fallback_sessions = int(counters.get("backend.fallback_sessions", 0))
    if batch_sessions is None:
        batch_sessions = int(counters.get("backend.batch_sessions", 0))
    top_level = snapshot["spans"]["children"]
    if wall_time_s is None:
        wall_time_s = sum(node["total_s"] for node in top_level)
    top = top_level[0] if len(top_level) == 1 else snapshot["spans"]
    report = {
        "version": REPORT_VERSION,
        "run_id": run_id,
        "wall_time_s": wall_time_s,
        "sessions": sessions,
        "segments": segments,
        "sessions_per_second": sessions / wall_time_s if wall_time_s > 0 else 0.0,
        "segments_per_second": segments / wall_time_s if wall_time_s > 0 else 0.0,
        "fallback": {
            "total_fallback_sessions": fallback_sessions,
            "total_batch_sessions": batch_sessions,
        },
        "peak_rss_bytes": peak_rss_bytes(),
        "span_coverage": span_coverage(top),
        "spans": snapshot["spans"],
        "metrics": snapshot["metrics"],
        # v2: wall-clock heartbeat/straggler/ETA summary (None when the run
        # executed without a LiveRun attached).
        "live": live,
        "per_shard": per_shard or [],
    }
    return report


def write_report(report: dict, path: str | Path) -> Path:
    """Write a report document as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def _format_seconds(value: float) -> str:
    # Self time can be negative where children ran in parallel workers (their
    # wall time is attributed under the parent's pool-wait span).
    sign = "-" if value < 0 else ""
    value = abs(value)
    if value >= 1.0:
        return f"{sign}{value:7.3f}s"
    if value >= 1e-3:
        return f"{sign}{value * 1e3:7.2f}ms"
    return f"{sign}{value * 1e6:7.1f}us"


def format_report(report: dict, max_depth: int = 6) -> str:
    """Human-readable rendering of a run health report.

    Empty runs and zero-session days render too: an empty per-shard list
    is skipped, and no stragglers or no spans print as such.
    """
    fallback = report["fallback"]
    lines = [
        f"run health report — {report['run_id']} (v{report['version']})",
        f"  wall time        {report['wall_time_s']:.3f} s",
        f"  sessions         {report['sessions']} "
        f"({report['sessions_per_second']:.1f}/s)",
        f"  segments         {report['segments']} "
        f"({report['segments_per_second']:.1f}/s)",
        "  fallback         "
        f"{fallback['total_fallback_sessions']} of "
        f"{fallback['total_batch_sessions']} batched sessions",
    ]
    rss = report["peak_rss_bytes"]
    if rss is not None:
        lines.append(f"  peak RSS         {rss / (1024 * 1024):.1f} MiB")
    lines.append(f"  span coverage    {report['span_coverage'] * 100:.1f}%")
    metrics = report["metrics"]
    counters = metrics["counters"]
    if "allocator.low_lapsley.iterations" in counters:
        lines.append(
            "  low-lapsley      "
            f"{counters['allocator.low_lapsley.iterations']} iterations, "
            f"{counters.get('allocator.low_lapsley.cap_hits', 0)} cap hits"
        )

    if report["per_shard"]:
        lines.append("  per-shard (sessions / segments / wall / fallback):")
        for row in report["per_shard"]:
            lines.append(
                f"    shard {row['shard']:>3}  "
                f"{row['sessions']:>7} / "
                f"{row['segments']:>8} / "
                f"{_format_seconds(row['wall_time_s'])} / "
                f"{row['fallback_sessions']}"
            )

    live = report["live"]
    if live:
        throughput = live["throughput_sps"]
        lines.append(
            "  live monitor     "
            f"interval {live['heartbeat_interval_s']:g}s, "
            f"{live['sessions_done']} sessions heartbeated"
            + (f", {throughput:.1f}/s" if throughput else "")
        )
        for item in live["stragglers"]:
            lines.append(
                f"    straggler shard {item['shard']} — no progress for "
                f"{item['stalled_intervals']} heartbeat intervals "
                f"(day {item['day']}, phase {item['phase']})"
            )
        if not live["stragglers"]:
            lines.append("    stragglers: (none)")

    lines.append("  spans (total / self / count):")

    def walk(node: dict, depth: int) -> None:
        if depth > max_depth:
            return
        children = node["children"]
        self_s = node["total_s"] - sum(c["total_s"] for c in children)
        lines.append(
            f"  {'  ' * depth}{node['name']:<{max(32 - 2 * depth, 8)}} "
            f"{_format_seconds(node['total_s'])} {_format_seconds(self_s)} "
            f"x{node['count']}"
        )
        for child in children:
            walk(child, depth + 1)

    for child in report["spans"]["children"]:
        walk(child, 1)
    if not report["spans"]["children"]:
        lines.append("    (no spans recorded)")

    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:<36} {counters[name]}")
    gauges = metrics["gauges"]
    if gauges:
        lines.append("  gauges (high-water marks):")
        for name in sorted(gauges):
            lines.append(f"    {name:<36} {gauges[name]:g}")
    histograms = metrics["histograms"]
    if histograms:
        lines.append("  histograms (count / mean / max):")
        for name in sorted(histograms):
            h = histograms[name]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"    {name:<36} {h['count']} / {mean:g} / "
                f"{h['max'] if h['max'] is not None else '-'}"
            )
    return "\n".join(lines)


def load_report(path: str | Path) -> dict:
    """Load a report from ``report.json`` **or** a telemetry ``.jsonl`` file.

    Only the first non-blank line is sniffed: when it decodes as a telemetry
    event, the file's last ``run_report`` event is streamed out (profiled
    runs embed the full report there), so a telemetry file of any size costs
    one line of memory.  Anything else is read as one JSON document.  A
    report whose ``version`` is not :data:`REPORT_VERSION` raises a
    ``ValueError`` that names it.
    """
    from repro.obs.telemetry_reader import iter_events, last_event  # deferred: module cycle

    path = Path(path)
    try:
        first = next(iter_events(path), None)
    except ValueError:  # the first line of a pretty-printed document
        first = None
    # A one-line report document decodes too, but it has no event name.
    if first is None or not first.event:
        report = json.loads(path.read_text())
    else:
        event = last_event(path, "run_report")
        if event is None:
            raise SystemExit(
                f"{path}: telemetry has no run_report event (was the run profiled?)"
            )
        report = event.payload
    if report.get("version") != REPORT_VERSION:
        raise ValueError(
            f"{path}: run report version {report.get('version')!r} is not "
            f"{REPORT_VERSION}, the only version this reader accepts"
        )
    return report


def main(argv: list[str] | None = None) -> None:
    """``python -m repro.obs.report <report.json | telemetry.jsonl>``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(
            "usage: python -m repro.obs.report <report.json | telemetry.jsonl>"
        )
    print(format_report(load_report(argv[0])))


if __name__ == "__main__":
    main()
