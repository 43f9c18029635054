"""Export run-report span trees as Chrome trace JSON (Perfetto-loadable).

Usage::

    python -m repro.obs.trace_export report.json -o trace.json
    python -m repro.obs.trace_export fleet.jsonl          # telemetry input

Open the output in https://ui.perfetto.dev (or chrome://tracing): each span
becomes a complete ("X") slice whose duration is the span's aggregate wall
time, nested exactly like the report's span tree.

The obs span tree stores *aggregates* (total seconds, call count) rather
than individual begin/end timestamps, so the exported timeline is a
**synthetic proportional layout**: children are laid out sequentially from
their parent's start, each sized by its total wall time, and the gap left at
the parent's end is the parent's self time.  Relative widths — where the
run spent its time — are faithful; absolute positions are not a replay of
real wall-clock interleaving.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.report import load_report

__all__ = ["span_tree_to_events", "report_to_chrome_trace", "export_trace", "main"]


def span_tree_to_events(spans: dict, *, pid: int = 1, tid: int = 1) -> list[dict]:
    """Flatten a serialised span tree into Chrome trace events (µs units)."""
    events: list[dict] = []

    def walk(node: dict, start_us: float) -> None:
        children = node.get("children", [])
        total_s = float(node.get("total_s", 0.0))
        self_s = total_s - sum(float(c.get("total_s", 0.0)) for c in children)
        events.append(
            {
                "name": node.get("name", "?"),
                "ph": "X",
                "cat": "span",
                "ts": round(start_us, 3),
                "dur": round(max(total_s, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "count": node.get("count", 0),
                    "total_s": total_s,
                    "self_s": self_s,
                },
            }
        )
        cursor = start_us
        for child in children:
            walk(child, cursor)
            cursor += float(child.get("total_s", 0.0)) * 1e6

    cursor = 0.0
    for child in spans.get("children", []):
        walk(child, cursor)
        cursor += float(child.get("total_s", 0.0)) * 1e6
    return events


def report_to_chrome_trace(report: dict) -> dict:
    """Full Chrome trace document for one run health report."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": f"repro fleet — {report['run_id']}"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "span tree (aggregate, proportional layout)"},
        },
    ]
    events.extend(span_tree_to_events(report["spans"]))
    counters = report["metrics"]["counters"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run_id": report["run_id"],
            "report_version": report["version"],
            "sessions": report["sessions"],
            "segments": report["segments"],
            "wall_time_s": report["wall_time_s"],
            "counters": {name: counters[name] for name in sorted(counters)},
            "layout": "synthetic-proportional (aggregate span tree, not a replay)",
        },
    }


def export_trace(report_path: str | Path, out_path: str | Path | None = None) -> Path:
    """Convert a report (or telemetry) file; returns the trace path."""
    report = load_report(report_path)
    trace = report_to_chrome_trace(report)
    if out_path is None:
        source = Path(report_path)
        out_path = source.with_name(source.stem + "_trace.json")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return out_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace_export",
        description="Export a run report's span tree as Chrome/Perfetto trace JSON.",
    )
    parser.add_argument("report", help="report.json or profiled telemetry .jsonl")
    parser.add_argument("-o", "--out", default=None, help="output path (default: <stem>_trace.json)")
    args = parser.parse_args(argv)
    out = export_trace(args.report, args.out)
    doc = json.loads(out.read_text(encoding="utf-8"))
    slices = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
    print(f"wrote {out} ({slices} span slices) — open in https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
