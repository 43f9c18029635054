"""Render live health of a running fleet/campaign from its status file.

Usage::

    python -m repro.obs.monitor status.json             # live TTY view
    python -m repro.obs.monitor status.json --json      # one JSON snapshot
    python -m repro.obs.monitor status.json --json --samples 5 --interval 1

The status file is written by :class:`repro.obs.live.LiveRun` (see the
``--live-status`` flag on ``examples/fleet_day.py``, ``examples/
longitudinal.py`` and ``repro.experiments.runner``).  The owning process
rewrites it atomically on every watchdog tick, on every run-header change
and at close, always with the whole :meth:`repro.obs.live.RunStatus.
as_payload`; the last write is the post-mortem view.  The monitor only
reads that file.

A file that still says ``running`` after its owner's process is gone (the
run was killed and never closed it) reads as ``vanished``: a terminal state,
so a monitor following a killed run returns instead of waiting forever.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

TERMINAL_STATES = ("done", "failed", "vanished")


def load_status_file(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("kind") != "live-status":
        raise ValueError(f"{path}: not a repro live status file")
    return doc


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by another user
    return True


def snapshot(status_path: str | Path) -> dict:
    """One JSON-ready health snapshot: the status file's payload, with a
    ``running`` state whose owning process no longer exists reported as
    ``vanished``."""
    payload = load_status_file(status_path)
    if payload["state"] == "running" and not _process_exists(payload["pid"]):
        payload["state"] = "vanished"
    return payload


# ---------------------------------------------------------------------------
# TTY rendering
# ---------------------------------------------------------------------------


def _bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "·" * width if done <= 0 else "?" * width
    filled = max(0, min(width, round(width * done / total)))
    return "█" * filled + "░" * (width - filled)


def _fmt_rss(rss_bytes: int) -> str:
    if rss_bytes <= 0:
        return "-"
    return f"{rss_bytes / (1024 * 1024):.0f}M"


def _fmt_eta(eta_s) -> str:
    if eta_s is None:
        return "-"
    if eta_s >= 90:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def render(payload: dict) -> str:
    lines: list[str] = []
    totals = payload.get("totals", {})
    day = payload.get("day", -1)
    days_total = payload.get("days_total", -1)
    day_part = ""
    if isinstance(day, int) and day >= 0:
        day_part = f"  day {day}" + (f"/{days_total}" if isinstance(days_total, int) and days_total > 0 else "")
    throughput = totals.get("throughput_sps")
    lines.append(
        f"run {payload.get('run_id', '?')}  [{payload.get('state', '?')}]{day_part}  "
        f"sessions {totals.get('sessions_done', 0)}"
        + (f"  {throughput:.1f}/s" if throughput else "")
    )
    dau = payload.get("dau")
    roster = payload.get("roster")
    if isinstance(dau, int) and dau >= 0:
        roster_part = f" of {roster}" if isinstance(roster, int) and roster >= 0 else ""
        lines.append(f"dau {dau}{roster_part}")
    for shard in payload.get("shards", []):
        marker = "!!" if shard.get("flagged") else "  "
        done = shard.get("day_sessions", 0)
        total = shard.get("day_total", -1)
        progress = f"{done}/{total}" if total and total > 0 else f"{done}"
        state = shard.get("state", "?")
        phase = shard.get("phase") or ""
        span = shard.get("span") or ""
        detail = phase if not span else (span if span == phase else f"{phase} {span}")
        lines.append(
            f"{marker} shard {shard.get('shard', '?'):>3} [{_bar(done, total)}] "
            f"{progress:>11}  {state:<7} eta {_fmt_eta(shard.get('eta_s')):>6} "
            f"rss {_fmt_rss(shard.get('rss_bytes', 0)):>6}  {detail}"
        )
        if shard.get("error"):
            lines.append(f"     └─ error: {shard['error']}")
    stragglers = payload.get("stragglers", [])
    if stragglers:
        lines.append(f"stragglers: shards {sorted(stragglers)} (no progress — flagged by watchdog)")
    if payload.get("last_error"):
        lines.append(f"last error: {payload['last_error']}")
    return "\n".join(lines)


def follow(status_path: str | Path, *, interval: float, timeout: float | None, stream=None) -> int:
    """Interactive loop: redraw until the run reaches a terminal state."""
    stream = stream or sys.stdout
    deadline = None if timeout is None else time.monotonic() + timeout
    previous_lines = 0
    while True:
        payload = snapshot(status_path)
        text = render(payload)
        if previous_lines and stream.isatty():
            stream.write(f"\x1b[{previous_lines}F\x1b[J")
        stream.write(text + "\n")
        stream.flush()
        previous_lines = text.count("\n") + 1
        if payload.get("state") in TERMINAL_STATES:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            stream.write("monitor: timeout reached, run still in progress\n")
            return 0
        time.sleep(interval)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.monitor",
        description="Attach to a running fleet/campaign and render live health.",
    )
    parser.add_argument("status_file", help="status JSON written by LiveRun (--live-status)")
    parser.add_argument("--json", action="store_true", help="emit JSON snapshot(s) instead of a TTY view")
    parser.add_argument("--samples", type=int, default=1, help="number of JSON snapshots to emit (JSONL when >1)")
    parser.add_argument("--interval", type=float, default=1.0, help="seconds between snapshots/redraws")
    parser.add_argument("--timeout", type=float, default=None, help="stop following after this many seconds")
    args = parser.parse_args(argv)

    if not args.json:
        return follow(args.status_file, interval=args.interval, timeout=args.timeout)

    samples = max(args.samples, 1)
    for i in range(samples):
        payload = snapshot(args.status_file)
        print(json.dumps(payload))
        if payload.get("state") in TERMINAL_STATES:
            break
        if i + 1 < samples:
            time.sleep(args.interval)
    return 0


if __name__ == "__main__":
    sys.exit(main())
