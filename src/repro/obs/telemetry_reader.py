"""The one telemetry reader: opens, splits, decodes and filters JSONL files.

:mod:`repro.fleet.telemetry` writes the files; everything that reads one
goes through this module's one line scanner and decoder, which walk the
whole file once per read:

* :func:`iter_events` / :func:`iter_session_logs` — streaming iterators that
  hold one event (one session) at a time;
* :func:`last_event` / :func:`read_run_summary` — the last event of a type;
* :func:`replay_log_collection` / :func:`replay_link_utilization` /
  :func:`stream_fleet_metrics` — replay into the analytics layer.

Session aggregates take any iterable of session logs, so
``fleet_metrics(iter_session_logs(path))`` equals the live run's metrics
bit-for-bit in O(one session) memory (pinned by
tests/test_telemetry_reader.py).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.analytics.logs import LinkUtilizationLog, LogCollection, SessionLog

# contract: OBS-NEUTRAL-004 exempt(read-only telemetry codec; decodes events without touching sim state)
from repro.fleet.telemetry import TelemetryEvent, session_from_payload

# contract: OBS-NEUTRAL-004 exempt(read-only link-sample payload decoder; no sim state)
from repro.net.allocator import LinkUsageSample

__all__ = [
    "iter_events",
    "iter_session_logs",
    "last_event",
    "read_run_summary",
    "replay_log_collection",
    "replay_link_utilization",
    "stream_fleet_metrics",
]


# ---------------------------------------------------------------------------
# The one line scanner, decoder and event iterator
# ---------------------------------------------------------------------------


# contract: OBS-READER-012
def _decode(path: str | Path, offset: int, line: bytes) -> TelemetryEvent:
    """The one line decoder; a torn or corrupt line names its file and offset."""
    try:
        return TelemetryEvent.from_json(line.decode("utf-8"))
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{path}: unreadable telemetry line at byte offset {offset} "
            f"(torn or corrupt): {exc}"
        ) from exc


def _scan(path: str | Path) -> Iterator[TelemetryEvent]:
    """Every non-blank line of the file, decoded, in file order.

    Lines are read one at a time: memory stays O(longest line).  The
    running byte offset only names a torn line in :func:`_decode`'s error.
    """
    offset = 0
    with Path(path).open("rb") as handle:
        for raw in handle:
            if raw.strip():
                yield _decode(path, offset, raw)
            offset += len(raw)


def iter_events(path: str | Path, *, event: str | None = None) -> Iterator[TelemetryEvent]:
    """Stream events in file order, optionally filtered by event type."""
    for parsed in _scan(path):
        if event is None or parsed.event == event:
            yield parsed


def iter_session_logs(path: str | Path) -> Iterator[SessionLog]:
    """Stream :class:`~repro.analytics.logs.SessionLog` objects one at a time."""
    for parsed in iter_events(path, event="session"):
        yield session_from_payload(parsed.user_id, parsed.payload)


def last_event(
    path: str | Path,
    event: str,
    *,
    run_id: str | None = None,
) -> TelemetryEvent | None:
    """The last ``event`` (of run ``run_id``, if given), or ``None``.

    Serves ``run_end`` (:func:`read_run_summary`) and ``run_report``
    (:func:`repro.obs.report.load_report`).
    """
    found: TelemetryEvent | None = None
    for parsed in iter_events(path, event=event):
        if run_id is None or parsed.run_id == run_id:
            found = parsed
    return found


def read_run_summary(path: str | Path, *, run_id: str | None = None) -> dict:
    """The ``run_end`` payload of a run recorded in a telemetry file.

    This is where the fleet-level metrics *and* the backend fallback
    counters surface on replay.  ``run_id`` selects one run of a multi-run
    file (a longitudinal campaign's day stream); by default the last
    ``run_end`` wins.
    """
    event = last_event(path, "run_end", run_id=run_id)
    if event is None:
        raise ValueError(f"no run_end event found in {path}")
    return event.payload


# ---------------------------------------------------------------------------
# Replay into the analytics layer
# ---------------------------------------------------------------------------


def replay_log_collection(path: str | Path) -> LogCollection:
    """Load a telemetry file back into a :class:`LogCollection`.

    The result is value-equal to the live run's collection: every float in a
    segment record survives the JSON write→read roundtrip exactly, so all
    aggregations (exit rate by stall bin, watch time by QoS, …) match the
    in-memory ones bit-for-bit.

    A telemetry file with events but **no** ``session`` events replays into an
    empty collection — that is what a zero-arrival day of a longitudinal
    campaign writes (``run_start``/``run_end`` only).  A file with no events
    at all is rejected: it is not fleet telemetry.
    """
    sessions: list[SessionLog] = []
    saw_event = False
    for parsed in iter_events(path):
        saw_event = True
        if parsed.event == "session":
            sessions.append(session_from_payload(parsed.user_id, parsed.payload))
    if not saw_event:
        raise ValueError(f"no telemetry events found in {path}")
    return LogCollection(sessions)


def replay_link_utilization(path: str | Path) -> LinkUtilizationLog:
    """Load a networked run's telemetry back into a link-utilization log.

    Like :func:`replay_log_collection`, the result is value-equal to the
    live run's ``FleetResult.link_utilization()``: every float survives the
    JSON roundtrip exactly.
    """
    samples = [
        LinkUsageSample.from_payload(parsed.payload)
        for parsed in iter_events(path, event="link_utilization")
    ]
    if not samples:
        raise ValueError(f"no link_utilization events found in {path}")
    return LinkUtilizationLog(samples)


def stream_fleet_metrics(path: str | Path):
    """``fleet_metrics`` over the file's streamed sessions (bit-exact vs live)."""
    from repro.fleet.orchestrator import fleet_metrics  # heavy import, deferred  # contract: OBS-NEUTRAL-004 exempt(result accumulator only; aggregates replayed read-only)

    return fleet_metrics(iter_session_logs(path))
