"""The one telemetry reader: opens, splits, decodes and filters JSONL files.

:mod:`repro.fleet.telemetry` writes the files; everything that reads one
goes through this module's one line scanner and decoder:

* :class:`TelemetryIndex` — a sidecar index (``<file>.idx.json``) of fixed
  event-count chunks with byte offsets and per-chunk event-type counts, so
  readers seek past chunks that cannot contain the event type they want;
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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analytics.logs import LinkUtilizationLog, LogCollection, SessionLog

# contract: OBS-NEUTRAL-004 exempt(read-only telemetry codec; decodes events without touching sim state)
from repro.fleet.telemetry import TelemetryEvent, session_from_payload

# contract: OBS-NEUTRAL-004 exempt(read-only link-sample payload decoder; no sim state)
from repro.net.allocator import LinkUsageSample

# v2: adds file_mtime_ns to the freshness fingerprint (a rewritten file with
# identical byte length used to keep serving the stale sidecar).  Bumping the
# version makes v1 sidecars fail ``load`` and rebuild transparently.
INDEX_VERSION = 2
DEFAULT_EVENTS_PER_CHUNK = 1024

__all__ = [
    "ChunkEntry",
    "TelemetryIndex",
    "default_index_path",
    "load_or_build_index",
    "iter_events",
    "iter_session_logs",
    "last_event",
    "read_run_summary",
    "replay_log_collection",
    "replay_link_utilization",
    "stream_fleet_metrics",
]


@dataclass(frozen=True)
class ChunkEntry:
    """One chunk of consecutive telemetry events."""

    offset: int  # byte offset of the chunk's first line
    length: int  # total bytes covered by the chunk
    num_events: int
    counts: dict = field(default_factory=dict)  # event type -> count

    def as_payload(self) -> dict:
        return {
            "offset": self.offset,
            "length": self.length,
            "num_events": self.num_events,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_payload(cls, raw: dict) -> "ChunkEntry":
        return cls(
            offset=int(raw["offset"]),
            length=int(raw["length"]),
            num_events=int(raw["num_events"]),
            counts={str(k): int(v) for k, v in raw.get("counts", {}).items()},
        )


@dataclass(frozen=True)
class TelemetryIndex:
    """Sidecar index of a telemetry JSONL file.

    The index stores the indexed file's size *and* mtime so staleness is
    detectable: :func:`load_or_build_index` silently rebuilds when the file
    grew, shrank, or was rewritten in place with the same byte length.
    """

    path: str
    file_bytes: int
    num_events: int
    events_per_chunk: int
    event_counts: dict
    chunks: tuple
    file_mtime_ns: int = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, path: str | Path, events_per_chunk: int = DEFAULT_EVENTS_PER_CHUNK
    ) -> "TelemetryIndex":
        """Scan ``path`` once, building chunk entries of ``events_per_chunk``."""
        events_per_chunk = max(int(events_per_chunk), 1)
        chunks: list[ChunkEntry] = []
        totals: dict[str, int] = {}
        chunk_start = 0
        chunk_counts: dict[str, int] = {}
        chunk_events = 0
        for offset, end, parsed in _scan(path):
            if chunk_events == 0:
                chunk_start = offset
            chunk_counts[parsed.event] = chunk_counts.get(parsed.event, 0) + 1
            totals[parsed.event] = totals.get(parsed.event, 0) + 1
            chunk_events += 1
            if chunk_events >= events_per_chunk:
                chunks.append(
                    ChunkEntry(chunk_start, end - chunk_start, chunk_events, chunk_counts)
                )
                chunk_counts = {}
                chunk_events = 0
        if chunk_events:
            chunks.append(
                ChunkEntry(chunk_start, end - chunk_start, chunk_events, chunk_counts)
            )
        stat = Path(path).stat()
        return cls(
            path=str(path),
            file_bytes=stat.st_size,
            num_events=sum(totals.values()),
            events_per_chunk=events_per_chunk,
            event_counts=totals,
            chunks=tuple(chunks),
            file_mtime_ns=stat.st_mtime_ns,
        )

    # -- persistence -------------------------------------------------------

    def save(self, index_path: str | Path | None = None) -> Path:
        target = Path(index_path) if index_path else default_index_path(self.path)
        doc = {
            "kind": "repro-telemetry-index",
            "version": INDEX_VERSION,
            "path": str(self.path),
            "file_bytes": self.file_bytes,
            "file_mtime_ns": self.file_mtime_ns,
            "num_events": self.num_events,
            "events_per_chunk": self.events_per_chunk,
            "event_counts": dict(self.event_counts),
            "chunks": [chunk.as_payload() for chunk in self.chunks],
        }
        target.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, index_path: str | Path) -> "TelemetryIndex":
        doc = json.loads(Path(index_path).read_text(encoding="utf-8"))
        if doc.get("kind") != "repro-telemetry-index":
            raise ValueError(f"{index_path}: not a telemetry index")
        if int(doc.get("version", -1)) != INDEX_VERSION:
            raise ValueError(
                f"{index_path}: index version {doc.get('version')} != {INDEX_VERSION}"
            )
        return cls(
            path=str(doc["path"]),
            file_bytes=int(doc["file_bytes"]),
            num_events=int(doc["num_events"]),
            events_per_chunk=int(doc["events_per_chunk"]),
            event_counts={str(k): int(v) for k, v in doc.get("event_counts", {}).items()},
            chunks=tuple(ChunkEntry.from_payload(raw) for raw in doc.get("chunks", [])),
            file_mtime_ns=int(doc.get("file_mtime_ns", 0)),
        )

    # -- queries -----------------------------------------------------------

    def count(self, event: str) -> int:
        return self.event_counts.get(event, 0)

    def chunks_with(self, event: str) -> Iterator[ChunkEntry]:
        """Only the chunks that contain at least one ``event``."""
        for chunk in self.chunks:
            if chunk.counts.get(event, 0):
                yield chunk


def default_index_path(path: str | Path) -> Path:
    return Path(str(path) + ".idx.json")


def load_or_build_index(
    path: str | Path,
    *,
    events_per_chunk: int = DEFAULT_EVENTS_PER_CHUNK,
    save: bool = True,
) -> TelemetryIndex:
    """Load the sidecar index if present and fresh; otherwise (re)build it."""
    index_path = default_index_path(path)
    if index_path.exists():
        try:
            index = TelemetryIndex.load(index_path)
            stat = Path(path).stat()
            # Size alone misses an in-place rewrite of identical length, so
            # freshness is (size, mtime_ns) — both must match.
            if (
                index.file_bytes == stat.st_size
                and index.file_mtime_ns == stat.st_mtime_ns
            ):
                return index
        except (ValueError, KeyError, json.JSONDecodeError):
            pass  # corrupt or stale: rebuild below
    index = TelemetryIndex.build(path, events_per_chunk)
    if save:
        index.save(index_path)
    return index


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


def _scan(
    path: str | Path, chunks: Iterable[ChunkEntry] | None = None
) -> Iterator[tuple[int, int, TelemetryEvent]]:
    """``(offset, end, event)`` per non-blank line of the file or of ``chunks``.

    Lines are read one at a time: memory stays O(longest line).
    """
    ranges = [(0, None)] if chunks is None else [
        (chunk.offset, chunk.offset + chunk.length) for chunk in chunks
    ]
    with Path(path).open("rb") as handle:
        for offset, stop in ranges:
            handle.seek(offset)
            while stop is None or offset < stop:
                raw = handle.readline()
                if not raw:
                    break
                end = offset + len(raw)
                if raw.strip():
                    yield offset, end, _decode(path, offset, raw)
                offset = end


def iter_events(
    path: str | Path,
    *,
    event: str | None = None,
    index: TelemetryIndex | None = None,
) -> Iterator[TelemetryEvent]:
    """Stream events in file order, optionally filtered by event type.

    With an index and an ``event`` filter, chunks containing none of that
    event type are skipped entirely (seek, don't scan) — on a fleet
    telemetry file, asking for the single ``run_end`` event reads a few
    chunks instead of gigabytes of ``session`` payloads.
    """
    chunks = None
    if index is not None and event is not None:
        chunks = index.chunks_with(event)
    for _offset, _end, parsed in _scan(path, chunks):
        if event is None or parsed.event == event:
            yield parsed


def iter_session_logs(
    path: str | Path, *, index: TelemetryIndex | None = None
) -> Iterator[SessionLog]:
    """Stream :class:`~repro.analytics.logs.SessionLog` objects one at a time."""
    for parsed in iter_events(path, event="session", index=index):
        yield session_from_payload(parsed.user_id, parsed.payload)


def last_event(
    path: str | Path,
    event: str,
    *,
    run_id: str | None = None,
    index: TelemetryIndex | None = None,
) -> TelemetryEvent | None:
    """The last ``event`` (of run ``run_id``, if given), or ``None``.

    Serves ``run_end`` (:func:`read_run_summary`) and ``run_report``
    (:func:`repro.obs.report.load_report`).
    """
    found: TelemetryEvent | None = None
    for parsed in iter_events(path, event=event, index=index):
        if run_id is None or parsed.run_id == run_id:
            found = parsed
    return found


def read_run_summary(
    path: str | Path,
    *,
    run_id: str | None = None,
    index: TelemetryIndex | None = None,
) -> dict:
    """The ``run_end`` payload of a run recorded in a telemetry file.

    This is where the fleet-level metrics *and* the backend fallback
    counters surface on replay.  ``run_id`` selects one run of a multi-run
    file (a longitudinal campaign's day stream); by default the last
    ``run_end`` wins.
    """
    event = last_event(path, "run_end", run_id=run_id, index=index)
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


def stream_fleet_metrics(path: str | Path, *, index: TelemetryIndex | None = None):
    """``fleet_metrics`` over the file's streamed sessions (bit-exact vs live)."""
    from repro.fleet.orchestrator import fleet_metrics  # heavy import, deferred  # contract: OBS-NEUTRAL-004 exempt(result accumulator only; aggregates replayed read-only)

    return fleet_metrics(iter_session_logs(path, index=index))
