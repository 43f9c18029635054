"""Structured JSONL telemetry for fleet runs.

Every line of a telemetry file is one event record::

    {"run_id": ..., "shard": ..., "user_id": ..., "event": ..., "payload": {...}}

following the structured-trace-log convention of large-scale simulators: one
event per line, self-describing and replayable.  A writer owns one run's file
(opening a path truncates it), and events are only ever appended during the
run.  Event types emitted by the orchestrator:

``run_start``
    One per run; payload carries the fleet configuration summary.
``session``
    One per playback session; payload carries the full session log (per-segment
    records included) so a telemetry file can be replayed into a
    :class:`~repro.analytics.logs.LogCollection` that is *exactly* equal to the
    in-memory one — floats survive the JSON roundtrip bit-for-bit.
``shard_summary``
    One per shard; payload carries the shard's session/segment counters.
``link_utilization``
    Networked runs only: one per edge link per simulation slot, carrying the
    link's usable capacity, the number of sessions actively downloading, and
    their total demand and allocation — the raw material for congestion
    analytics (:class:`~repro.analytics.logs.LinkUtilizationLog`).
``run_report``
    Profiled runs only (observability enabled): one per run, carrying the
    run health report of :func:`repro.obs.build_run_report` — merged span
    tree, metrics snapshot, throughput and peak RSS.
``run_end``
    One per run; payload carries the fleet-level metrics plus the backend
    fallback counters (``last/total_fallback_sessions``,
    ``total_batch_sessions``).

Every line is encoded by one shared :class:`json.JSONEncoder`
(:data:`_ENCODER`) and reaches the file as bytes through
:meth:`TelemetryWriter.write_raw`: inline shards, pooled shard blobs and
single run-level events take the same path, so the two fleet modes write
identical files on every platform.

This module is the write side and the per-event codec only.  Reading a
file — splitting it into lines, decoding them, filtering and replaying the
events into the analytics layer — is :mod:`repro.obs.telemetry_reader`'s
job, so every §2-style aggregation works on a telemetry file exactly as it
does on live simulation output.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.analytics.logs import SessionLog
from repro.net.allocator import LinkUsageSample
from repro.sim.session import SEGMENT_DTYPE, SEGMENT_FIELDS, PlaybackTrace


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured telemetry record."""

    run_id: str
    shard: int
    user_id: str
    event: str
    payload: dict

    def to_json(self) -> str:
        """Single-line JSON form of the event."""
        return _ENCODER.encode(
            {
                "run_id": self.run_id,
                "shard": self.shard,
                "user_id": self.user_id,
                "event": self.event,
                "payload": self.payload,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        """Parse one JSONL line; a missing envelope field takes its empty value."""
        raw = json.loads(line)
        return cls(
            run_id=str(raw.get("run_id", "")),
            shard=int(raw.get("shard", 0)),
            user_id=str(raw.get("user_id", "")),
            event=str(raw.get("event", "")),
            payload=dict(raw.get("payload", {})),
        )


def _to_builtin(value):
    """JSON fallback for numpy scalars/arrays."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value)!r}")


#: The one encoder behind every telemetry line.  It is configured exactly as
#: ``json.dumps(obj, default=_to_builtin)`` configures its own, so the bytes
#: are the same, without building a new encoder per event.
# contract: FLEET-TELEMETRY-011
_ENCODER = json.JSONEncoder(default=_to_builtin)


class TelemetryWriter:
    """JSONL event writer for one run (usable as a context manager).

    Opening a path truncates it — one telemetry file describes exactly one
    run, which is what keeps a replayed file equal to the live run's
    collection.  ``append=True`` keeps existing events instead: that is
    how a *resumed* longitudinal campaign continues its ``campaign.jsonl``
    without destroying the pre-crash decision history.
    """

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Binary mode: no locale encoding and no newline translation, so the
        # file holds exactly the bytes of :func:`encode_events` — the bytes
        # the pool's blobs and the reader's byte offsets assume.
        self._handle = self.path.open("ab" if append else "wb")
        self.events_written = 0

    def emit(self, event: TelemetryEvent) -> None:
        """Write one event as a JSON line."""
        self.write_raw(encode_events((event,)))

    def emit_many(self, events: Iterable[TelemetryEvent]) -> None:
        """Write several events in order, as ``encode_events(events)``.

        One event at a time: a shard's whole blob held in memory would
        raise peak RSS by about twice its size, and it encodes no faster.
        """
        for event in events:
            self.emit(event)

    def write_raw(self, data: bytes) -> None:
        """Append pre-encoded JSONL bytes (newline-terminated lines).

        Every event reaches the file here.  :meth:`emit` and
        :meth:`emit_many` encode with :func:`encode_events`; a pool worker
        encodes its shard's events once (:func:`encode_shard_events`) and
        the parent hands the blob over as is, so both fleet modes write the
        same bytes and replay readers cannot tell them apart.
        """
        if not data:
            return
        if not data.endswith(b"\n"):
            raise ValueError("raw telemetry blobs must be newline-terminated")
        self._handle.write(data)
        self.events_written += data.count(b"\n")

    def close(self) -> None:
        """Flush and close the file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Session (de)serialisation
# --------------------------------------------------------------------------- #
def session_payload(log: SessionLog) -> dict:
    """Full JSON payload of one session log (replayable without loss).

    Each record object is a dict of one row of the trace's segment array,
    keyed by the ``SegmentRecord`` fields in field order.  ``tolist`` turns
    the row into Python ``int``, ``float`` and ``bool`` values, so the bytes
    equal those of ``dataclasses.asdict`` on the record objects.
    """
    trace = log.trace
    return {
        "day": int(log.day),
        "session_index": int(log.session_index),
        "mean_bandwidth_kbps": float(log.mean_bandwidth_kbps),
        "video_duration": float(trace.video_duration),
        "segment_duration": float(trace.segment_duration),
        "trace_name": str(trace.trace_name),
        "exited_early": bool(trace.exited_early),
        "records": [
            dict(zip(SEGMENT_FIELDS, row)) for row in trace.segments.tolist()
        ],
    }


_SEGMENT_KEYS = frozenset(SEGMENT_FIELDS)
_segment_values = operator.itemgetter(*SEGMENT_FIELDS)


def session_from_payload(user_id: str, payload: dict) -> SessionLog:
    """Inverse of :func:`session_payload`.  As ``SegmentRecord(**raw)`` did,
    a record with a missing or an unknown key raises ``TypeError``."""
    records = payload["records"]
    if any(raw.keys() != _SEGMENT_KEYS for raw in records):
        raise TypeError("segment record keys differ from the SegmentRecord fields")
    trace = PlaybackTrace(
        user_id=user_id,
        video_duration=float(payload["video_duration"]),
        segment_duration=float(payload["segment_duration"]),
        trace_name=str(payload["trace_name"]),
        segments=np.array(list(map(_segment_values, records)), dtype=SEGMENT_DTYPE),
        exited_early=bool(payload["exited_early"]),
    )
    return SessionLog(
        user_id=user_id,
        day=int(payload["day"]),
        session_index=int(payload["session_index"]),
        trace=trace,
        mean_bandwidth_kbps=float(payload["mean_bandwidth_kbps"]),
    )


def session_event(run_id: str, shard: int, log: SessionLog) -> TelemetryEvent:
    """Build the ``session`` event for one session log."""
    return TelemetryEvent(
        run_id=run_id,
        shard=shard,
        user_id=log.user_id,
        event="session",
        payload=session_payload(log),
    )


def link_utilization_event(
    run_id: str, shard: int, sample: LinkUsageSample
) -> TelemetryEvent:
    """Build the ``link_utilization`` event for one per-slot link sample."""
    return TelemetryEvent(
        run_id=run_id,
        shard=shard,
        user_id="",
        event="link_utilization",
        payload=sample.as_payload(),
    )


def shard_summary_event(run_id: str, output) -> TelemetryEvent:
    """Build the ``shard_summary`` event for one shard output."""
    return TelemetryEvent(
        run_id=run_id,
        shard=output.shard_index,
        user_id="",
        event="shard_summary",
        payload={
            "num_sessions": len(output.sessions),
            "num_segments": output.num_segments,
            "wall_time_s": output.wall_time_s,
            "fallback_sessions": output.fallback_sessions,
            "batch_sessions": len(output.sessions),
        },
    )


def iter_shard_events(run_id: str, output) -> Iterator[TelemetryEvent]:
    """All telemetry events of one shard output, in canonical order.

    ``output`` is a :class:`~repro.fleet.orchestrator.ShardOutput` (duck
    typed to avoid a module cycle).  Both telemetry paths run through this
    generator — the orchestrator writing inline results, and pool workers
    pre-encoding their shard's blob — which is what makes pooled telemetry
    byte-identical to inline telemetry.
    """
    for log in output.sessions:
        yield session_event(run_id, output.shard_index, log)
    for sample in output.link_usage:
        yield link_utilization_event(run_id, output.shard_index, sample)
    yield shard_summary_event(run_id, output)


def encode_events(events: Iterable[TelemetryEvent]) -> bytes:
    """The JSONL bytes of ``events``, one newline-terminated line each.

    The one encoding step of every telemetry path: :class:`TelemetryWriter`
    writes exactly these bytes, whether it encodes the events itself or a
    pool worker did.
    """
    return "".join(event.to_json() + "\n" for event in events).encode("utf-8")


def encode_shard_events(run_id: str, output) -> bytes:
    """One shard's telemetry as a raw JSONL blob (the pool's second result frame)."""
    return encode_events(iter_shard_events(run_id, output))
