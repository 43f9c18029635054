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

A shard's events are encoded by :func:`iter_shard_chunks`, which both fleet
modes run: an inline run writes each chunk as it is made, a pool worker
joins them into one blob (:func:`encode_shard_events`).  Its session events
are written column by column, a few hundred segment rows at a time, and
every segment and session value takes its JSON text from one formatter
(:func:`_json_texts`), which formats each distinct value of a chunk's
columns once, exactly as ``json.dumps`` writes it.  Every other line (link samples, shard
summaries, run-level events and the per-event path of
:meth:`TelemetryWriter.emit`) is encoded by one shared
:class:`json.JSONEncoder` (:data:`_ENCODER`).  All bytes reach the file
through :meth:`TelemetryWriter.write_raw`, so the two fleet modes write
identical files on every platform.

This module is the write side and the codec only.  Reading a
file — splitting it into lines, decoding them, filtering and replaying the
events into the analytics layer — is :mod:`repro.obs.telemetry_reader`'s
job, so every §2-style aggregation works on a telemetry file exactly as it
does on live simulation output.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro import obs
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
        # file holds exactly the encoded bytes — the bytes the pool's blobs
        # and the reader's byte offsets assume.
        self._handle = self.path.open("ab" if append else "wb")
        self.events_written = 0

    def emit(self, event: TelemetryEvent) -> None:
        """Write one event as a JSON line."""
        self.write_raw(encode_events((event,)))

    def emit_many(self, events: Iterable[TelemetryEvent]) -> None:
        """Write several events in order, as ``encode_events(events)``.

        The per-event path, one event at a time, for any events.  A shard's
        events are written faster by :func:`iter_shard_chunks`, with the
        same bytes.
        """
        for event in events:
            self.emit(event)

    def write_raw(self, data: bytes) -> None:
        """Append pre-encoded JSONL bytes (newline-terminated lines).

        Every event reaches the file here.  :meth:`emit` and
        :meth:`emit_many` encode with :func:`encode_events`; an inline
        shard writes each chunk of :func:`iter_shard_chunks` as it is made,
        and a pool worker joins the same chunks into one blob
        (:func:`encode_shard_events`) that the parent hands over as is, so
        both fleet modes write the same bytes and replay readers cannot
        tell them apart.
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
    typed to avoid a module cycle).  This is the per-event form of a
    shard's telemetry: :func:`iter_shard_chunks`, which both fleet modes
    run, writes the bytes of ``encode_events`` over these events.
    """
    for log in output.sessions:
        yield session_event(run_id, output.shard_index, log)
    for sample in output.link_usage:
        yield link_utilization_event(run_id, output.shard_index, sample)
    yield shard_summary_event(run_id, output)


def encode_events(events: Iterable[TelemetryEvent]) -> bytes:
    """The JSONL bytes of ``events``, one newline-terminated line each.

    The per-event encoding step: :meth:`TelemetryWriter.emit` and
    :meth:`~TelemetryWriter.emit_many` write exactly these bytes, and
    :func:`iter_shard_chunks` writes a shard's link samples and summary
    through it.
    """
    return "".join(event.to_json() + "\n" for event in events).encode("utf-8")


# --------------------------------------------------------------------------- #
# Column encoder: a shard's events, chunk by chunk
# --------------------------------------------------------------------------- #
#: Segment rows per chunk of session events.  A chunk holds whole sessions
#: and closes once it reaches this many rows.  Its working set, about
#: 1.2 kB a row (pieces, distinct value texts, joined text), adds to an
#: inline run's peak RSS: 256 rows add about 0.3 MB, 1,024 rows encode a
#: shard about 10% faster but add about 1.2 MB.
_CHUNK_ROWS = 256

_BOOL_TEXTS = np.array(["false", "true"], dtype=object)


# contract: FLEET-TELEMETRY-011
def _json_texts(values: np.ndarray) -> np.ndarray:
    """The JSON text of every value in ``values``, as an object array of
    its shape: the one place that formats a session event's values.

    Float, int and bool arrays take the texts ``json.dumps`` writes for
    the Python values of their items; each distinct float bit pattern or
    int is formatted once, so ``-0.0`` and ``0.0`` (and any two NaNs) are
    looked up apart.  An object array holds strings, each escaped to
    ASCII as ``json.dumps`` escapes it.
    """
    kind = values.dtype.kind
    if kind == "O":
        texts = list(map(encode_basestring_ascii, values.ravel().tolist()))
        return np.array(texts, dtype=object).reshape(values.shape)
    if kind == "b":
        return _BOOL_TEXTS[values.astype(np.intp)]
    if kind == "f":
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        floats = distinct.view(np.float64)
        # float.__repr__ is what json's C encoder writes for a finite float.
        texts = list(map(float.__repr__, floats.tolist()))
        for index in np.flatnonzero(~np.isfinite(floats)).tolist():
            texts[index] = _ENCODER.encode(float(floats[index]))
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        texts = list(map(str, distinct.tolist()))
    return np.array(texts, dtype=object)[inverse.reshape(values.shape)]


#: One segment row's text pieces: each field's key, then a slot for its value.
_ROW_KEYS = [
    ("{" if index == 0 else ", ") + f'"{name}": '
    for index, name in enumerate(SEGMENT_FIELDS)
]
_ROW_WIDTH = 2 * len(SEGMENT_FIELDS) + 1
_ROW_TEMPLATE = [piece for key in _ROW_KEYS for piece in (key, None)] + ["}, "]
#: Segment field positions, grouped by the dtype kind they are formatted as.
_FIELD_GROUPS = [
    [index for index, name in enumerate(SEGMENT_FIELDS)
     if SEGMENT_DTYPE[name].kind == kind]
    for kind in "fib"
]


def _session_lines(envelope: str, logs: list[SessionLog]) -> str:
    """The ``session`` lines of ``logs``, whose envelope text up to the
    user id is ``envelope``: the text ``encode_events`` writes for them."""
    traces = [log.trace for log in logs]
    # One copy through bytes: np.concatenate re-promotes the structured
    # dtype for every input array, which takes longer than the formatting.
    rows = np.frombuffer(
        b"".join([trace.segments.tobytes() for trace in traces]), SEGMENT_DTYPE
    )
    stops = np.cumsum([len(trace.segments) for trace in traces]).tolist()
    obs.counter_add("telemetry.session_rows", len(rows))

    parts = _ROW_TEMPLATE * len(rows)
    for group in _FIELD_GROUPS:
        columns = np.stack([rows[SEGMENT_FIELDS[index]] for index in group])
        for index, texts in zip(group, _json_texts(columns).tolist()):
            parts[2 * index + 1 :: _ROW_WIDTH] = texts

    users = _json_texts(np.array([log.user_id for log in logs], dtype=object))
    names = _json_texts(
        np.array([str(trace.trace_name) for trace in traces], dtype=object)
    )
    counters = _json_texts(
        np.array([(int(log.day), int(log.session_index)) for log in logs],
                 dtype=np.int64)
    )
    floats = _json_texts(
        np.array(
            [
                (float(log.mean_bandwidth_kbps), float(trace.video_duration),
                 float(trace.segment_duration))
                for log, trace in zip(logs, traces)
            ],
            dtype=np.float64,
        )
    )
    exited = _json_texts(np.array([bool(trace.exited_early) for trace in traces]))

    # Each session's head goes in front of its first row's opening brace
    # (with any row-less sessions before it), and its last row closes it.
    pending: list[str] = []
    start = 0
    for user, (day, index), (mean, video, segment), name, early, stop in zip(
        users.tolist(), counters.tolist(), floats.tolist(), names.tolist(),
        exited.tolist(), stops,
    ):
        pending.append(
            f'{envelope}{user}, "event": "session", "payload": {{"day": {day}, '
            f'"session_index": {index}, "mean_bandwidth_kbps": {mean}, '
            f'"video_duration": {video}, "segment_duration": {segment}, '
            f'"trace_name": {name}, "exited_early": {early}, "records": ['
        )
        if stop == start:
            pending.append("]}}\n")
            continue
        pending.append(parts[start * _ROW_WIDTH])
        parts[start * _ROW_WIDTH] = "".join(pending)
        parts[stop * _ROW_WIDTH - 1] = "}]}}\n"
        pending = []
        start = stop
    parts += pending
    return "".join(parts)


def iter_shard_chunks(run_id: str, output) -> Iterator[bytes]:
    """One shard's telemetry as newline-terminated JSONL chunks, in the
    order of :func:`iter_shard_events` and with its bytes.

    The session events come in chunks of whole sessions, each closed once
    it holds :data:`_CHUNK_ROWS` segment rows; the link samples and the
    shard summary follow one event per chunk, encoded by :data:`_ENCODER`.
    """
    header = _json_texts(np.array([run_id], dtype=object))[0]
    shard = _json_texts(np.array([int(output.shard_index)], dtype=np.int64))[0]
    envelope = f'{{"run_id": {header}, "shard": {shard}, "user_id": '
    chunk: list[SessionLog] = []
    rows = 0
    for log in output.sessions:
        chunk.append(log)
        rows += len(log.trace.segments)
        if rows >= _CHUNK_ROWS:
            # Encoded here, once the pieces of the text have been freed.
            yield _session_lines(envelope, chunk).encode("ascii")
            chunk, rows = [], 0
    if chunk:
        yield _session_lines(envelope, chunk).encode("ascii")
    # One event at a time, as emit_many writes them: a networked shard has
    # a sample per link and slot, too many to hold as events at once.
    for sample in output.link_usage:
        yield encode_events(
            (link_utilization_event(run_id, output.shard_index, sample),)
        )
    yield encode_events((shard_summary_event(run_id, output),))


def encode_shard_events(run_id: str, output) -> bytes:
    """One shard's telemetry as a raw JSONL blob (the pool's second result frame)."""
    with obs.span("fleet.telemetry.encode"):
        return b"".join(iter_shard_chunks(run_id, output))
