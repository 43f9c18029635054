"""Live fleet monitoring: heartbeats, watchdog, run status file.

This module is the in-flight counterpart to :mod:`repro.obs.core`.  While a
fleet run or longitudinal campaign executes, every shard — whether it runs
inline in the orchestrator process or inside a persistent pool worker —
publishes periodic heartbeats (sessions completed, current day/phase, open
span, RSS).  The parent process owns a :class:`LiveRun`: an in-parent table
of per-shard rows, guarded by one lock, and a wall-clock watchdog thread that
flags stalled shards as stragglers.

Heartbeats reach the table by one of two routes, both through a
:class:`HeartbeatPublisher` and its sink:

* an inline shard's publisher applies each beat to the table directly
  (:meth:`LiveRun.apply_beat`);
* a pool worker's publisher sends each beat as a ``("beat", shard, beat)``
  message on the pipe it already owns, and the pool's drain loop applies it
  (:mod:`repro.fleet.pool`).

A beat carries only the shard's day-level counts; the table owns the
cumulative counters across campaign days.  Every watchdog tick, every
run-header change and :meth:`LiveRun.close` rewrite the JSON *status file*
atomically with the whole :meth:`RunStatus.as_payload`, so
``python -m repro.obs.monitor`` reads live and post-mortem views from the
same file.

Everything here reads only wall-clock time (`time.time`/`time.perf_counter`)
and never touches simulation RNG streams, so heartbeats are trace-neutral by
construction (pinned by tests/test_live.py against the golden-trace corpus).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

__all__ = [
    "HeartbeatPublisher",
    "LiveRun",
    "RunStatus",
    "ShardStatus",
    "live_run",
    "active_run",
    "publish_to_pipe",
    "pulse",
    "add_sessions",
    "set_shard_total",
    "set_phase",
    "begin_shard",
    "finish_shard",
    "fail_shard",
    "STATE_IDLE",
    "STATE_RUNNING",
    "STATE_DONE",
    "STATE_FAILED",
]

STATE_IDLE = "idle"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"


def _now() -> float:
    return time.time()


def _rss_bytes() -> int:
    """Current resident set size in bytes (0 when unavailable)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        scale = 1 if sys.platform == "darwin" else 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    except Exception:
        return 0


@dataclass(frozen=True)
class ShardStatus:
    """One per-shard row (plus parent-side straggler flags)."""

    shard: int
    state: str
    pid: int
    day: int
    shards_done: int
    sessions_done: int
    day_sessions: int
    day_total: int
    segments_done: int
    rss_bytes: int
    started_at: float
    updated_at: float
    phase: str
    span: str
    error: str
    flagged: bool = False
    stalled_intervals: int = 0

    def eta_s(self, now: float | None = None) -> float | None:
        """Estimated seconds to finish the current day's sessions.

        Needs a known ``day_total`` and some progress to extrapolate from;
        returns ``None`` otherwise.  Wall-clock derived — never used inside
        the simulation.
        """
        if self.state != "running" or self.day_total <= 0 or self.day_sessions <= 0:
            return None
        now = _now() if now is None else now
        elapsed = max(now - self.started_at, 1e-9)
        rate = self.day_sessions / elapsed
        remaining = max(self.day_total - self.day_sessions, 0)
        return remaining / rate if rate > 0 else None

    def as_payload(self, now: float | None = None) -> dict:
        now = _now() if now is None else now
        eta = self.eta_s(now)
        return {
            "shard": self.shard,
            "state": self.state,
            "pid": self.pid,
            "day": self.day,
            "shards_done": self.shards_done,
            "sessions_done": self.sessions_done,
            "day_sessions": self.day_sessions,
            "day_total": self.day_total,
            "segments_done": self.segments_done,
            "rss_bytes": self.rss_bytes,
            "age_s": round(max(now - self.updated_at, 0.0), 3) if self.updated_at else None,
            "eta_s": round(eta, 3) if eta is not None else None,
            "phase": self.phase,
            "span": self.span,
            "flagged": self.flagged,
            "stalled_intervals": self.stalled_intervals,
            "error": self.error or None,
        }


@dataclass(frozen=True)
class RunStatus:
    """A consistent snapshot of the whole run: header plus shard rows."""

    state: str
    run_id: str
    interval: float
    started_at: float
    day: int
    days_total: int
    num_shards: int
    sessions_total: int
    dau: int
    roster: int
    pid: int
    last_error: str
    shards: tuple[ShardStatus, ...]
    taken_at: float = field(default_factory=_now)

    @property
    def sessions_done(self) -> int:
        return sum(s.sessions_done for s in self.shards)

    @property
    def segments_done(self) -> int:
        return sum(s.segments_done for s in self.shards)

    @property
    def stragglers(self) -> tuple[ShardStatus, ...]:
        return tuple(s for s in self.shards if s.flagged)

    def throughput_sps(self) -> float | None:
        """Mean sessions/sec since the run started (wall-clock)."""
        elapsed = self.taken_at - self.started_at
        if elapsed <= 0 or self.sessions_done <= 0:
            return None
        return self.sessions_done / elapsed

    def as_payload(self) -> dict:
        now = self.taken_at
        throughput = self.throughput_sps()
        return {
            "kind": "live-status",
            "taken_at": round(now, 3),
            "state": self.state,
            "run_id": self.run_id,
            "pid": self.pid,
            "heartbeat_interval_s": self.interval,
            "day": self.day,
            "days_total": self.days_total,
            "num_shards": self.num_shards,
            "dau": self.dau,
            "roster": self.roster,
            "totals": {
                "sessions_done": self.sessions_done,
                "sessions_total": self.sessions_total,
                "segments_done": self.segments_done,
                "shards_done": sum(s.shards_done for s in self.shards),
                "throughput_sps": round(throughput, 3) if throughput else None,
            },
            "shards": [s.as_payload(now) for s in self.shards],
            "stragglers": [s.shard for s in self.shards if s.flagged],
            "last_error": self.last_error or None,
        }


class HeartbeatPublisher:
    """Process-local publisher of one shard's heartbeats at a time.

    A publisher exists once per process (orchestrator for inline shards, each
    pool worker for pooled shards).  It tracks the shard's day-level counters
    locally and hands a beat — a dict of them — to ``sink(shard, beat)`` at
    most once per ``interval`` seconds, plus forced beats on shard
    begin/total/finish/fail.  The hot-path cost of :meth:`maybe_publish`
    between beats is a single ``perf_counter`` comparison.
    """

    __slots__ = (
        "sink",
        "interval",
        "_shard",
        "_day",
        "_state",
        "_day_sessions",
        "_day_total",
        "_segments",
        "_phase",
        "_error",
        "_started_at",
        "_next_publish",
    )

    def __init__(self, sink: Callable[[int, dict], None], interval: float):
        self.sink = sink
        self.interval = max(float(interval), 1e-3)
        self._shard: int | None = None
        self._day = -1
        self._state = STATE_IDLE
        self._day_sessions = 0
        self._day_total = -1
        self._segments = 0
        self._phase = ""
        self._error = ""
        self._started_at = 0.0
        self._next_publish = 0.0

    # -- shard lifecycle ---------------------------------------------------

    def begin_shard(self, shard: int, day: int) -> None:
        self._shard = shard
        self._day = day
        self._day_sessions = 0
        self._day_total = -1
        self._segments = 0
        self._phase = "start"
        self._error = ""
        self._state = STATE_RUNNING
        self._started_at = _now()
        self._publish()

    def set_total(self, total: int) -> None:
        if self._shard is None:
            return
        self._day_total = int(total)
        self._publish()

    def set_phase(self, phase: str) -> None:
        if self._shard is None:
            return
        self._phase = phase
        self.maybe_publish()

    def add_sessions(self, sessions: int, segments: int = 0) -> None:
        if self._shard is None:
            return
        self._day_sessions += sessions
        self._segments += segments
        self.maybe_publish()

    def finish_shard(self, sessions: int | None = None, segments: int | None = None) -> None:
        if self._shard is None:
            return
        # Authoritative totals from the orchestrator reconcile any counting
        # the incremental hooks missed (e.g. networked batches).
        if sessions is not None:
            self._day_sessions = sessions
        if segments is not None:
            self._segments = segments
        self._state = STATE_DONE
        self._phase = "done"
        self._publish()
        self._shard = None

    def fail_shard(self, error: str) -> None:
        if self._shard is None:
            return
        self._state = STATE_FAILED
        self._error = error
        self._phase = "failed"
        self._publish()
        self._shard = None

    # -- publication -------------------------------------------------------

    def maybe_publish(self) -> None:
        if self._shard is None:
            return
        if time.perf_counter() >= self._next_publish:
            self._publish()

    def _publish(self) -> None:
        self._next_publish = time.perf_counter() + self.interval
        span = ""
        try:  # surface the open obs span when profiling is enabled
            from repro.obs import core as obs_core

            collector = obs_core._ACTIVE  # noqa: SLF001
            if collector is not None and collector.stack:
                span = collector.stack[-1][0].name
        except Exception:
            span = ""
        self.sink(
            self._shard,
            {
                "state": self._state,
                "pid": os.getpid(),
                "day": self._day,
                "day_sessions": self._day_sessions,
                "day_total": self._day_total,
                "day_segments": self._segments,
                "rss_bytes": _rss_bytes(),
                "started_at": self._started_at,
                "updated_at": _now(),
                "phase": self._phase,
                "span": span,
                "error": self._error,
            },
        )


class LiveRun:
    """Parent-side owner of the shard table, status file and watchdog.

    Create one around a fleet run or campaign (usually via the
    :func:`live_run` context manager).  It:

    * keeps one row per shard in an in-parent dict guarded by a lock, fed by
      :meth:`apply_beat`, and installs the module global publisher so inline
      shards heartbeat too;
    * rewrites a JSON status file (the whole :meth:`RunStatus.as_payload`)
      that ``repro.obs.monitor`` reads;
    * runs a daemon watchdog thread that flags shards whose heartbeats stop
      advancing for ``stall_intervals`` consecutive intervals (sticky flags);
    * produces the ``live`` section of REPORT_VERSION=2 run reports via
      :meth:`summary`.
    """

    def __init__(
        self,
        status_path: str | os.PathLike | None = None,
        *,
        interval: float = 0.25,
        stall_intervals: int = 8,
        run_id: str = "run",
        watchdog: bool = True,
    ):
        self.interval = max(float(interval), 1e-3)
        self.stall_intervals = max(int(stall_intervals), 1)
        self.status_path = Path(status_path) if status_path is not None else None
        self._header = {
            "state": STATE_RUNNING,
            "run_id": run_id,
            "started_at": _now(),
            "day": -1,
            "days_total": -1,
            "num_shards": 0,
            "sessions_total": -1,
            "dau": -1,
            "roster": -1,
            "pid": os.getpid(),
            "last_error": "",
        }
        self._rows: dict[int, ShardStatus] = {}
        # Cumulative (shards, sessions, segments) of a shard's earlier days.
        self._bases: dict[int, tuple[int, int, int]] = {}
        self._flagged: dict[int, dict] = {}
        self._watch_keys: dict[int, tuple] = {}
        self._stalls: dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False
        with self._lock:
            self._write_status_file()
        if watchdog:
            self._thread = threading.Thread(
                target=self._watchdog_loop, name="repro-live-watchdog", daemon=True
            )
            self._thread.start()

    # -- shard rows ----------------------------------------------------------

    def apply_beat(self, shard: int, beat: dict) -> None:
        """Fold one heartbeat (day-level counts, see
        :class:`HeartbeatPublisher`) into ``shard``'s row."""
        with self._lock:
            row = self._rows.get(shard)
            if row is None or (beat["state"] == STATE_RUNNING and row.state != STATE_RUNNING):
                # A new shard-day: what the shard finished so far is its base.
                self._bases[shard] = (
                    (row.shards_done, row.sessions_done, row.segments_done)
                    if row is not None
                    else (0, 0, 0)
                )
            shards, sessions, segments = self._bases[shard]
            fields = dict(beat)
            day_segments = fields.pop("day_segments")
            self._rows[shard] = ShardStatus(
                shard=shard,
                shards_done=shards + (beat["state"] == STATE_DONE),
                sessions_done=sessions + beat["day_sessions"],
                segments_done=segments + day_segments,
                **fields,
            )

    # -- run lifecycle hooks (called by orchestrator / campaign) -----------

    def _set_header(self, **fields) -> None:
        with self._lock:
            self._header.update(fields)
            self._write_status_file()

    def begin_fleet_run(self, *, run_id: str, num_shards: int, day: int) -> None:
        self._set_header(state=STATE_RUNNING, run_id=run_id, num_shards=num_shards, day=day)

    def begin_campaign(self, *, start_day: int, days: int, run_id: str | None = None) -> None:
        fields = {"state": STATE_RUNNING, "day": start_day, "days_total": days}
        if run_id is not None:
            fields["run_id"] = run_id
        self._set_header(**fields)

    def note_day(self, *, day: int, dau: int | None = None, roster: int | None = None) -> None:
        fields: dict = {"day": day}
        if dau is not None:
            fields["dau"] = dau
        if roster is not None:
            fields["roster"] = roster
        self._set_header(**fields)

    def finish_fleet_run(self, *, sessions: int) -> None:
        with self._lock:
            self._header["sessions_total"] = max(self._header["sessions_total"], 0) + sessions
            self._write_status_file()

    # -- watchdog ----------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.watchdog_tick()
            except Exception:
                # Monitoring must never take down the run it observes.
                return

    def watchdog_tick(self) -> list[int]:
        """One watchdog pass; returns shards newly flagged as stragglers,
        then rewrites the status file.

        Progress is defined as the row's ``updated_at`` advancing: active
        shards publish at least once per interval (the sim hot loops call
        :func:`pulse`), so a frozen timestamp over ``stall_intervals``
        consecutive passes means the shard is genuinely stuck.
        """
        newly_flagged: list[int] = []
        with self._lock:
            for i, row in sorted(self._rows.items()):
                if row.state != "running":
                    self._watch_keys.pop(i, None)
                    self._stalls[i] = 0
                    if row.state == "failed" and row.error:
                        self._header["last_error"] = f"shard {row.shard}: {row.error}"
                    continue
                key = (row.updated_at, row.day, row.day_sessions, row.segments_done)
                if self._watch_keys.get(i) == key:
                    self._stalls[i] = self._stalls.get(i, 0) + 1
                else:
                    self._stalls[i] = 0
                self._watch_keys[i] = key
                stalled = self._stalls[i]
                flagged = i in self._flagged or stalled >= self.stall_intervals
                if flagged and i not in self._flagged:
                    self._flagged[i] = {
                        "shard": row.shard,
                        "day": row.day,
                        "phase": row.phase,
                        "stalled_intervals": stalled,
                        "flagged_at": _now(),
                    }
                    newly_flagged.append(i)
                elif flagged:
                    self._flagged[i]["stalled_intervals"] = max(
                        self._flagged[i]["stalled_intervals"], stalled
                    )
            self._write_status_file()
        return newly_flagged

    # -- snapshots / reporting ---------------------------------------------

    def status(self) -> RunStatus:
        with self._lock:
            return self._status()

    def _status(self) -> RunStatus:
        shards = []
        for i, row in sorted(self._rows.items()):
            # Straggler flags stay sticky after the shard finishes.
            flag = self._flagged.get(i)
            stalled = self._stalls.get(i, 0)
            if flag is not None and row.state != STATE_RUNNING:
                stalled = flag["stalled_intervals"]
            shards.append(replace(row, flagged=flag is not None, stalled_intervals=stalled))
        return RunStatus(interval=self.interval, shards=tuple(shards), **self._header)

    def stragglers(self) -> list[dict]:
        with self._lock:
            return sorted(self._flagged.values(), key=lambda f: f["shard"])

    def summary(self) -> dict:
        """The ``live`` section of a v2 run report (wall-clock derived)."""
        status = self.status()
        return {
            "heartbeat_interval_s": self.interval,
            "stall_intervals": self.stall_intervals,
            "sessions_done": status.sessions_done,
            "segments_done": status.segments_done,
            "throughput_sps": status.throughput_sps(),
            "shards": [s.as_payload(status.taken_at) for s in status.shards],
            "stragglers": self.stragglers(),
        }

    # -- status file --------------------------------------------------------

    def _write_status_file(self) -> None:
        """Atomically rewrite the status file; the caller holds the lock."""
        if self.status_path is None:
            return
        tmp = self.status_path.with_suffix(self.status_path.suffix + ".tmp")
        tmp.write_text(json.dumps(self._status().as_payload(), indent=2) + "\n", encoding="utf-8")
        tmp.replace(self.status_path)

    # -- teardown -----------------------------------------------------------

    def close(self, state: str = "done", error: str | None = None) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(self.interval * 4, 1.0))
        try:
            self.watchdog_tick()
        except Exception:
            pass
        fields = {"state": STATE_FAILED if state == "failed" else STATE_DONE}
        if error:
            fields["last_error"] = error
        # The last write is the post-mortem view.
        self._set_header(**fields)
        global _PUBLISHER, _LIVE_RUN
        if _LIVE_RUN is self:
            _LIVE_RUN = None
            _PUBLISHER = None


# ---------------------------------------------------------------------------
# Module-global wiring: one live run / publisher per process.
# ---------------------------------------------------------------------------

_LIVE_RUN: LiveRun | None = None
_PUBLISHER: HeartbeatPublisher | None = None


def active_run() -> LiveRun | None:
    return _LIVE_RUN


def install_run(run: LiveRun) -> LiveRun:
    """Install ``run`` as the process-wide live run (+ inline publisher)."""
    global _LIVE_RUN, _PUBLISHER
    _LIVE_RUN = run
    _PUBLISHER = HeartbeatPublisher(run.apply_beat, run.interval)
    return run


@contextmanager
def live_run(
    status_path: str | os.PathLike | None = None,
    *,
    interval: float = 0.25,
    stall_intervals: int = 8,
    run_id: str = "run",
    watchdog: bool = True,
):
    """Context manager: create, install, and reliably close a LiveRun."""
    run = LiveRun(
        status_path,
        interval=interval,
        stall_intervals=stall_intervals,
        run_id=run_id,
        watchdog=watchdog,
    )
    install_run(run)
    try:
        yield run
    except BaseException as exc:
        run.close(state="failed", error=f"{type(exc).__name__}: {exc}"[:250])
        raise
    else:
        run.close(state="done")


def publish_to_pipe(conn, interval: float | None) -> None:
    """Pool-worker side: heartbeat onto ``conn``, or not at all.

    Called from ``_worker_main`` on every ``"run"`` message with the run's
    heartbeat interval (``None`` without a live run), so a worker never keeps
    a publisher from an earlier run — nor one inherited from a parent that
    forked it during a live run.
    """
    global _PUBLISHER
    if interval is None:
        _PUBLISHER = None
    else:
        _PUBLISHER = HeartbeatPublisher(
            lambda shard, beat: conn.send(("beat", shard, beat)), interval
        )


# Hot-path hooks: a single None-check when no live run is active.


def pulse() -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.maybe_publish()


def add_sessions(sessions: int, segments: int = 0) -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.add_sessions(sessions, segments)


def set_shard_total(total: int) -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.set_total(total)


def set_phase(phase: str) -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.set_phase(phase)


def begin_shard(shard: int, day: int) -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.begin_shard(shard, day)


def finish_shard(sessions: int | None = None, segments: int | None = None) -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.finish_shard(sessions, segments)


def fail_shard(error: str) -> None:
    publisher = _PUBLISHER
    if publisher is not None:
        publisher.fail_shard(error)
