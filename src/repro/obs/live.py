"""Live fleet monitoring: shared-memory heartbeats, watchdog, run status.

This module is the in-flight counterpart to :mod:`repro.obs.core`.  While a
fleet run or longitudinal campaign executes, every shard — whether it runs
inline in the orchestrator process or inside a persistent pool worker —
publishes periodic heartbeats (sessions completed, current day/phase, open
span, RSS) into a small fixed-layout shared-memory *progress table*.  The
parent process owns the table through a :class:`LiveRun`, runs a wall-clock
watchdog thread that flags stalled shards as stragglers, and writes a small
JSON *status file* so `python -m repro.obs.monitor` can attach from a
different process and render live health.

Everything here reads only wall-clock time (`time.time`/`time.perf_counter`)
and writes only to shared memory outside the simulation — it never touches
simulation RNG streams, so heartbeats are trace-neutral by construction
(pinned by tests/test_live.py against the golden-trace corpus).

Layout (all little-endian, seqlock-protected):

* one header (parent-owned): run identity, campaign day, DAU/roster, state;
* ``rows`` per-shard rows (worker/shard-owned): progress counters, phase,
  open span, RSS, error;
* a parent-owned flags region: sticky straggler flag + consecutive stalled
  heartbeat intervals per row.

Writers bump the row's sequence number to an odd value, write the body, then
bump to the next even value; readers retry while the sequence is odd or
changes mid-read, so torn reads are never observed.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

__all__ = [
    "ProgressTable",
    "HeartbeatPublisher",
    "LiveRun",
    "RunStatus",
    "ShardStatus",
    "live_run",
    "active_run",
    "attach_worker",
    "reset_after_fork",
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

MAGIC = b"RLM1"
TABLE_VERSION = 1

STATE_IDLE = 0
STATE_RUNNING = 1
STATE_DONE = 2
STATE_FAILED = 3

STATE_NAMES = {
    STATE_IDLE: "idle",
    STATE_RUNNING: "running",
    STATE_DONE: "done",
    STATE_FAILED: "failed",
}

# Header: magic, version, rows, row_size, state | seq | interval, started_at
# | day, days_total, num_shards, sessions_total, dau, roster, pid | run_id,
# last_error.  '<' disables padding so offsets are stable across platforms.
_SEQ = struct.Struct("<Q")
_HEADER_BODY = struct.Struct("<4sIIIIdd7q64s256s")
_HEADER_SIZE = _SEQ.size + _HEADER_BODY.size

# Row body: state, pid | shard, day, shards_done, sessions_done,
# day_sessions, day_total, segments_done, rss_bytes | started_at, updated_at
# | phase, span, error.
_ROW_BODY = struct.Struct("<II8qdd48s64s160s")
_ROW_SIZE = _SEQ.size + _ROW_BODY.size

# Parent-owned flags: (flagged, stalled_intervals) per row.  Single writer,
# word-sized fields — no seqlock needed.
_FLAG = struct.Struct("<II")

_SEQLOCK_RETRIES = 64


def _now() -> float:
    return time.time()


def _pack_str(value: str, width: int) -> bytes:
    return value.encode("utf-8", "replace")[: width - 1]


def _unpack_str(raw: bytes) -> str:
    return raw.split(b"\x00", 1)[0].decode("utf-8", "replace")


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


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop a foreign attachment from this process's resource tracker.

    An attaching process (the monitor CLI) must not let its resource tracker
    unlink the segment at exit — the run that owns it may still be alive.
    Pool workers share the parent's tracker (forked after it starts), so the
    parent's register/unregister pair already covers them; this is only for
    genuinely foreign processes.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass


@dataclass(frozen=True)
class ShardStatus:
    """One decoded per-shard row (plus parent-side straggler flags)."""

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
    """A consistent snapshot of the whole progress table."""

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


class ProgressTable:
    """Fixed-layout shared-memory table of per-shard heartbeat rows."""

    def __init__(self, shm: shared_memory.SharedMemory, rows: int, *, owner: bool):
        self.shm = shm
        self.rows = rows
        self.owner = owner
        self._buf = shm.buf

    # -- construction -----------------------------------------------------

    @staticmethod
    def size_for(rows: int) -> int:
        return _HEADER_SIZE + rows * _ROW_SIZE + rows * _FLAG.size

    @classmethod
    def create(cls, rows: int, *, interval: float, run_id: str) -> "ProgressTable":
        shm = shared_memory.SharedMemory(create=True, size=cls.size_for(rows))  # contract: SHM-005 exempt(owning LiveRun unlinks via ProgressTable.close(owner=True); foreign attaches untracked)
        table = cls(shm, rows, owner=True)
        shm.buf[: table.size_for(rows)] = b"\x00" * table.size_for(rows)
        table.write_header(
            state=STATE_IDLE,
            interval=interval,
            started_at=_now(),
            day=-1,
            days_total=-1,
            num_shards=0,
            sessions_total=-1,
            dau=-1,
            roster=-1,
            pid=os.getpid(),
            run_id=run_id,
            last_error="",
        )
        return table

    @classmethod
    def attach(cls, name: str, *, foreign: bool = False) -> "ProgressTable":
        """Attach to an existing table by shared-memory name.

        ``foreign=True`` (the monitor CLI) additionally unregisters the
        attachment from this process's resource tracker so exiting the
        monitor never unlinks a live run's table.
        """
        shm = shared_memory.SharedMemory(name=name)
        magic, version, rows, row_size = struct.unpack_from("<4sIII", shm.buf, _SEQ.size)
        if magic != MAGIC:
            shm.close()
            raise ValueError(f"{name}: not a repro live progress table")
        if version != TABLE_VERSION or row_size != _ROW_SIZE:
            shm.close()
            raise ValueError(
                f"{name}: progress table version mismatch "
                f"(got v{version}/row {row_size}, want v{TABLE_VERSION}/row {_ROW_SIZE})"
            )
        table = cls(shm, rows, owner=False)
        if foreign and table.read_header().get("pid") != os.getpid():
            # A genuinely different process: drop the attach-side tracker
            # registration.  Same-process attaches (tests, in-process
            # monitoring) keep the creator's single registration intact.
            _untrack(shm)
        return table

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        try:
            self._buf = None
            self.shm.close()
            if self.owner:
                self.shm.unlink()
        except (FileNotFoundError, BufferError, OSError):
            pass

    # -- seqlock primitives ------------------------------------------------

    def _write_locked(self, offset: int, body: struct.Struct, *values) -> None:
        buf = self._buf
        (seq,) = _SEQ.unpack_from(buf, offset)
        _SEQ.pack_into(buf, offset, seq + 1)  # odd: write in progress
        body.pack_into(buf, offset + _SEQ.size, *values)
        _SEQ.pack_into(buf, offset, seq + 2)  # even: consistent

    def _read_locked(self, offset: int, body: struct.Struct) -> tuple:
        buf = self._buf
        for _ in range(_SEQLOCK_RETRIES):
            (seq1,) = _SEQ.unpack_from(buf, offset)
            if seq1 & 1:
                time.sleep(0)
                continue
            values = body.unpack_from(buf, offset + _SEQ.size)
            (seq2,) = _SEQ.unpack_from(buf, offset)
            if seq1 == seq2:
                return values
        # Writer died mid-write or extreme contention: accept the torn read
        # rather than spin forever — monitoring must never hang the caller.
        return body.unpack_from(buf, offset + _SEQ.size)

    # -- header ------------------------------------------------------------

    def write_header(self, **fields) -> None:
        current = self.read_header()
        current.update(fields)
        self._write_locked(
            0,
            _HEADER_BODY,
            MAGIC,
            TABLE_VERSION,
            self.rows,
            _ROW_SIZE,
            int(current["state"]),
            float(current["interval"]),
            float(current["started_at"]),
            int(current["day"]),
            int(current["days_total"]),
            int(current["num_shards"]),
            int(current["sessions_total"]),
            int(current["dau"]),
            int(current["roster"]),
            int(current["pid"]),
            _pack_str(str(current["run_id"]), 64),
            _pack_str(str(current["last_error"]), 256),
        )

    def read_header(self) -> dict:
        (seq,) = _SEQ.unpack_from(self._buf, 0)
        if seq == 0:  # freshly zeroed table, mid-create
            return {
                "state": STATE_IDLE,
                "interval": 0.0,
                "started_at": 0.0,
                "day": -1,
                "days_total": -1,
                "num_shards": 0,
                "sessions_total": -1,
                "dau": -1,
                "roster": -1,
                "pid": 0,
                "run_id": "",
                "last_error": "",
            }
        values = self._read_locked(0, _HEADER_BODY)
        (
            _magic,
            _version,
            _rows,
            _row_size,
            state,
            interval,
            started_at,
            day,
            days_total,
            num_shards,
            sessions_total,
            dau,
            roster,
            pid,
            run_id,
            last_error,
        ) = values
        return {
            "state": state,
            "interval": interval,
            "started_at": started_at,
            "day": day,
            "days_total": days_total,
            "num_shards": num_shards,
            "sessions_total": sessions_total,
            "dau": dau,
            "roster": roster,
            "pid": pid,
            "run_id": _unpack_str(run_id),
            "last_error": _unpack_str(last_error),
        }

    # -- rows --------------------------------------------------------------

    def _row_offset(self, row: int) -> int:
        return _HEADER_SIZE + row * _ROW_SIZE

    def write_row(
        self,
        row: int,
        *,
        state: int,
        pid: int,
        shard: int,
        day: int,
        shards_done: int,
        sessions_done: int,
        day_sessions: int,
        day_total: int,
        segments_done: int,
        rss_bytes: int,
        started_at: float,
        updated_at: float,
        phase: str,
        span: str,
        error: str,
    ) -> None:
        self._write_locked(
            self._row_offset(row),
            _ROW_BODY,
            state,
            pid,
            shard,
            day,
            shards_done,
            sessions_done,
            day_sessions,
            day_total,
            segments_done,
            rss_bytes,
            started_at,
            updated_at,
            _pack_str(phase, 48),
            _pack_str(span, 64),
            _pack_str(error, 160),
        )

    def read_row(self, row: int) -> ShardStatus:
        values = self._read_locked(self._row_offset(row), _ROW_BODY)
        (
            state,
            pid,
            shard,
            day,
            shards_done,
            sessions_done,
            day_sessions,
            day_total,
            segments_done,
            rss_bytes,
            started_at,
            updated_at,
            phase,
            span,
            error,
        ) = values
        flagged, stalled = self.read_flags(row)
        return ShardStatus(
            shard=shard,
            state=STATE_NAMES.get(state, str(state)),
            pid=pid,
            day=day,
            shards_done=shards_done,
            sessions_done=sessions_done,
            day_sessions=day_sessions,
            day_total=day_total,
            segments_done=segments_done,
            rss_bytes=rss_bytes,
            started_at=started_at,
            updated_at=updated_at,
            phase=_unpack_str(phase),
            span=_unpack_str(span),
            error=_unpack_str(error),
            flagged=bool(flagged),
            stalled_intervals=stalled,
        )

    def read_rows(self) -> list[ShardStatus]:
        return [self.read_row(i) for i in range(self.rows)]

    # -- parent-owned straggler flags --------------------------------------

    def _flag_offset(self, row: int) -> int:
        return _HEADER_SIZE + self.rows * _ROW_SIZE + row * _FLAG.size

    def write_flags(self, row: int, *, flagged: bool, stalled_intervals: int) -> None:
        _FLAG.pack_into(self._buf, self._flag_offset(row), int(flagged), stalled_intervals)

    def read_flags(self, row: int) -> tuple[int, int]:
        return _FLAG.unpack_from(self._buf, self._flag_offset(row))

    # -- snapshots ----------------------------------------------------------

    def status(self) -> RunStatus:
        header = self.read_header()
        shards = tuple(
            row
            for row in self.read_rows()
            if row.state != "idle" or row.sessions_done or row.shards_done
        )
        return RunStatus(
            state=STATE_NAMES.get(header["state"], str(header["state"])),
            run_id=header["run_id"],
            interval=header["interval"],
            started_at=header["started_at"],
            day=header["day"],
            days_total=header["days_total"],
            num_shards=header["num_shards"],
            sessions_total=header["sessions_total"],
            dau=header["dau"],
            roster=header["roster"],
            pid=header["pid"],
            last_error=header["last_error"],
            shards=shards,
        )


class HeartbeatPublisher:
    """Process-local writer of one shard row at a time.

    A publisher exists once per process (orchestrator for inline shards, each
    pool worker for pooled shards).  It tracks counters locally and flushes
    the full row at most once per ``interval`` seconds, plus forced flushes
    on shard begin/finish/fail — the hot-path cost of :meth:`maybe_publish`
    between flushes is a single ``perf_counter`` comparison.
    """

    __slots__ = (
        "table",
        "interval",
        "_row",
        "_shard",
        "_day",
        "_state",
        "_shards_done",
        "_sessions_base",
        "_segments_base",
        "_day_sessions",
        "_day_total",
        "_segments",
        "_phase",
        "_error",
        "_started_at",
        "_next_publish",
    )

    def __init__(self, table: ProgressTable, interval: float):
        self.table = table
        self.interval = max(float(interval), 1e-3)
        self._row: int | None = None
        self._shard = -1
        self._day = -1
        self._state = STATE_IDLE
        self._shards_done = 0
        self._sessions_base = 0
        self._segments_base = 0
        self._day_sessions = 0
        self._day_total = -1
        self._segments = 0
        self._phase = ""
        self._error = ""
        self._started_at = 0.0
        self._next_publish = 0.0

    # -- shard lifecycle ---------------------------------------------------

    def begin_shard(self, shard: int, day: int) -> None:
        if shard < 0 or shard >= self.table.rows:
            self._row = None
            return
        self._row = shard
        self._shard = shard
        self._day = day
        # Cumulative counters persist across campaign days: re-read the row
        # this process (or a predecessor worker) last wrote for this shard.
        previous = self.table.read_row(shard)
        self._shards_done = previous.shards_done
        self._sessions_base = previous.sessions_done
        self._segments_base = previous.segments_done
        self._day_sessions = 0
        self._day_total = -1
        self._segments = 0
        self._phase = "start"
        self._error = ""
        self._state = STATE_RUNNING
        self._started_at = _now()
        self._publish(force=True)

    def set_total(self, total: int) -> None:
        if self._row is None:
            return
        self._day_total = int(total)
        self._publish(force=True)

    def set_phase(self, phase: str) -> None:
        if self._row is None:
            return
        self._phase = phase
        self.maybe_publish()

    def add_sessions(self, sessions: int, segments: int = 0) -> None:
        if self._row is None:
            return
        self._day_sessions += sessions
        self._segments += segments
        self.maybe_publish()

    def finish_shard(self, sessions: int | None = None, segments: int | None = None) -> None:
        if self._row is None:
            return
        # Authoritative totals from the orchestrator reconcile any counting
        # the incremental hooks missed (e.g. networked batches).
        if sessions is not None:
            self._day_sessions = sessions
        if segments is not None:
            self._segments = segments
        self._shards_done += 1
        self._state = STATE_DONE
        self._phase = "done"
        self._publish(force=True)
        self._row = None

    def fail_shard(self, error: str) -> None:
        if self._row is None:
            return
        self._state = STATE_FAILED
        self._error = error
        self._phase = "failed"
        self._publish(force=True)
        self._row = None

    # -- publication -------------------------------------------------------

    def maybe_publish(self) -> None:
        if self._row is None:
            return
        if time.perf_counter() >= self._next_publish:
            self._publish()

    def _publish(self, force: bool = False) -> None:
        if self._row is None:
            return
        self._next_publish = time.perf_counter() + self.interval
        span = ""
        try:  # surface the open obs span when profiling is enabled
            from repro.obs import core as obs_core

            collector = obs_core._ACTIVE  # noqa: SLF001
            if collector is not None and collector.stack:
                span = collector.stack[-1][0].name
        except Exception:
            span = ""
        self.table.write_row(
            self._row,
            state=self._state,
            pid=os.getpid(),
            shard=self._shard,
            day=self._day,
            shards_done=self._shards_done,
            sessions_done=self._sessions_base + self._day_sessions,
            day_sessions=self._day_sessions,
            day_total=self._day_total,
            segments_done=self._segments_base + self._segments,
            rss_bytes=_rss_bytes(),
            started_at=self._started_at,
            updated_at=_now(),
            phase=self._phase,
            span=span,
            error=self._error,
        )


class LiveRun:
    """Parent-side owner of a progress table, status file, and watchdog.

    Create one around a fleet run or campaign (usually via the
    :func:`live_run` context manager).  It:

    * allocates the shared-memory progress table and installs the module
      global publisher so inline shards heartbeat too;
    * writes a JSON status file that `repro.obs.monitor` uses to attach;
    * runs a daemon watchdog thread that flags shards whose heartbeats stop
      advancing for ``stall_intervals`` consecutive intervals (sticky flags,
      visible to monitors through the table's flag region);
    * produces the ``live`` section of REPORT_VERSION=2 run reports via
      :meth:`summary`.
    """

    def __init__(
        self,
        status_path: str | os.PathLike | None = None,
        *,
        rows: int = 64,
        interval: float = 0.25,
        stall_intervals: int = 8,
        run_id: str = "run",
        watchdog: bool = True,
    ):
        self.interval = max(float(interval), 1e-3)
        self.stall_intervals = max(int(stall_intervals), 1)
        self.run_id = run_id
        self.table = ProgressTable.create(rows, interval=self.interval, run_id=run_id)
        self.status_path = Path(status_path) if status_path is not None else None
        self._flagged: dict[int, dict] = {}
        self._watch_keys: dict[int, tuple] = {}
        self._stalls: dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._write_status_file("running")
        if watchdog:
            self._thread = threading.Thread(
                target=self._watchdog_loop, name="repro-live-watchdog", daemon=True
            )
            self._thread.start()

    # -- identity ----------------------------------------------------------

    @property
    def shm_name(self) -> str:
        return self.table.name

    def worker_token(self) -> tuple[str, float]:
        """Compact (shm name, interval) pair a pooled run hands its workers."""
        return (self.table.name, self.interval)

    # -- run lifecycle hooks (called by orchestrator / campaign) -----------

    def begin_fleet_run(self, *, run_id: str, num_shards: int, day: int) -> None:
        self.table.write_header(
            state=STATE_RUNNING, run_id=run_id, num_shards=num_shards, day=day
        )

    def begin_campaign(self, *, start_day: int, days: int, run_id: str | None = None) -> None:
        fields = {"state": STATE_RUNNING, "day": start_day, "days_total": days}
        if run_id is not None:
            fields["run_id"] = run_id
        self.table.write_header(**fields)

    def note_day(self, *, day: int, dau: int | None = None, roster: int | None = None) -> None:
        fields: dict = {"day": day}
        if dau is not None:
            fields["dau"] = dau
        if roster is not None:
            fields["roster"] = roster
        self.table.write_header(**fields)

    def finish_fleet_run(self, *, sessions: int) -> None:
        header = self.table.read_header()
        total = header["sessions_total"]
        self.table.write_header(sessions_total=(0 if total < 0 else total) + sessions)

    # -- watchdog ----------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.watchdog_tick()
            except Exception:
                # Monitoring must never take down the run it observes.
                return

    def watchdog_tick(self) -> list[int]:
        """One watchdog pass; returns rows newly flagged as stragglers.

        Progress is defined as the row's ``updated_at`` advancing: active
        shards publish at least once per interval (the sim hot loops call
        :func:`pulse`), so a frozen timestamp over ``stall_intervals``
        consecutive passes means the shard is genuinely stuck.
        """
        newly_flagged: list[int] = []
        with self._lock:
            for i in range(self.table.rows):
                row = self.table.read_row(i)
                if row.state != "running":
                    self._watch_keys.pop(i, None)
                    self._stalls[i] = 0
                    if row.state == "failed" and row.error:
                        self.table.write_header(last_error=f"shard {row.shard}: {row.error}")
                    # Straggler flags stay sticky after the shard finishes.
                    if i in self._flagged:
                        self.table.write_flags(
                            i, flagged=True, stalled_intervals=self._flagged[i]["stalled_intervals"]
                        )
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
                self.table.write_flags(i, flagged=flagged, stalled_intervals=stalled)
        return newly_flagged

    # -- snapshots / reporting ---------------------------------------------

    def status(self) -> RunStatus:
        return self.table.status()

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

    def _write_status_file(self, state: str, final: dict | None = None) -> None:
        if self.status_path is None:
            return
        doc = {
            "kind": "repro-live-status",
            "version": 1,
            "state": state,
            "shm_name": self.table.name,
            "rows": self.table.rows,
            "heartbeat_interval_s": self.interval,
            "stall_intervals": self.stall_intervals,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "created_at": _now(),
        }
        if final is not None:
            doc["final"] = final
        tmp = self.status_path.with_suffix(self.status_path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
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
        if error:
            self.table.write_header(last_error=error)
        self.table.write_header(state=STATE_FAILED if state == "failed" else STATE_DONE)
        # Embed the final snapshot so monitors attaching after the shared
        # memory is gone still render a post-mortem view.
        final = self.table.status().as_payload()
        final["state"] = state
        final["stragglers_detail"] = self.stragglers()
        self._write_status_file(state, final=final)
        global _PUBLISHER, _LIVE_RUN
        if _LIVE_RUN is self:
            _LIVE_RUN = None
        if _PUBLISHER is not None and _PUBLISHER.table is self.table:
            _PUBLISHER = None
        self.table.close()


# ---------------------------------------------------------------------------
# Module-global wiring: one live run / publisher per process.
# ---------------------------------------------------------------------------

_LIVE_RUN: LiveRun | None = None
_PUBLISHER: HeartbeatPublisher | None = None
_WORKER_TABLE: ProgressTable | None = None


def active_run() -> LiveRun | None:
    return _LIVE_RUN


def install_run(run: LiveRun) -> LiveRun:
    """Install ``run`` as the process-wide live run (+ inline publisher)."""
    global _LIVE_RUN, _PUBLISHER
    _LIVE_RUN = run
    _PUBLISHER = HeartbeatPublisher(run.table, run.interval)
    return run


@contextmanager
def live_run(
    status_path: str | os.PathLike | None = None,
    *,
    rows: int = 64,
    interval: float = 0.25,
    stall_intervals: int = 8,
    run_id: str = "run",
    watchdog: bool = True,
):
    """Context manager: create, install, and reliably close a LiveRun."""
    run = LiveRun(
        status_path,
        rows=rows,
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


def attach_worker(shm_name: str, interval: float) -> None:
    """Pool-worker side: attach (or re-attach) to the run's progress table.

    Called from ``_worker_main`` before each shard when the pooled run
    carries a heartbeat token.  Workers are forked once at pool creation —
    possibly before any LiveRun exists — so attachment is lazy, by name, and
    cached until the name changes (a new run created a new table).
    """
    global _PUBLISHER, _WORKER_TABLE
    if _WORKER_TABLE is not None and _WORKER_TABLE.name == shm_name and _PUBLISHER is not None:
        _PUBLISHER.interval = max(float(interval), 1e-3)
        return
    if _WORKER_TABLE is not None:
        _WORKER_TABLE.close()
        _WORKER_TABLE = None
        _PUBLISHER = None
    try:
        table = ProgressTable.attach(shm_name)
    except (FileNotFoundError, ValueError, OSError):
        return  # run already closed; heartbeats silently off
    _WORKER_TABLE = table
    _PUBLISHER = HeartbeatPublisher(table, interval)


def reset_after_fork() -> None:
    """Forget inherited live state in a freshly forked pool worker.

    The child must not own the parent's table (no watchdog, no unlink) and
    must not reuse the parent's publisher row bookkeeping.
    """
    global _LIVE_RUN, _PUBLISHER, _WORKER_TABLE
    _LIVE_RUN = None
    _PUBLISHER = None
    _WORKER_TABLE = None


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
