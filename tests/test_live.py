"""Live fleet monitor: heartbeats, watchdog/stragglers, and trace neutrality.

The live layer's contract mirrors ``repro.obs``'s: it must be *provably
inert*.  Heartbeats read only wall-clock time and write only to shared
memory, so every simulated byte must be bit-exact with monitoring on or off,
inline or pooled — and the heartbeat rows themselves must look the same
regardless of execution mode.  On top of that the watchdog must actually
catch a stalled shard (straggler injection) and surface it through every
channel: the shared-memory flags, the monitor snapshot, the run report's
``live`` section, and the ``pool.straggler.*`` metrics.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import obs
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.fleet.orchestrator import HybFleetFactory
from repro.obs import monitor
from repro.obs.live import (
    STATE_RUNNING,
    HeartbeatPublisher,
    LiveRun,
    ProgressTable,
    live_run,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


@pytest.fixture(autouse=True)
def obs_disabled_after():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def population() -> UserPopulation:
    return UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)


@pytest.fixture(scope="module")
def library() -> VideoLibrary:
    return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)


def _run_fleet(population, library, *, shards, workers=0, status=None,
               profile=False, abr_factory=None, interval=0.05,
               stall_intervals=8, **overrides):
    config = FleetConfig(
        num_shards=shards,
        num_workers=workers,
        sessions_per_user=2,
        trace_length=40,
        seed=9,
        backend="vector",
        network="dual_isp",
        **overrides,
    )
    orchestrator = FleetOrchestrator(config)
    if profile:
        obs.enable()
    try:
        if status is None:
            return orchestrator.run(population, library, abr_factory=abr_factory)
        with live_run(status, run_id="test", interval=interval,
                      stall_intervals=stall_intervals):
            return orchestrator.run(population, library, abr_factory=abr_factory)
    finally:
        obs.disable()


def _session_map(result):
    return {
        (log.user_id, log.session_index): (
            log.trace.exited_early,
            tuple(log.trace.records),
        )
        for log in result.logs
    }


class TestProgressTable:
    def test_header_and_row_roundtrip(self):
        table = ProgressTable.create(4, interval=0.5, run_id="rt")
        try:
            table.write_header(state=STATE_RUNNING, day=3, num_shards=4,
                               dau=120, roster=150)
            header = table.read_header()
            assert header["run_id"] == "rt"
            assert header["state"] == STATE_RUNNING
            assert header["day"] == 3
            assert header["dau"] == 120
            assert header["pid"] == os.getpid()

            table.write_row(
                2, state=STATE_RUNNING, pid=os.getpid(), shard=2, day=3,
                shards_done=1, sessions_done=42, day_sessions=10,
                day_total=20, segments_done=400, rss_bytes=1 << 20,
                started_at=100.0, updated_at=101.0, phase="run_batch",
                span="vector.step", error="",
            )
            row = table.read_row(2)
            assert (row.shard, row.state, row.sessions_done) == (2, "running", 42)
            assert row.day_sessions == 10 and row.day_total == 20
            assert row.phase == "run_batch" and row.span == "vector.step"
            assert not row.flagged

            # ETA: 10 of 20 sessions in 1s -> 1s remaining
            assert row.eta_s(now=101.0) == pytest.approx(1.0, rel=1e-6)

            status = table.status()
            assert [s.shard for s in status.shards] == [2]
            assert status.sessions_done == 42
            payload = status.as_payload()
            assert payload["kind"] == "live-status"
            assert payload["totals"]["sessions_done"] == 42
            json.dumps(payload)  # payloads must be JSON-serialisable
        finally:
            table.close()

    def test_attach_validates_and_long_strings_truncate(self):
        table = ProgressTable.create(2, interval=0.1, run_id="x" * 200)
        try:
            assert len(table.read_header()["run_id"]) == 63  # 64-byte field
            attached = ProgressTable.attach(table.name)
            try:
                assert attached.rows == 2
                assert attached.read_header()["run_id"] == table.read_header()["run_id"]
            finally:
                attached.close()
            table.write_row(
                0, state=STATE_RUNNING, pid=1, shard=0, day=0, shards_done=0,
                sessions_done=0, day_sessions=0, day_total=-1, segments_done=0,
                rss_bytes=0, started_at=0.0, updated_at=0.0,
                phase="p" * 100, span="s" * 100, error="e" * 500,
            )
            row = table.read_row(0)
            assert row.phase == "p" * 47
            assert row.span == "s" * 63
            assert row.error == "e" * 159
        finally:
            table.close()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=1024)  # contract: SHM-005 exempt(test-local segment; unlinked in the finally below)
        try:
            with pytest.raises(ValueError, match="not a repro live progress table"):
                ProgressTable.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_publisher_row_lifecycle(self):
        table = ProgressTable.create(2, interval=0.01, run_id="pub")
        try:
            publisher = HeartbeatPublisher(table, interval=0.01)
            publisher.begin_shard(1, day=0)
            publisher.set_total(8)
            publisher.add_sessions(3, 30)
            time.sleep(0.02)
            publisher.maybe_publish()
            row = table.read_row(1)
            assert row.state == "running"
            assert (row.day_sessions, row.day_total, row.segments_done) == (3, 8, 30)
            publisher.finish_shard(8, 80)
            row = table.read_row(1)
            assert row.state == "done" and row.shards_done == 1
            assert (row.sessions_done, row.segments_done) == (8, 80)

            # day 2 on the same row: cumulative counters carry over
            publisher.begin_shard(1, day=1)
            publisher.finish_shard(2, 20)
            row = table.read_row(1)
            assert (row.sessions_done, row.segments_done, row.shards_done) == (10, 100, 2)

            publisher.begin_shard(99, day=0)  # out of range: silently off
            publisher.add_sessions(1)
            publisher.finish_shard()
        finally:
            table.close()


class TestWatchdog:
    def _running_row(self, table, shard, updated_at):
        table.write_row(
            shard, state=STATE_RUNNING, pid=os.getpid(), shard=shard, day=0,
            shards_done=0, sessions_done=0, day_sessions=4, day_total=10,
            segments_done=40, rss_bytes=0, started_at=updated_at - 1.0,
            updated_at=updated_at, phase="run_batch", span="", error="",
        )

    def test_flags_after_k_frozen_intervals_and_stays_sticky(self):
        run = LiveRun(rows=4, interval=0.01, stall_intervals=3,
                      run_id="wd", watchdog=False)
        try:
            self._running_row(run.table, 0, updated_at=1000.0)
            assert run.watchdog_tick() == []  # records the baseline key
            assert run.watchdog_tick() == []  # stalls=1
            assert run.watchdog_tick() == []  # stalls=2
            assert run.watchdog_tick() == [0]  # stalls=3 == stall_intervals
            assert run.watchdog_tick() == []  # already flagged, not re-reported
            row = run.table.read_row(0)
            assert row.flagged and row.stalled_intervals >= 3
            stragglers = run.stragglers()
            assert [s["shard"] for s in stragglers] == [0]
            assert stragglers[0]["phase"] == "run_batch"
            assert stragglers[0]["stalled_intervals"] >= 3
            assert run.summary()["stragglers"] == stragglers

            # progress resumes: the stall counter resets, the flag is sticky
            self._running_row(run.table, 0, updated_at=1001.0)
            run.watchdog_tick()
            row = run.table.read_row(0)
            assert row.flagged and row.stalled_intervals == 0
        finally:
            run.close()

    def test_progressing_row_never_flags(self):
        run = LiveRun(rows=2, interval=0.01, stall_intervals=2,
                      run_id="wd2", watchdog=False)
        try:
            for i in range(8):
                self._running_row(run.table, 0, updated_at=1000.0 + i)
                assert run.watchdog_tick() == []
            assert not run.table.read_row(0).flagged
        finally:
            run.close()

    def test_failed_row_error_surfaces_in_header(self):
        run = LiveRun(rows=2, interval=0.01, stall_intervals=2,
                      run_id="wd3", watchdog=False)
        try:
            publisher = HeartbeatPublisher(run.table, interval=0.01)
            publisher.begin_shard(1, day=0)
            publisher.fail_shard("ValueError: boom")
            run.watchdog_tick()
            header = run.table.read_header()
            assert header["last_error"] == "shard 1: ValueError: boom"
        finally:
            run.close()


class TestTraceNeutrality:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_fleet_bit_exact_with_live_monitoring(self, population, library, workers,
                                                  tmp_path):
        baseline = _run_fleet(population, library, shards=2, workers=workers)
        status = tmp_path / f"status_{workers}.json"
        monitored = _run_fleet(population, library, shards=2, workers=workers,
                               status=status)
        assert _session_map(baseline) == _session_map(monitored)
        assert baseline.metrics.as_dict() == monitored.metrics.as_dict()

    def test_heartbeat_rows_are_mode_independent(self, population, library, tmp_path):
        snapshots = {}
        for label, workers in [("inline", 0), ("pooled", 2)]:
            status = tmp_path / f"{label}.json"
            _run_fleet(population, library, shards=2, workers=workers, status=status)
            payload = monitor.snapshot(status)
            snapshots[label] = [
                (s["shard"], s["state"], s["day"], s["sessions_done"],
                 s["segments_done"], s["shards_done"])
                for s in payload["shards"]
            ]
        assert snapshots["inline"] == snapshots["pooled"]
        assert [s[1] for s in snapshots["inline"]] == ["done", "done"]

    def test_profiled_run_bit_exact_and_live_section(self, population, library,
                                                     tmp_path):
        plain = _run_fleet(population, library, shards=2, profile=True)
        status = tmp_path / "status.json"
        monitored = _run_fleet(population, library, shards=2, profile=True,
                               status=status)
        assert _session_map(plain) == _session_map(monitored)
        assert plain.obs_report["live"] is None
        live = monitored.obs_report["live"]
        assert live is not None
        assert live["sessions_done"] == monitored.metrics.num_sessions
        assert live["segments_done"] == monitored.metrics.num_segments
        assert live["stragglers"] == []
        # monitoring without stragglers adds no metrics: span/counter
        # structure stays identical
        assert obs.span_names(plain.obs_report["spans"]) == obs.span_names(
            monitored.obs_report["spans"]
        )
        assert plain.obs_report["metrics"]["counters"] == monitored.obs_report[
            "metrics"
        ]["counters"]


class SlowFactory(HybFleetFactory):
    """Picklable straggler injection: one user's ABR build sleeps.

    ``time.sleep`` releases the GIL, so the owner's watchdog thread keeps
    ticking while the shard that owns ``slow_user`` freezes mid-phase —
    exactly what a straggler looks like from the outside.
    """

    def __init__(self, slow_user: str, sleep_s: float) -> None:
        super().__init__()
        self.slow_user = slow_user
        self.sleep_s = sleep_s

    def __call__(self, profile, seed):
        if profile.user_id == self.slow_user:
            time.sleep(self.sleep_s)
        return super().__call__(profile, seed)


class TestStragglerInjection:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_stalled_shard_is_flagged_everywhere(self, population, library,
                                                 workers, tmp_path):
        slow_user = population.profiles[0].user_id
        factory = SlowFactory(slow_user, sleep_s=1.5)
        status = tmp_path / "status.json"
        result = _run_fleet(
            population, library, shards=2, workers=workers, status=status,
            profile=True, abr_factory=factory, interval=0.05, stall_intervals=4,
        )
        slow_shards = {
            out.shard_index
            for out in result.shard_outputs
            if any(log.user_id == slow_user for log in out.sessions)
        }
        assert len(slow_shards) == 1
        (slow_shard,) = slow_shards

        # 1. the run report's live section names the straggler
        live = result.obs_report["live"]
        flagged = [item["shard"] for item in live["stragglers"]]
        assert slow_shard in flagged
        for item in live["stragglers"]:
            assert item["stalled_intervals"] >= 4

        # 2. the pool.straggler metrics fired
        counters = result.obs_report["metrics"]["counters"]
        gauges = result.obs_report["metrics"]["gauges"]
        assert counters["pool.straggler.shards"] == len(flagged)
        assert gauges["pool.straggler.stall_intervals"] >= 4

        # 3. the monitor snapshot (same payload `--json` emits) shows it
        payload = monitor.snapshot(status)
        assert payload["state"] == "done"
        assert slow_shard in payload["stragglers"]
        flagged_rows = [s for s in payload["shards"] if s["flagged"]]
        assert slow_shard in {s["shard"] for s in flagged_rows}

        # 4. the simulation itself was untouched by the stall
        baseline = _run_fleet(population, library, shards=2, workers=workers)
        assert _session_map(baseline) == _session_map(result)


class TestMonitor:
    def test_snapshot_sources_and_terminal_fallbacks(self, population, library,
                                                     tmp_path):
        status = tmp_path / "status.json"
        with live_run(status, run_id="snap", interval=0.05) as run:
            run.begin_fleet_run(run_id="snap", num_shards=2, day=0)
            payload = monitor.snapshot(status)
            assert payload["source"] == "shared-memory"
            assert payload["state"] == "running"
        # after close: shared memory is gone, the embedded final payload serves
        payload = monitor.snapshot(status)
        assert payload["source"] == "status-file"
        assert payload["state"] == "done"
        assert payload["stragglers_detail"] == []

        # a status file with neither live table nor final snapshot still renders
        doc = json.loads(status.read_text())
        del doc["final"]
        status.write_text(json.dumps(doc))
        payload = monitor.snapshot(status)
        assert payload["state"] == "done"
        assert payload["shards"] == []

        with pytest.raises(ValueError, match="not a repro live status"):
            bogus = tmp_path / "bogus.json"
            bogus.write_text("{}")
            monitor.load_status_file(bogus)

    def test_main_json_mode(self, population, library, tmp_path, capsys):
        status = tmp_path / "status.json"
        _run_fleet(population, library, shards=2, status=status)
        assert monitor.main([str(status), "--json", "--samples", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        # terminal state: the sample loop stops after the first snapshot
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["state"] == "done"
        assert payload["totals"]["sessions_done"] == len(population) * 2

    def test_render_handles_live_and_empty_payloads(self, tmp_path):
        empty = monitor.render({"run_id": "r", "state": "running"})
        assert "run r" in empty
        rich = monitor.render(
            {
                "run_id": "r",
                "state": "running",
                "day": 2,
                "days_total": 5,
                "dau": 40,
                "roster": 50,
                "totals": {"sessions_done": 7, "throughput_sps": 3.5},
                "shards": [
                    {"shard": 0, "state": "running", "day_sessions": 3,
                     "day_total": 10, "eta_s": 4.2, "rss_bytes": 5 << 20,
                     "phase": "run_batch", "span": "vector.step",
                     "flagged": True, "error": "boom"},
                ],
                "stragglers": [0],
                "last_error": "shard 0: boom",
            }
        )
        assert "day 2/5" in rich
        assert "!!" in rich
        assert "stragglers: shards [0]" in rich
        assert "last error" in rich


class TestLiveRunLifecycle:
    def test_failed_close_writes_failure_state(self, tmp_path):
        status = tmp_path / "status.json"
        with pytest.raises(RuntimeError):
            with live_run(status, run_id="boom", interval=0.05):
                raise RuntimeError("injected")
        payload = monitor.snapshot(status)
        assert payload["state"] == "failed"
        assert "injected" in (payload.get("last_error") or "")

    def test_close_is_idempotent_and_clears_globals(self, tmp_path):
        from repro.obs import live as obs_live

        with live_run(tmp_path / "s.json", run_id="x", interval=0.05) as run:
            assert obs_live.active_run() is run
            name = run.table.name
        assert obs_live.active_run() is None
        # SHM-005: the owning LiveRun unlinks its progress table.
        assert not os.path.exists("/dev/shm/" + name.lstrip("/"))
        run.close()  # second close: no-op

    def test_campaign_header_fields(self, tmp_path):
        status = tmp_path / "status.json"
        with live_run(status, run_id="camp", interval=0.05) as run:
            run.begin_campaign(start_day=0, days=4, run_id="campaign-1")
            run.note_day(day=2, dau=33, roster=41)
            payload = monitor.snapshot(status)
        assert payload["run_id"] == "campaign-1"
        assert payload["day"] == 2
        assert payload["days_total"] == 4
        assert payload["dau"] == 33
        assert payload["roster"] == 41
