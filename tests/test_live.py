"""Live fleet monitor: heartbeats, watchdog/stragglers, and trace neutrality.

The live layer's contract mirrors ``repro.obs``'s: it must be *provably
inert*.  Heartbeats read only wall-clock time and travel only to the
parent's shard table (directly inline, over the worker pipe when pooled), so
every simulated byte must be bit-exact with monitoring on or off,
inline or pooled — and the heartbeat rows themselves must look the same
regardless of execution mode.  On top of that the watchdog must actually
catch a stalled shard (straggler injection) and surface it through every
channel: the table's flags, the monitor snapshot, the run report's
``live`` section, and the ``pool.straggler.*`` metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
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


def _row(run, shard):
    """``shard``'s row in a live run's table, with its straggler flags."""
    return {row.shard: row for row in run.status().shards}[shard]


class TestShardTable:
    def test_publisher_lifecycle_with_cumulative_days(self):
        run = LiveRun(interval=0.01, run_id="pub", watchdog=False)
        publisher = HeartbeatPublisher(run.apply_beat, interval=0.01)
        publisher.begin_shard(1, day=0)
        assert _row(run, 1).state == "running"
        publisher.set_total(8)
        publisher.add_sessions(3, 30)
        time.sleep(0.02)
        publisher.maybe_publish()
        row = _row(run, 1)
        assert row.state == "running" and row.pid == os.getpid()
        assert (row.day_sessions, row.day_total, row.segments_done) == (3, 8, 30)
        assert row.sessions_done == 3 and row.shards_done == 0
        publisher.finish_shard(8, 80)
        row = _row(run, 1)
        assert row.state == "done" and row.phase == "done"
        assert (row.sessions_done, row.segments_done, row.shards_done) == (8, 80, 1)

        # day 2 on the same shard: the table carries the cumulative counters
        publisher.begin_shard(1, day=1)
        row = _row(run, 1)
        assert row.state == "running" and row.day == 1 and row.day_sessions == 0
        assert (row.sessions_done, row.segments_done, row.shards_done) == (8, 80, 1)
        publisher.finish_shard(2, 20)
        row = _row(run, 1)
        assert (row.sessions_done, row.segments_done, row.shards_done) == (10, 100, 2)

        # a failing day keeps its partial counts and names the error
        publisher.begin_shard(1, day=2)
        publisher.add_sessions(1, 5)
        publisher.fail_shard("ValueError: boom")
        row = _row(run, 1)
        assert (row.state, row.phase, row.error) == ("failed", "failed", "ValueError: boom")
        assert (row.sessions_done, row.segments_done, row.shards_done) == (11, 105, 2)
        publisher.add_sessions(1)  # no shard open: nothing is published
        publisher.finish_shard()
        assert _row(run, 1).state == "failed"

        status = run.status()
        assert [s.shard for s in status.shards] == [1]
        assert status.sessions_done == 11
        payload = status.as_payload()
        assert payload["kind"] == "live-status"
        assert payload["totals"]["sessions_done"] == 11
        assert payload["totals"]["shards_done"] == 2
        json.dumps(payload)  # payloads must be JSON-serialisable

    def test_concurrent_beats_and_watchdog_lose_no_update(self, tmp_path):
        """Inline shards on several threads beat into one table while the
        watchdog ticks and rewrites the status file: every day's counts
        land, and the last write agrees with the table."""
        status = tmp_path / "status.json"
        run = LiveRun(status, interval=0.001, stall_intervals=10**6, run_id="stress")
        days, shards = 20, 6

        def shard_days(shard):
            publisher = HeartbeatPublisher(run.apply_beat, interval=0.0)
            for day in range(days):
                publisher.begin_shard(shard, day)
                for _ in range(5):
                    publisher.add_sessions(1, 10)
                publisher.finish_shard(5, 50)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=shard_days, args=(shard,))
                       for shard in range(shards)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            run.close()
        rows = run.status().shards
        assert [(r.shard, r.shards_done, r.sessions_done, r.segments_done)
                for r in rows] == [(i, days, 5 * days, 50 * days) for i in range(shards)]
        payload = monitor.snapshot(status)
        assert payload["state"] == "done"
        assert payload["totals"]["sessions_done"] == shards * days * 5
        assert payload["totals"]["shards_done"] == shards * days

    def test_eta_extrapolates_day_progress(self):
        run = LiveRun(interval=0.01, run_id="eta", watchdog=False)
        run.apply_beat(0, _beat(updated_at=101.0, started_at=100.0))
        # ETA: 4 of 10 sessions in 1s -> 1.5s remaining
        assert _row(run, 0).eta_s(now=101.0) == pytest.approx(1.5, rel=1e-6)

    def test_shard_index_past_64_is_reported(self, tmp_path):
        status = tmp_path / "status.json"
        with live_run(status, run_id="wide", interval=0.05, watchdog=False) as run:
            run.begin_fleet_run(run_id="wide", num_shards=71, day=0)
            publisher = HeartbeatPublisher(run.apply_beat, interval=0.05)
            publisher.begin_shard(70, day=0)
            publisher.finish_shard(5, 50)
            summary = run.summary()
        assert [s["shard"] for s in summary["shards"]] == [70]
        assert summary["sessions_done"] == 5
        payload = monitor.snapshot(status)
        assert [s["shard"] for s in payload["shards"]] == [70]
        assert payload["totals"]["sessions_done"] == 5


def _beat(*, updated_at, started_at=None, state=STATE_RUNNING, error=""):
    return {
        "state": state, "pid": os.getpid(), "day": 0, "day_sessions": 4,
        "day_total": 10, "day_segments": 40, "rss_bytes": 0,
        "started_at": updated_at - 1.0 if started_at is None else started_at,
        "updated_at": updated_at, "phase": "run_batch", "span": "",
        "error": error,
    }


class TestWatchdog:
    def _running_row(self, run, shard, updated_at):
        run.apply_beat(shard, _beat(updated_at=updated_at))

    def test_flags_after_k_frozen_intervals_and_stays_sticky(self):
        run = LiveRun(interval=0.01, stall_intervals=3,
                      run_id="wd", watchdog=False)
        try:
            self._running_row(run, 0, updated_at=1000.0)
            assert run.watchdog_tick() == []  # records the baseline key
            assert run.watchdog_tick() == []  # stalls=1
            assert run.watchdog_tick() == []  # stalls=2
            assert run.watchdog_tick() == [0]  # stalls=3 == stall_intervals
            assert run.watchdog_tick() == []  # already flagged, not re-reported
            row = _row(run, 0)
            assert row.flagged and row.stalled_intervals >= 3
            stragglers = run.stragglers()
            assert [s["shard"] for s in stragglers] == [0]
            assert stragglers[0]["phase"] == "run_batch"
            assert stragglers[0]["stalled_intervals"] >= 3
            assert run.summary()["stragglers"] == stragglers

            # progress resumes: the stall counter resets, the flag is sticky
            self._running_row(run, 0, updated_at=1001.0)
            run.watchdog_tick()
            row = _row(run, 0)
            assert row.flagged and row.stalled_intervals == 0
        finally:
            run.close()

    def test_progressing_row_never_flags(self):
        run = LiveRun(interval=0.01, stall_intervals=2,
                      run_id="wd2", watchdog=False)
        try:
            for i in range(8):
                self._running_row(run, 0, updated_at=1000.0 + i)
                assert run.watchdog_tick() == []
            assert not _row(run, 0).flagged
        finally:
            run.close()

    def test_failed_row_error_surfaces_in_header(self):
        run = LiveRun(interval=0.01, stall_intervals=2,
                      run_id="wd3", watchdog=False)
        try:
            publisher = HeartbeatPublisher(run.apply_beat, interval=0.01)
            publisher.begin_shard(1, day=0)
            publisher.fail_shard("ValueError: boom")
            run.watchdog_tick()
            assert run.status().last_error == "shard 1: ValueError: boom"
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
    def test_snapshot_reads_the_status_file(self, tmp_path):
        status = tmp_path / "status.json"
        with live_run(status, run_id="snap", interval=0.05) as run:
            run.begin_fleet_run(run_id="snap", num_shards=2, day=0)
            payload = monitor.snapshot(status)
            assert payload["state"] == "running"
            assert payload["num_shards"] == 2
        # after close the last write is the post-mortem view
        payload = monitor.snapshot(status)
        assert payload["state"] == "done"
        assert payload["shards"] == [] and payload["stragglers"] == []
        assert "shm_name" not in payload

        with pytest.raises(ValueError, match="not a repro live status"):
            bogus = tmp_path / "bogus.json"
            bogus.write_text("{}")
            monitor.load_status_file(bogus)

    def test_killed_run_reads_as_vanished(self, tmp_path, capsys):
        """A run killed before its close leaves ``running`` in the file; once
        its process is gone the monitor reports ``vanished`` and returns."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: the pid no longer exists
        status = tmp_path / "status.json"
        LiveRun(status, run_id="killed", watchdog=False)
        doc = json.loads(status.read_text())
        assert doc["state"] == "running"
        doc["pid"] = child.pid
        status.write_text(json.dumps(doc))

        assert monitor.snapshot(status)["state"] == "vanished"
        assert monitor.main([str(status), "--interval", "0.01"]) == 0
        assert "[vanished]" in capsys.readouterr().out
        assert monitor.main([str(status), "--json", "--samples", "3",
                             "--interval", "0.01"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["state"] == "vanished"

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
            assert obs_live._PUBLISHER is not None
        assert obs_live.active_run() is None
        assert obs_live._PUBLISHER is None
        run.close()  # second close: no-op
        assert monitor.snapshot(tmp_path / "s.json")["state"] == "done"

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
