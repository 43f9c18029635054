"""The telemetry reader: exactness against the live run, index, bounded memory.

Everything the one reader gives back from a telemetry file — sessions,
aggregates, link samples, the run summary and the run report — must equal
what the live run itself holds (``result.logs``, ``result.metrics``,
``result.link_utilization()``, ``result.obs_report``), bit for bit, while a
streamed aggregate holds one session at a time.  The sidecar index must skip
chunks correctly, survive round-trips, and rebuild itself when the
telemetry file changes underneath it.  Peak memory must stay flat as the
file grows 10x, and a torn line must be reported with its file and offset.
"""

from __future__ import annotations

import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from repro.analytics.logs import exit_rate_by_stall_time, segment_exit_rate
from repro.fleet import FleetConfig, FleetOrchestrator, fleet_metrics
from repro.fleet.telemetry import session_from_payload, session_payload
from repro.obs.report import load_report
from repro.obs.telemetry_reader import (
    TelemetryIndex,
    default_index_path,
    iter_events,
    iter_session_logs,
    last_event,
    load_or_build_index,
    read_run_summary,
    replay_link_utilization,
    replay_log_collection,
    stream_fleet_metrics,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

STALL_BINS = [0.0, 1.0, 2.0, 4.0, 8.0]


@pytest.fixture(scope="module")
def telemetry(tmp_path_factory):
    """One profiled fleet run's telemetry file plus its live result."""
    from repro import obs

    population = UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)
    library = VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)
    path = tmp_path_factory.mktemp("telemetry") / "telemetry.jsonl"
    obs.enable()
    try:
        result = FleetOrchestrator(
            FleetConfig(
                num_shards=2,
                num_workers=0,
                sessions_per_user=2,
                trace_length=40,
                seed=9,
                backend="vector",
                network="dual_isp",
            )
        ).run(population, library, telemetry_path=path)
    finally:
        obs.disable()
    return path, result


class TestReaderMatchesLiveRun:
    def test_fleet_metrics_match_live_run_exactly(self, telemetry):
        path, result = telemetry
        assert stream_fleet_metrics(path).as_dict() == result.metrics.as_dict()
        # the live metrics come from the same accumulator over result.logs
        assert fleet_metrics(result.logs).as_dict() == result.metrics.as_dict()

    def test_fleet_metrics_with_index_match_live_run(self, telemetry):
        path, result = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=7)
        assert stream_fleet_metrics(path, index=index).as_dict() == (
            result.metrics.as_dict()
        )

    def test_segment_exit_rate_matches_live_run(self, telemetry):
        path, result = telemetry
        assert segment_exit_rate(iter_session_logs(path)) == (
            result.logs.segment_exit_rate()
        )

    def test_exit_rate_by_stall_time_bit_exact(self, telemetry):
        path, result = telemetry
        streamed = exit_rate_by_stall_time(
            iter_session_logs(path), STALL_BINS, min_samples=5
        )
        live = result.logs.exit_rate_by_stall_time(STALL_BINS, min_samples=5)
        np.testing.assert_array_equal(streamed, live)

    def test_sessions_replay_equal_to_live_logs_in_order(self, telemetry):
        path, result = telemetry
        live = list(result.logs)
        assert list(iter_session_logs(path)) == live
        assert list(replay_log_collection(path)) == live

    def test_link_utilization_replays_exactly(self, telemetry):
        path, result = telemetry
        live = result.link_utilization()
        replayed = replay_link_utilization(path)
        assert replayed.samples == live.samples
        assert replayed.mean_utilization() == live.mean_utilization()

    def test_run_summary_and_report_match_live_run(self, telemetry):
        path, result = telemetry
        index = load_or_build_index(path, save=False)
        for summary in (
            read_run_summary(path),
            read_run_summary(path, index=index),
            read_run_summary(path, run_id=result.run_id),
        ):
            assert {key: summary[key] for key in result.metrics.as_dict()} == (
                result.metrics.as_dict()
            )
            assert summary["total_batch_sessions"] == result.total_batch_sessions
        expected_report = json.loads(json.dumps(result.obs_report))
        assert last_event(path, "run_report", index=index).payload == expected_report
        assert load_report(path) == expected_report

    def test_run_id_selects_the_run(self, telemetry):
        path, _ = telemetry
        assert last_event(path, "run_end", run_id="no-such-run") is None
        with pytest.raises(ValueError, match="no run_end event"):
            read_run_summary(path, run_id="no-such-run")

    def test_empty_file_aggregates(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        metrics = stream_fleet_metrics(path)
        assert metrics.num_sessions == 0
        assert metrics.mean_bitrate_kbps == 0.0
        assert np.isnan(segment_exit_rate(iter_session_logs(path)))
        assert np.isnan(exit_rate_by_stall_time(iter_session_logs(path), STALL_BINS)).all()
        with pytest.raises(ValueError, match="no run_end event"):
            read_run_summary(path)
        with pytest.raises(ValueError, match="no telemetry events"):
            replay_log_collection(path)


class TestSessionDecoder:
    """A decoded record must carry exactly the ``SegmentRecord`` fields."""

    def _payload(self, telemetry):
        _path, result = telemetry
        log = next(log for log in result.logs if len(log.trace))
        return log, session_payload(log)

    def test_round_trip_equals_the_live_session(self, telemetry):
        log, payload = self._payload(telemetry)
        assert session_from_payload(log.user_id, payload) == log

    def test_missing_key_is_rejected(self, telemetry):
        log, payload = self._payload(telemetry)
        del payload["records"][0]["stall_time"]
        with pytest.raises(TypeError):
            session_from_payload(log.user_id, payload)

    def test_unknown_key_is_rejected(self, telemetry):
        log, payload = self._payload(telemetry)
        payload["records"][-1]["stall_seconds"] = 0.0
        with pytest.raises(TypeError):
            session_from_payload(log.user_id, payload)


class TestTornLine:
    def test_torn_last_line_names_file_and_offset(self, telemetry, tmp_path):
        path, _ = telemetry
        data = path.read_bytes()
        last_line = data.splitlines(keepends=True)[-1]
        offset = len(data) - len(last_line)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data)
        # an index built while the file was whole still points at the line
        index = TelemetryIndex.build(torn, events_per_chunk=4)
        torn.write_bytes(data[: offset + len(last_line) // 2])
        message = re.escape(f"{torn}: unreadable telemetry line at byte offset {offset} ")

        with pytest.raises(ValueError, match=message):
            list(iter_events(torn))
        with pytest.raises(ValueError, match=message):
            list(iter_events(torn, event="run_end", index=index))
        with pytest.raises(ValueError, match=message):
            TelemetryIndex.build(torn)
        with pytest.raises(ValueError, match=message):
            load_or_build_index(torn, save=False)
        with pytest.raises(ValueError, match=message):
            read_run_summary(torn)
        with pytest.raises(ValueError, match=message):
            load_report(torn)


class TestIndex:
    def test_chunks_cover_file_and_counts_sum(self, telemetry):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=5)
        assert index.num_events == sum(c.num_events for c in index.chunks)
        assert all(c.num_events <= 5 for c in index.chunks)
        for event, total in index.event_counts.items():
            assert total == sum(c.counts.get(event, 0) for c in index.chunks)
        # every event is reachable through its chunks
        assert index.count("session") == sum(
            1 for _ in iter_events(path, event="session")
        )
        assert index.count("run_end") == 1

    def test_chunk_skipping_filter_equals_full_scan(self, telemetry):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=4)
        for event in index.event_counts:
            with_index = [e.payload for e in iter_events(path, event=event, index=index)]
            without = [e.payload for e in iter_events(path, event=event)]
            assert with_index == without
        # the rare event's filter reads only the chunks that contain it
        rare_chunks = list(index.chunks_with("run_end"))
        assert len(rare_chunks) < len(index.chunks)

    def test_last_event_uses_index(self, telemetry):
        path, result = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=4)
        plain = last_event(path, "session")
        indexed = last_event(path, "session", index=index)
        assert plain is not None and indexed is not None
        assert plain.payload == indexed.payload
        assert plain.user_id == result.logs[len(result.logs) - 1].user_id
        assert last_event(path, "no_such_event", index=index) is None

    def test_save_load_roundtrip(self, telemetry, tmp_path):
        path, _ = telemetry
        index = TelemetryIndex.build(path, events_per_chunk=8)
        saved = index.save(tmp_path / "t.idx.json")
        loaded = TelemetryIndex.load(saved)
        assert loaded == index

    def test_load_rejects_foreign_documents(self, tmp_path):
        bogus = tmp_path / "x.idx.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a telemetry index"):
            TelemetryIndex.load(bogus)
        bogus.write_text(json.dumps({"kind": "repro-telemetry-index", "version": 99}))
        with pytest.raises(ValueError, match="version 99"):
            TelemetryIndex.load(bogus)

    def test_load_or_build_rebuilds_on_staleness(self, telemetry, tmp_path):
        path, _ = telemetry
        copy = tmp_path / "telemetry.jsonl"
        copy.write_bytes(path.read_bytes())
        first = load_or_build_index(copy)
        assert default_index_path(copy).exists()
        # fresh index: loading hits the sidecar, no rebuild
        assert load_or_build_index(copy) == first
        # the file grows: the sidecar is stale and must be rebuilt
        with copy.open("a") as handle:
            handle.write(json.dumps({"event": "extra", "payload": {}}) + "\n")
        rebuilt = load_or_build_index(copy)
        assert rebuilt != first
        assert rebuilt.count("extra") == 1
        # corrupt sidecar: silently rebuilt too
        default_index_path(copy).write_text("not json")
        assert load_or_build_index(copy).count("extra") == 1

    def test_same_length_rewrite_triggers_rebuild(self, tmp_path):
        """A same-byte-count rewrite must not serve the stale sidecar.

        Size-only freshness misses in-place rewrites (same byte count,
        different content) — the index must also key on mtime_ns.
        """
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(
                json.dumps({"event": "aaa", "payload": {"i": i}}) + "\n"
                for i in range(5)
            )
        )
        first = load_or_build_index(path)
        assert first.count("aaa") == 5
        # rewrite every event name in place: identical st_size, new content
        rewritten = path.read_bytes().replace(b'"aaa"', b'"bbb"')
        assert len(rewritten) == path.stat().st_size
        path.write_bytes(rewritten)
        # force a distinct mtime_ns: coarse filesystem timestamp granularity
        # could otherwise make the rewrite look instantaneous
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        rebuilt = load_or_build_index(path)
        assert rebuilt.file_mtime_ns != first.file_mtime_ns
        assert rebuilt.count("aaa") == 0
        assert rebuilt.count("bbb") == 5


class TestBoundedMemory:
    def _enlarge(self, path, out, factor):
        """Repeat the session events ``factor`` times, keeping run events."""
        lines = path.read_bytes().splitlines(keepends=True)
        sessions = [l for l in lines if b'"event": "session"' in l or b'"event":"session"' in l]
        others = [l for l in lines if l not in sessions]
        assert sessions, "telemetry corpus has no session events"
        with out.open("wb") as handle:
            for line in others[:1]:
                handle.write(line)
            for _ in range(factor):
                for line in sessions:
                    handle.write(line)
            for line in others[1:]:
                handle.write(line)
        return out

    def _peak_bytes(self, read, path):
        tracemalloc.start()
        try:
            read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def _assert_flat(self, read, path, tmp_path, slack=512 * 1024, contrast=None):
        small = self._enlarge(path, tmp_path / "small.jsonl", 1)
        large = self._enlarge(path, tmp_path / "large.jsonl", 10)
        assert large.stat().st_size > 9 * small.stat().st_size

        # warm-up pass so imports/caches don't count against either side
        self._peak_bytes(read, small)
        peak_small = self._peak_bytes(read, small)
        peak_large = self._peak_bytes(read, large)
        # the peak must not scale with file size (a materialising reader
        # would be ~10x); ``slack`` absorbs allocator noise on tiny peaks
        assert peak_large < max(2.0 * peak_small, peak_small + slack)
        if contrast is not None:
            # the materialising path must scale, or the corpus is too small
            # for a flat peak to mean anything
            assert self._peak_bytes(contrast, large) > 2.0 * peak_small

    def test_peak_memory_flat_as_file_grows_10x(self, telemetry, tmp_path):
        def read(path):
            stream_fleet_metrics(path)
            exit_rate_by_stall_time(iter_session_logs(path), STALL_BINS)

        self._assert_flat(read, telemetry[0], tmp_path)

    def test_load_report_memory_flat_as_file_grows_10x(self, telemetry, tmp_path):
        self._assert_flat(load_report, telemetry[0], tmp_path)

    def test_streamed_metrics_peak_at_most_doubles_without_slack(self, tmp_path):
        """A 64-user day, large enough that the streaming peak needs no
        absolute slack while the in-memory replay's peak scales."""
        population = UserPopulation.generate(64, seed=0, bandwidth_median_kbps=4000.0)
        library = VideoLibrary(
            num_videos=4, mean_duration=40.0, std_duration=12.0, seed=1
        )
        path = tmp_path / "telemetry.jsonl"
        FleetOrchestrator(
            FleetConfig(
                num_shards=2,
                num_workers=0,
                sessions_per_user=2,
                trace_length=60,
                seed=0,
                backend="vector",
            )
        ).run(population, library, telemetry_path=path)

        def replay(path):
            return fleet_metrics(replay_log_collection(path))

        self._assert_flat(
            stream_fleet_metrics, path, tmp_path, slack=0, contrast=replay
        )
        for factor in (1, 4, 10):
            enlarged = self._enlarge(path, tmp_path / f"x{factor}.jsonl", factor)
            replayed = replay(enlarged).as_dict()
            assert stream_fleet_metrics(enlarged).as_dict() == replayed
            index = load_or_build_index(enlarged)
            assert stream_fleet_metrics(enlarged, index=index).as_dict() == replayed

    def test_enlarged_file_still_aggregates_exactly(self, telemetry, tmp_path):
        path, result = telemetry
        large = self._enlarge(path, tmp_path / "large.jsonl", 3)
        assert stream_fleet_metrics(large).as_dict() == (
            fleet_metrics(list(result.logs) * 3).as_dict()
        )
