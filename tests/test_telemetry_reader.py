"""The telemetry reader: exactness against the live run, bounded memory.

Everything the one reader gives back from a telemetry file — sessions,
aggregates, link samples, the run summary and the run report — must equal
what the live run itself holds (``result.logs``, ``result.metrics``,
``result.link_utilization()``, ``result.obs_report``), bit for bit, while a
streamed aggregate holds one session at a time.  Every read scans the file
as it is now, so appends and rewrites show at once.  Peak memory must stay
flat as the file grows 10x, and a torn line must be reported by every
streaming reader with its file and offset.
"""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest

from repro.analytics.logs import exit_rate_by_stall_time, segment_exit_rate
from repro.fleet import FleetConfig, FleetOrchestrator, fleet_metrics
from repro.fleet.telemetry import session_from_payload, session_payload
from repro.obs.report import load_report
from repro.obs.telemetry_reader import (
    iter_events,
    iter_session_logs,
    last_event,
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
        for summary in (
            read_run_summary(path),
            read_run_summary(path, run_id=result.run_id),
        ):
            assert {key: summary[key] for key in result.metrics.as_dict()} == (
                result.metrics.as_dict()
            )
            assert summary["total_batch_sessions"] == result.total_batch_sessions
        expected_report = json.loads(json.dumps(result.obs_report))
        assert last_event(path, "run_report").payload == expected_report
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
        torn.write_bytes(data[: offset + len(last_line) // 2])
        message = re.escape(f"{torn}: unreadable telemetry line at byte offset {offset} ")

        with pytest.raises(ValueError, match=message):
            list(iter_events(torn))
        with pytest.raises(ValueError, match=message):
            list(iter_session_logs(torn))
        with pytest.raises(ValueError, match=message):
            stream_fleet_metrics(torn)
        with pytest.raises(ValueError, match=message):
            last_event(torn, "run_end")
        with pytest.raises(ValueError, match=message):
            read_run_summary(torn)
        with pytest.raises(ValueError, match=message):
            replay_log_collection(torn)
        with pytest.raises(ValueError, match=message):
            replay_link_utilization(torn)
        with pytest.raises(ValueError, match=message):
            load_report(torn)


def _write_events(path, events):
    path.write_text(
        "".join(json.dumps({"event": event, "payload": payload}) + "\n" for event, payload in events)
    )
    return path


class TestFullScan:
    """Every read scans the file as it is now: no cached state, exact offsets."""

    def test_event_filter_equals_filtered_full_scan(self, telemetry):
        path, _ = telemetry
        everything = list(iter_events(path))
        kinds = {parsed.event for parsed in everything}
        assert {"session", "run_end", "run_report", "link_utilization"} <= kinds
        for kind in kinds:
            filtered = [parsed.payload for parsed in iter_events(path, event=kind)]
            assert filtered == [p.payload for p in everything if p.event == kind]
        assert list(iter_events(path, event="no_such_event")) == []

    def test_event_counts_match_live_run(self, telemetry):
        path, result = telemetry
        assert sum(1 for _ in iter_events(path, event="session")) == len(result.logs)
        assert sum(1 for _ in iter_events(path, event="run_end")) == 1
        assert sum(1 for _ in iter_events(path, event="run_report")) == 1

    def test_last_event_is_the_last_of_its_type(self, telemetry):
        path, result = telemetry
        last = last_event(path, "session")
        assert last is not None
        assert last.payload == list(iter_events(path, event="session"))[-1].payload
        assert last.user_id == result.logs[len(result.logs) - 1].user_id
        assert last_event(path, "no_such_event") is None

    def test_appended_event_is_read_on_next_scan(self, telemetry, tmp_path):
        path, _ = telemetry
        copy = tmp_path / "telemetry.jsonl"
        copy.write_bytes(path.read_bytes())
        before = sum(1 for _ in iter_events(copy))
        assert last_event(copy, "extra") is None
        with copy.open("a") as handle:
            handle.write(json.dumps({"event": "extra", "payload": {"i": 1}}) + "\n")
        assert sum(1 for _ in iter_events(copy)) == before + 1
        assert last_event(copy, "extra").payload == {"i": 1}

    def test_same_length_rewrite_is_read_fresh(self, tmp_path):
        path = _write_events(tmp_path / "telemetry.jsonl", [("aaa", {"i": i}) for i in range(5)])
        assert [p.payload["i"] for p in iter_events(path, event="aaa")] == list(range(5))
        rewritten = path.read_bytes().replace(b'"aaa"', b'"bbb"')
        assert len(rewritten) == path.stat().st_size
        path.write_bytes(rewritten)
        assert list(iter_events(path, event="aaa")) == []
        assert [p.payload["i"] for p in iter_events(path, event="bbb")] == list(range(5))

    def test_blank_lines_are_skipped_and_counted_in_offsets(self, telemetry, tmp_path):
        path, _ = telemetry
        lines = path.read_bytes().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes(b"\n" + b"\n  \n".join(lines))
        assert [p.payload for p in iter_events(spaced)] == [
            p.payload for p in iter_events(path)
        ]
        data = spaced.read_bytes()
        offset = data.rindex(b"\n  \n") + len(b"\n  \n")
        spaced.write_bytes(data[: offset + len(lines[-1]) // 2])
        message = re.escape(f"{spaced}: unreadable telemetry line at byte offset {offset} ")
        with pytest.raises(ValueError, match=message):
            list(iter_events(spaced))

    def test_corrupt_middle_line_stops_the_scan_at_its_offset(self, tmp_path):
        path = _write_events(tmp_path / "telemetry.jsonl", [("a", {"i": i}) for i in range(3)])
        data = path.read_bytes()
        first_two = sum(len(line) for line in data.splitlines(keepends=True)[:2])
        for corrupt in (b"{not json\n", b"[1, 2]\n", b'"text"\n'):
            path.write_bytes(data[:first_two] + corrupt + data[first_two:])
            events = iter_events(path)
            assert [next(events).payload["i"] for _ in range(2)] == [0, 1]
            message = re.escape(
                f"{path}: unreadable telemetry line at byte offset {first_two} "
            )
            with pytest.raises(ValueError, match=message):
                next(events)

    def test_run_events_only_file_replays_an_empty_collection(self, tmp_path):
        path = _write_events(
            tmp_path / "day.jsonl", [("run_start", {}), ("run_end", {"num_sessions": 0})]
        )
        assert list(replay_log_collection(path)) == []
        assert read_run_summary(path) == {"num_sessions": 0}
        assert stream_fleet_metrics(path).num_sessions == 0

    def test_link_replay_needs_link_samples(self, tmp_path):
        path = _write_events(
            tmp_path / "day.jsonl", [("run_start", {}), ("run_end", {"num_sessions": 0})]
        )
        with pytest.raises(ValueError, match="no link_utilization events"):
            replay_link_utilization(path)


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

    def test_enlarged_file_still_aggregates_exactly(self, telemetry, tmp_path):
        path, result = telemetry
        large = self._enlarge(path, tmp_path / "large.jsonl", 3)
        assert stream_fleet_metrics(large).as_dict() == (
            fleet_metrics(list(result.logs) * 3).as_dict()
        )
