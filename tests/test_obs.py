"""Observability layer: registry merging, span trees, and trace neutrality.

The hard requirement on ``repro.obs`` is that it is *provably inert*: every
simulated byte must be bit-exact whether profiling is enabled or disabled
(spans read ``time.perf_counter`` and nothing else — never the simulation
RNG).  This suite pins that, plus the deterministic cross-process merge
semantics (counters sum, gauges max, histograms bucket-wise) and the
structural identity of the span tree across shard/worker counts.
"""

from __future__ import annotations

import json

import pytest
from test_golden_traces import GOLDEN_CASES, _roundtrip, _run_case

from repro import obs
from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    LongitudinalCampaign,
    LongitudinalConfig,
    write_fleet_telemetry,
)
from repro.net import CacheModel, EdgeLink, NetworkTopology
from repro.obs.registry import Histogram
from repro.obs.telemetry_reader import last_event, read_run_summary
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


@pytest.fixture(autouse=True)
def obs_disabled_after():
    """No test may leak an enabled collector into the rest of the suite."""
    yield
    obs.disable()


@pytest.fixture(scope="module")
def population() -> UserPopulation:
    return UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)


@pytest.fixture(scope="module")
def library() -> VideoLibrary:
    return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)


def _run_fleet(population, library, *, shards, workers=0, profile=False,
               telemetry=None, **overrides):
    if profile:
        obs.enable()
    try:
        settings = dict(
            num_shards=shards,
            num_workers=workers,
            sessions_per_user=2,
            trace_length=40,
            seed=9,
            backend="vector",
            network="dual_isp",
        )
        config = FleetConfig(**{**settings, **overrides})
        return FleetOrchestrator(config).run(
            population, library, telemetry_path=telemetry
        )
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


class TestRegistry:
    def test_counters_sum_gauges_max_histograms_bucketwise(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter_add("x", 2)
        b.counter_add("x", 3)
        a.gauge_max("g", 5.0)
        b.gauge_max("g", 4.0)
        a.observe("h", 0.5)
        b.observe("h", 2.0)
        a.merge(b)
        payload = a.as_payload()
        assert payload["counters"]["x"] == 5
        assert payload["gauges"]["g"] == 5.0
        assert payload["histograms"]["h"]["count"] == 2
        assert payload["histograms"]["h"]["total"] == 2.5
        assert payload["histograms"]["h"]["min"] == 0.5
        assert payload["histograms"]["h"]["max"] == 2.0

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_merge_is_partition_invariant(self, num_shards):
        """Merging k shard registries gives the same payload for every k."""
        # dyadic values: their float sums are exact in any order, so the
        # payload comparison below is bit-exact rather than approximate
        observations = [(i % 5, 0.25 * (i + 1)) for i in range(40)]

        shards = [obs.MetricsRegistry() for _ in range(num_shards)]
        for i, (bucket, value) in enumerate(observations):
            registry = shards[i % num_shards]
            registry.counter_add(f"c{bucket}")
            registry.gauge_max("peak", value)
            registry.observe("latency", value)

        merged = obs.MetricsRegistry()
        for shard in shards:
            # merge accepts live registries and serialised payloads alike
            # (the orchestrator receives payloads from pool workers)
            merged.merge(shard.as_payload() if num_shards % 2 else shard)

        reference = obs.MetricsRegistry()
        for bucket, value in observations:
            reference.counter_add(f"c{bucket}")
            reference.gauge_max("peak", value)
            reference.observe("latency", value)
        assert merged.as_payload() == reference.as_payload()

    def test_histogram_payload_roundtrip(self):
        h = Histogram()
        for value in (1e-7, 0.003, 4.2, 1e7):
            h.observe(value)
        assert Histogram.from_payload(h.as_payload()).as_payload() == h.as_payload()
        empty = Histogram()
        assert empty.as_payload()["min"] is None
        assert empty.as_payload()["max"] is None


class TestSpans:
    def test_span_tree_shape_and_helpers(self):
        with obs.collect() as collector:
            with obs.span("outer"):
                for _ in range(3):
                    with obs.span("inner"):
                        pass
                with obs.span("other"):
                    pass
        snapshot = collector.snapshot()
        assert obs.span_names(snapshot["spans"]) == [
            "outer",
            "outer/inner",
            "outer/other",
        ]
        inner = obs.find_span(snapshot["spans"], "outer/inner")
        assert inner["count"] == 3
        assert obs.find_span(snapshot["spans"], "outer/missing") is None
        outer = obs.find_span(snapshot["spans"], "outer")
        assert 0.0 <= obs.span_coverage(outer) <= 1.0

    def test_merge_shard_snapshot_grafts_under_open_span(self):
        with obs.collect() as worker:
            with obs.span("shard.run"):
                obs.counter_add("work", 7)
        shard_snapshot = worker.snapshot()

        with obs.collect() as parent:
            with obs.span("fleet.run_shards"):
                obs.merge_shard_snapshot(shard_snapshot)
            snapshot = parent.snapshot()
        assert obs.span_names(snapshot["spans"]) == [
            "fleet.run_shards",
            "fleet.run_shards/shard.run",
        ]
        assert snapshot["metrics"]["counters"]["work"] == 7

    def test_disabled_is_inert_noop(self):
        assert not obs.enabled()
        assert obs.active() is None
        noop = obs.span("anything")
        assert noop is obs.span("anything else")  # shared singleton, no alloc
        with noop:
            pass
        obs.counter_add("ignored")
        obs.gauge_max("ignored", 1.0)
        obs.observe("ignored", 1.0)
        with obs.collect() as collector:
            obs.counter_add("seen")
        assert collector.snapshot()["metrics"]["counters"] == {"seen": 1}
        assert not obs.enabled()

    def test_disabled_span_overhead_smoke(self):
        """No-op spans must be cheap; generous bound to stay CI-safe."""
        import time

        start = time.perf_counter()
        for _ in range(100_000):
            with obs.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0


class TestFleetProfile:
    def test_profiled_run_is_bit_exact_vs_unprofiled(self, population, library):
        plain = _run_fleet(population, library, shards=2)
        profiled = _run_fleet(population, library, shards=2, profile=True)
        assert _session_map(plain) == _session_map(profiled)
        assert plain.metrics.as_dict() == profiled.metrics.as_dict()
        assert plain.obs_report is None
        assert profiled.obs_report is not None

    def test_span_structure_identical_across_shard_and_worker_counts(
        self, population, library
    ):
        reports = [
            _run_fleet(population, library, shards=shards, workers=workers,
                       profile=True).obs_report
            for shards, workers in [(1, 0), (2, 0), (2, 2), (4, 2)]
        ]
        names = [obs.span_names(report["spans"]) for report in reports]
        assert names[0] == names[1] == names[2] == names[3]
        # the pooled and inline paths emit the same skeleton
        assert "fleet.run_day/fleet.run_shards/shard.spawn" in names[0]
        assert "fleet.run_day/fleet.run_shards/shard.run/shard.run_batch" in names[0]

    def test_inline_run_report_holds_the_telemetry_encode_span(
        self, population, library, tmp_path
    ):
        """An inline profiled day builds its report once the shard chunks
        are written: the report, and its ``run_report`` event, hold one
        ``fleet.telemetry.encode`` span per shard.  With obs off the file's
        bytes are those of a direct ``write_fleet_telemetry`` (OBS-NEUTRAL-004)."""
        path = tmp_path / "profiled.jsonl"
        result = _run_fleet(population, library, shards=2, profile=True, telemetry=path)
        encode = "fleet.run_day/fleet.telemetry/fleet.telemetry.encode"
        assert obs.find_span(result.obs_report["spans"], encode)["count"] == 2
        replayed = last_event(path, "run_report").payload
        assert obs.find_span(replayed["spans"], encode)["count"] == 2

        off = tmp_path / "off.jsonl"
        plain = _run_fleet(population, library, shards=2, telemetry=off)
        assert plain.obs_report is None
        direct = write_fleet_telemetry(plain, tmp_path / "direct.jsonl")
        assert off.read_bytes() == direct.read_bytes()
        assert last_event(off, "run_report") is None

    def test_telemetry_encode_span_moves_no_byte(self, population, library, tmp_path):
        """OBS-NEUTRAL-004 on the write side: the encode span and the
        ``telemetry.session_rows`` counter change no telemetry byte."""
        result = _run_fleet(population, library, shards=2)
        off = write_fleet_telemetry(result, tmp_path / "off.jsonl").read_bytes()
        with obs.collect() as collector:
            on = write_fleet_telemetry(result, tmp_path / "on.jsonl").read_bytes()
        assert on == off
        snapshot = collector.snapshot()
        assert obs.find_span(snapshot["spans"], "fleet.telemetry.encode")["count"] == 2
        rows = snapshot["metrics"]["counters"]["telemetry.session_rows"]
        assert rows == result.metrics.num_segments

        # Pooled workers encode under a profiled shard's collector.
        blobs = {}
        for profile in (False, True):
            pooled = _run_fleet(
                population, library, shards=2, workers=2, profile=profile,
                telemetry=tmp_path / f"pooled-{profile}.jsonl",
            )
            # Every line but the shard summary, which carries its wall time.
            blobs[profile] = [
                output.telemetry_blob.rsplit(b"\n", 2)[0]
                for output in pooled.shard_outputs
            ]
        assert blobs[True] == blobs[False]
        assert all(blob in off for blob in blobs[False])
        spans = pooled.obs_report["spans"]
        encode = "fleet.run_day/fleet.run_shards/fleet.telemetry.encode"
        assert obs.find_span(spans, encode)["count"] == 2
        counters = pooled.obs_report["metrics"]["counters"]
        assert counters["telemetry.session_rows"] == rows

    def test_report_contents_and_coverage(self, population, library):
        result = _run_fleet(population, library, shards=2, workers=2, profile=True)
        report = result.obs_report
        assert report["version"] == obs.REPORT_VERSION
        assert report["sessions"] == result.metrics.num_sessions
        assert report["sessions"] == sum(
            s["sessions"] for s in report["per_shard"]
        )
        assert report["span_coverage"] >= 0.9
        assert report["fallback"]["total_batch_sessions"] == report["sessions"]
        counters = report["metrics"]["counters"]
        assert counters["fleet.shards"] == 2
        assert counters["allocator.slots"] > 0
        assert report["peak_rss_bytes"] is None or report["peak_rss_bytes"] > 0

    def test_low_lapsley_counters_reach_the_report_and_move_no_trace_byte(
        self, population, library
    ):
        """OBS-NEUTRAL-004: counting iterations and cap hits is inert."""
        tree = NetworkTopology(
            name="congested_tree",
            cache=CacheModel(hit_ratio=0.5),
            links=(
                EdgeLink("east", 6_000.0, uplinks=("peer", "origin")),
                EdgeLink("west", 5_000.0, uplinks=("peer", "origin")),
                EdgeLink("peer", 4_000.0, tier="peering"),
                EdgeLink("origin", 4_500.0, tier="origin"),
            ),
        )
        settings = dict(shards=1, network=tree, allocator="low_lapsley")
        plain = _run_fleet(population, library, **settings)
        profiled = _run_fleet(population, library, profile=True, **settings)
        assert _session_map(plain) == _session_map(profiled)
        assert plain.link_usage == profiled.link_usage
        assert any(s.demand_kbps > s.capacity_kbps for s in plain.link_usage)
        counters = profiled.obs_report["metrics"]["counters"]
        assert counters["allocator.low_lapsley.iterations"] > 0
        assert counters["allocator.low_lapsley.cap_hits"] == 0
        assert (
            f"low-lapsley      {counters['allocator.low_lapsley.iterations']} "
            "iterations, 0 cap hits" in obs.format_report(profiled.obs_report)
        )

    def test_run_report_and_fallback_fields_replay_from_telemetry(
        self, population, library, tmp_path
    ):
        telemetry = tmp_path / "telemetry.jsonl"
        result = _run_fleet(
            population, library, shards=2, profile=True, telemetry=telemetry
        )
        summary = read_run_summary(telemetry)
        assert summary["total_fallback_sessions"] == result.total_fallback_sessions
        assert summary["total_batch_sessions"] == result.total_batch_sessions
        assert summary["last_fallback_sessions"] == result.total_fallback_sessions
        assert summary["num_sessions"] == result.metrics.num_sessions
        replayed = last_event(telemetry, "run_report").payload
        assert replayed == json.loads(json.dumps(result.obs_report))

    def test_unprofiled_telemetry_has_no_run_report(
        self, population, library, tmp_path
    ):
        telemetry = tmp_path / "telemetry.jsonl"
        result = _run_fleet(population, library, shards=2, telemetry=telemetry)
        assert last_event(telemetry, "run_report") is None
        summary = read_run_summary(telemetry)
        assert summary["total_batch_sessions"] == result.total_batch_sessions


class TestLongitudinalProfile:
    def _campaign(self, population, library):
        config = LongitudinalConfig(
            days=2,
            seed=11,
            num_shards=2,
            num_workers=0,
            sessions_per_user=2,
            trace_length=40,
            backend="vector",
            network="dual_isp",
        )
        return LongitudinalCampaign(config).run(population, library)

    def test_campaign_bit_exact_and_span_shape(self, population, library):
        plain = self._campaign(population, library)
        obs.enable()
        try:
            profiled = self._campaign(population, library)
            report = obs.build_run_report(run_id="campaign")
        finally:
            obs.disable()

        def day_map(result):
            return {
                (day.day, log.user_id, log.session_index): tuple(log.trace.records)
                for day in result.days
                for log in day.result.logs
            }

        assert day_map(plain) == day_map(profiled)

        names = set(obs.span_names(report["spans"]))
        assert "campaign.run/campaign.day" in names
        assert "campaign.run/campaign.day/fleet.run_day" in names
        assert (
            "campaign.run/campaign.day/fleet.run_day/fleet.run_shards/"
            "shard.run/shard.run_batch" in names
        )
        assert "campaign.run/campaign.day/campaign.retention" in names
        day = obs.find_span(report["spans"], "campaign.run/campaign.day")
        assert day["count"] == 2  # days merge by name into one node
        assert report["span_coverage"] >= 0.9


class TestReportVersions:
    """Schema version, empty-run rendering, flexible loading."""

    def _empty_report(self):
        # what build_run_report writes for a run with no sessions and no spans
        return {
            "version": obs.REPORT_VERSION,
            "run_id": "empty",
            "wall_time_s": 0.0,
            "sessions": 0,
            "segments": 0,
            "sessions_per_second": 0.0,
            "segments_per_second": 0.0,
            "fallback": {"total_fallback_sessions": 0, "total_batch_sessions": 0},
            "peak_rss_bytes": None,
            "span_coverage": 1.0,
            "spans": {"children": []},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "live": None,
            "per_shard": [],
        }

    def test_v1_document_is_rejected(self, tmp_path):
        v1 = self._empty_report()
        v1["version"] = 1  # v1 predates the `live` section
        del v1["live"], v1["per_shard"]
        path = tmp_path / "report.json"
        obs.write_report(v1, path)
        with pytest.raises(ValueError, match="version 1 is not 2"):
            obs.load_report(path)

    def test_v2_reports_carry_live_section(self, population, library):
        result = _run_fleet(population, library, shards=2, profile=True)
        report = result.obs_report
        assert report["version"] == 2
        assert "live" in report and report["live"] is None  # no LiveRun attached
        assert report["per_shard"]

    def test_format_report_handles_empty_and_pooled_runs(self, population, library):
        empty_text = obs.format_report(self._empty_report())
        assert "run health report — empty" in empty_text
        assert "(no spans recorded)" in empty_text
        assert "per-shard" not in empty_text
        result = _run_fleet(population, library, shards=2, workers=2, profile=True)
        v2_text = obs.format_report(result.obs_report)
        assert "per-shard" in v2_text
        assert "fleet.run_day" in v2_text

    def test_format_report_renders_live_and_stragglers(self):
        report = self._empty_report()
        report["live"] = {
            "heartbeat_interval_s": 0.25,
            "sessions_done": 10,
            "throughput_sps": 5.0,
            "stragglers": [
                {"shard": 1, "day": 0, "phase": "run_batch", "stalled_intervals": 9}
            ],
        }
        text = obs.format_report(report)
        assert "live monitor" in text
        assert "straggler shard 1" in text
        report["live"]["stragglers"] = []
        assert "stragglers: (none)" in obs.format_report(report)

    def test_load_report_accepts_json_and_telemetry(
        self, population, library, tmp_path
    ):
        telemetry = tmp_path / "telemetry.jsonl"
        result = _run_fleet(
            population, library, shards=2, profile=True, telemetry=telemetry
        )
        report_path = tmp_path / "report.json"
        obs.write_report(result.obs_report, report_path)
        from_json = obs.load_report(report_path)
        from_telemetry = obs.load_report(telemetry)
        assert from_json == json.loads(json.dumps(result.obs_report))
        assert from_telemetry == from_json

    def test_load_report_rejects_unprofiled_telemetry(
        self, population, library, tmp_path
    ):
        telemetry = tmp_path / "telemetry.jsonl"
        _run_fleet(population, library, shards=2, telemetry=telemetry)
        with pytest.raises(SystemExit, match="no run_report"):
            obs.load_report(telemetry)

    def test_report_main_prints_both_input_kinds(
        self, population, library, tmp_path, capsys
    ):
        from repro.obs import report as report_mod

        telemetry = tmp_path / "telemetry.jsonl"
        result = _run_fleet(
            population, library, shards=2, profile=True, telemetry=telemetry
        )
        report_path = tmp_path / "report.json"
        obs.write_report(result.obs_report, report_path)
        report_mod.main([str(report_path)])
        report_mod.main([str(telemetry)])
        out = capsys.readouterr().out
        assert out.count("run health report") == 2


class TestTraceExport:
    def test_span_tree_to_events_proportional_layout(self):
        from repro.obs.trace_export import span_tree_to_events

        spans = {
            "children": [
                {
                    "name": "outer",
                    "total_s": 2.0,
                    "count": 1,
                    "children": [
                        {"name": "a", "total_s": 0.5, "count": 2, "children": []},
                        {"name": "b", "total_s": 1.0, "count": 1, "children": []},
                    ],
                }
            ]
        }
        events = span_tree_to_events(spans)
        by_name = {e["name"]: e for e in events}
        assert by_name["outer"]["ts"] == 0.0
        assert by_name["outer"]["dur"] == 2_000_000.0
        assert by_name["a"]["ts"] == 0.0 and by_name["a"]["dur"] == 500_000.0
        # children are sequential: b starts where a ends
        assert by_name["b"]["ts"] == 500_000.0
        assert by_name["outer"]["args"]["self_s"] == pytest.approx(0.5)
        assert all(e["ph"] == "X" for e in events)

    def test_export_trace_from_report_and_telemetry(
        self, population, library, tmp_path
    ):
        from repro.obs.trace_export import export_trace

        telemetry = tmp_path / "telemetry.jsonl"
        result = _run_fleet(
            population, library, shards=2, profile=True, telemetry=telemetry
        )
        report_path = tmp_path / "report.json"
        obs.write_report(result.obs_report, report_path)

        out = export_trace(report_path)
        assert out == tmp_path / "report_trace.json"
        doc = json.loads(out.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        slice_names = {e["name"] for e in slices}
        assert "fleet.run_day" in slice_names
        # one slice per span-tree node
        assert len(slices) == len(obs.span_names(result.obs_report["spans"]))
        assert doc["otherData"]["sessions"] == result.obs_report["sessions"]
        assert doc["otherData"]["run_id"] == result.obs_report["run_id"]
        # nesting is preserved: each child slice fits inside its parent
        by_name = {e["name"]: e for e in slices}
        run_day = by_name["fleet.run_day"]
        for event in slices:
            if event is run_day:
                continue
            assert event["ts"] >= run_day["ts"]

        from_telemetry = export_trace(telemetry, tmp_path / "t_trace.json")
        assert json.loads(from_telemetry.read_text()) == doc

    def test_main_cli(self, population, library, tmp_path, capsys):
        from repro.obs import trace_export

        result = _run_fleet(population, library, shards=1, profile=True)
        report_path = tmp_path / "report.json"
        obs.write_report(result.obs_report, report_path)
        assert trace_export.main([str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        assert (tmp_path / "report_trace.json").exists()


class TestGoldenTraceNeutrality:
    @pytest.mark.parametrize("case", ["hyb", "bola_networked"])
    @pytest.mark.parametrize("backend_name", ["scalar", "vector"])
    def test_golden_case_bit_exact_with_obs_enabled(self, case, backend_name):
        assert case in GOLDEN_CASES
        baseline = _roundtrip(_run_case(case, backend_name))
        obs.enable()
        try:
            profiled = _roundtrip(_run_case(case, backend_name))
        finally:
            obs.disable()
        assert profiled == baseline
