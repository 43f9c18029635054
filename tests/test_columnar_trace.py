"""The columnar session trace: one structured array per :class:`PlaybackTrace`.

A trace's segments live in ``trace.segments`` (dtype ``SEGMENT_DTYPE``, the
``SegmentRecord`` fields in field order).  ``records`` is a read-only tuple
built from the rows on first access, equality is exact field by field, a
pickle carries the array alone, and both engines write the same array.
The analytics that now read columns are checked against the record loops
they replaced.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import defaultdict

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.analytics.logs import LogCollection
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.abr.hyb import HYB
from repro.net import EdgeLink, NetworkTopology
from repro.sim import get_backend
from repro.sim.backend import SessionSpec, spawn_session_seeds
from repro.sim.bandwidth import StationaryTraceGenerator
from repro.sim.session import (
    SEGMENT_DTYPE,
    SEGMENT_FIELDS,
    PlaybackSession,
    PlaybackTrace,
    SegmentRecord,
)
from repro.sim.video import VideoLibrary
from repro.users.engagement import features_from_segments
from repro.users.population import UserPopulation

_FLOAT_FIELDS = [
    name for name in SEGMENT_FIELDS if SEGMENT_DTYPE[name] == np.float64
]


@pytest.fixture
def trace(video, low_bandwidth_trace, rng) -> PlaybackTrace:
    trace = PlaybackSession().run(HYB(), video, low_bandwidth_trace, rng=rng)
    assert len(trace) > 2 and trace.stall_count > 0
    return trace


def _with_segments(trace: PlaybackTrace, segments: np.ndarray) -> PlaybackTrace:
    return PlaybackTrace(
        user_id=trace.user_id,
        video_duration=trace.video_duration,
        segment_duration=trace.segment_duration,
        trace_name=trace.trace_name,
        segments=segments,
        exited_early=trace.exited_early,
    )


def test_dtype_is_the_record_fields_in_order():
    assert SEGMENT_FIELDS == tuple(f.name for f in dataclasses.fields(SegmentRecord))
    kinds = {name: SEGMENT_DTYPE[name] for name in SEGMENT_FIELDS}
    assert kinds["segment_index"] == kinds["level"] == kinds["stall_count"] == np.int64
    assert kinds["exited"] == np.bool_
    assert len(_FLOAT_FIELDS) == 11


def test_records_are_a_read_only_view_of_the_rows(trace):
    records = trace.records
    assert isinstance(records, tuple)
    assert trace.records is records  # built once
    assert [dataclasses.astuple(r) for r in records] == trace.segments.tolist()
    assert all(type(r.level) is int and type(r.exited) is bool for r in records)
    assert not trace.segments.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        trace.segments[0] = trace.segments[1]
    with pytest.raises(AttributeError):
        trace.records.append(records[0])


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_one_ulp_in_any_float_field_breaks_equality(trace, name):
    changed = trace.segments.copy()
    changed[name][-1] = np.nextafter(changed[name][-1], np.inf)
    assert _with_segments(trace, trace.segments.copy()) == trace
    assert _with_segments(trace, changed) != trace


def test_a_changed_exit_flag_breaks_equality(trace):
    changed = trace.segments.copy()
    changed["exited"][0] = not changed["exited"][0]
    assert _with_segments(trace, changed) != trace


def test_pickle_round_trip_is_equal_and_carries_no_record_objects(trace):
    trace.records  # build the lazy tuple; the pickle must not carry it
    blob = pickle.dumps(trace, protocol=5)
    assert b"SegmentRecord" not in blob
    restored = pickle.loads(blob)
    assert restored == trace
    assert restored.segments.dtype == SEGMENT_DTYPE
    assert restored.records == trace.records


def test_empty_trace_aggregates():
    empty = PlaybackTrace(video_duration=10.0, segment_duration=2.0)
    assert len(empty) == 0 and empty.records == ()
    assert empty.watch_time == 0.0
    assert empty.total_stall_time == 0.0
    assert empty.stall_count == 0
    assert empty.mean_bitrate_kbps == 0.0
    assert empty.num_switches == 0
    for vector, dtype in [
        (empty.bitrates_kbps, float),
        (empty.levels, int),
        (empty.stall_times, float),
        (empty.cumulative_stall_times, float),
    ]:
        assert vector.shape == (0,) and vector.dtype == dtype


def test_wrong_segment_dtype_is_rejected():
    with pytest.raises(ValueError, match="SEGMENT_DTYPE"):
        PlaybackTrace(segments=np.zeros(3))


def _batch(num_sessions: int = 8, start_steps: bool = False):
    rng = np.random.default_rng(4)
    population = UserPopulation.generate(
        num_sessions, seed=5, bandwidth_median_kbps=2500.0
    )
    library = VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=10.0, seed=2)
    generator = StationaryTraceGenerator(1800.0, 500.0)
    seeds = spawn_session_seeds(3, num_sessions)
    return [
        SessionSpec(
            abr=BBA(),
            video=library[i % 3],
            trace=generator.generate(50, rng),
            exit_model=profile.exit_model(),
            seed=seeds[i],
            user_id=profile.user_id,
            start_step=(i % 3) * 2 if start_steps else 0,
        )
        for i, profile in enumerate(population)
    ]


@pytest.mark.parametrize("networked", [False, True], ids=["flat", "networked"])
def test_engines_write_equal_arrays(networked):
    kwargs = {}
    if networked:
        kwargs["network"] = NetworkTopology(name="tight", links=(EdgeLink("e", 4000.0),))
    specs = _batch(start_steps=networked)
    scalar = get_backend("scalar").run_batch(specs, **kwargs)
    vector = get_backend("vector").run_batch(specs, **kwargs)
    assert any(trace.exited_early for trace in scalar)
    for a, b in zip(scalar, vector, strict=True):
        assert a.segments.dtype == b.segments.dtype == SEGMENT_DTYPE
        for name in SEGMENT_FIELDS:  # bit for bit; the row padding is not data
            assert a.segments[name].tobytes() == b.segments[name].tobytes()
        assert a == b


def test_column_readers_match_their_record_loops():
    """The analytics that read columns equal the per-record loops they replace."""
    population = UserPopulation.generate(30, seed=5, bandwidth_median_kbps=1200.0)
    library = VideoLibrary(num_videos=3, mean_duration=40.0, std_duration=10.0, seed=2)
    config = FleetConfig(
        num_shards=1, num_workers=0, sessions_per_user=3, trace_length=60, seed=1,
        backend="vector",
    )
    logs = LogCollection(FleetOrchestrator(config).run(population, library).logs)
    records = [record for session in logs for record in session.records]
    assert any(r.exited for r in records) and any(r.stall_time > 0 for r in records)

    expected, previous = [], None
    for r in records:
        switch = 0 if previous is None else r.level - previous
        expected.append(
            [r.stall_time, r.cumulative_stall_time, float(r.stall_count),
             r.watch_time / 60.0, r.bitrate_kbps / 1000.0, float(abs(switch)),
             r.buffer_after]
        )
        previous = r.level
    features, labels = features_from_segments(
        np.concatenate([session.trace.segments for session in logs])
    )
    assert features.tobytes() == np.asarray(expected, dtype=float).tobytes()
    assert labels.tolist() == [int(r.exited) for r in records]

    stall_exits = defaultdict(lambda: [0, 0])
    switches = {g: [0, 0] for g in range(-3, 4)}
    for session in logs:
        rs = session.records
        for i, r in enumerate(rs):
            if r.stall_time > 0:
                stall_exits[session.user_id][0] += 1
                stall_exits[session.user_id][1] += r.exited or (
                    i + 1 < len(rs) and rs[i + 1].exited
                )
            if i and r.level - rs[i - 1].level in switches:
                switches[r.level - rs[i - 1].level][0] += 1
                switches[r.level - rs[i - 1].level][1] += r.exited
    assert logs.stall_exit_rate_by_user(min_stall_events=0) == {
        user: exits / events for user, (events, exits) in stall_exits.items()
    }
    by_switch = logs.exit_rate_by_switch(list(switches), min_samples=1)
    for g, (watched, exited) in switches.items():
        if watched:
            assert by_switch[g] == exited / watched
        else:
            assert np.isnan(by_switch[g])
