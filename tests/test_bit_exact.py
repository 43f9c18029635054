"""Bit-exact property tests for the repo's fast paths.

Each shortcut below replaces a slower computation that feeds a LingXi
decision, so it must reproduce that computation's bits, not merely its
value to a tolerance: a single ulp can flip an exit draw or move the
optimiser's next candidate.  The telemetry codec is held to the same
standard byte for byte, because telemetry files are the replayable
ground truth of a run.
"""

from __future__ import annotations

import dataclasses
import json
from typing import get_type_hints

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from repro.bayesopt.acquisition import (
    expected_improvement,
    probability_of_improvement,
)
from repro.analytics.logs import LogCollection, SessionLog
from repro.bayesopt.kernels import Matern52Kernel, RBFKernel
from repro.fleet import telemetry
from repro.fleet.orchestrator import (
    FleetConfig,
    FleetResult,
    ShardOutput,
    write_fleet_telemetry,
)
from repro.fleet.telemetry import (
    _to_builtin,
    encode_shard_events,
    iter_shard_chunks,
    iter_shard_events,
)
from repro.net.allocator import LinkUsageSample
from repro.sim.bandwidth import BandwidthModel
from repro.sim.session import SEGMENT_DTYPE, PlaybackTrace, SegmentRecord
from repro.sim.vector import window_stats, window_stats_by_count

_FINITE = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    points=st.integers(1, 300).flatmap(
        lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 20.0))
    ),
    length_scale=st.floats(0.05, 5.0),
    variance=st.floats(0.1, 3.0),
)
def test_kernel_diagonal_matches_full_matrix_bitwise(points, length_scale, variance):
    for kernel_class in (Matern52Kernel, RBFKernel):
        kernel = kernel_class(length_scale=length_scale, signal_variance=variance)
        assert _same_bits(kernel.diagonal(points), np.diag(kernel(points, points)))


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(st.floats(10.0, 50_000.0), min_size=0, max_size=8),
    rows=st.integers(1, 5),
    offset=st.integers(0, 4),
)
def test_window_stats_match_bandwidth_model_bitwise(samples, rows, offset):
    model = BandwidthModel(window=8)
    model.extend(samples)
    # Every row holds the same samples, as a strided view of a wider array.
    wide = np.full((rows, offset + len(samples) + 3), 7.0)
    wide[:, offset : offset + len(samples)] = samples
    mean, std = window_stats(wide[:, offset : offset + len(samples)])
    assert _same_bits(mean, np.full(rows, model.mean))
    assert _same_bits(std, np.full(rows, model.std))


@settings(max_examples=300, deadline=None)
@given(
    windows=st.lists(
        st.lists(st.floats(10.0, 50_000.0), min_size=0, max_size=8),
        min_size=1,
        max_size=12,
    ),
    noise=st.floats(1.0, 9.0),
)
def test_window_stats_by_count_match_bandwidth_model_bitwise(windows, noise):
    """Rows holding 0 to 8 samples each, right-aligned in one 8-wide array
    (the rest noise): every row's mean and std are the model's bits."""
    window = np.full((len(windows), 8), noise)
    for row, samples in enumerate(windows):
        window[row, 8 - len(samples) :] = samples
    counts = np.asarray([len(samples) for samples in windows])
    mean, std = window_stats_by_count(window, counts)
    for row, samples in enumerate(windows):
        model = BandwidthModel(window=8)
        model.extend(samples)
        assert _same_bits(mean[row], model.mean)
        assert _same_bits(std[row], model.std)


@settings(max_examples=300, deadline=None)
@given(
    mean=arrays(float, st.integers(1, 40), elements=_FINITE),
    scale=st.floats(1e-13, 30.0),
    best=_FINITE,
    xi=st.floats(0.0, 0.1),
)
def test_acquisitions_match_scipy_stats_bitwise(mean, scale, best, xi):
    std = np.abs(np.sin(np.arange(mean.size) + 1.0)) * scale
    clipped = np.maximum(std, 1e-12)
    improvement = best - mean - xi
    z = improvement / clipped
    reference_ei = improvement * stats.norm.cdf(z) + clipped * stats.norm.pdf(z)
    assert _same_bits(expected_improvement(mean, std, best, xi), reference_ei)
    reference_pi = stats.norm.cdf((best - mean - xi) / clipped)
    assert _same_bits(probability_of_improvement(mean, std, best, xi), reference_pi)


# --------------------------------------------------------------------------- #
# Telemetry codec against the dataclasses.asdict + json.dumps oracle
# --------------------------------------------------------------------------- #
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    float("nan"), float("inf"), float("-inf"),
]
#: Every float the JSON encoder can write, as a Python float or np.float64.
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)
#: Finite floats, for link samples, whose utilization divides the allocation
#: by the capacity.
_FINITE_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
_ANY_INT = st.integers(-(2**62), 2**62).flatmap(
    lambda n: st.sampled_from([n, np.int64(n)])
)
_ANY_BOOL = st.booleans().flatmap(lambda b: st.sampled_from([b, np.bool_(b)]))
#: Quotes, backslashes, control characters, non-ASCII and astral text.
_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7fé中😀\u2028'), st.characters()),
    max_size=12,
)
_FIELD_VALUES = {int: _ANY_INT, float: _ANY_FLOAT, bool: _ANY_BOOL}

_records = st.builds(
    SegmentRecord,
    **{
        name: _FIELD_VALUES[hint]
        for name, hint in get_type_hints(SegmentRecord).items()
    },
)
_sessions = st.builds(
    SessionLog,
    user_id=_TEXT,
    day=_ANY_INT,
    session_index=_ANY_INT,
    mean_bandwidth_kbps=_ANY_FLOAT,
    trace=st.builds(
        PlaybackTrace,
        video_duration=_ANY_FLOAT,
        segment_duration=_ANY_FLOAT,
        trace_name=_TEXT,
        segments=st.lists(_records, max_size=4).map(
            lambda records: np.array(
                [dataclasses.astuple(record) for record in records],
                dtype=SEGMENT_DTYPE,
            )
        ),
        exited_early=_ANY_BOOL,
    ),
)
_link_samples = st.builds(
    LinkUsageSample,
    step=_ANY_INT,
    link_id=_TEXT,
    capacity_kbps=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(1.0, 1e9)
    ).flatmap(lambda x: st.sampled_from([x, np.float64(x)])),
    active_sessions=_ANY_INT,
    demand_kbps=_FINITE_FLOAT,
    allocated_kbps=_FINITE_FLOAT,
    tier=_TEXT,
)
_shards = st.builds(
    ShardOutput,
    shard_index=st.integers(-1, 64),
    sessions=st.lists(_sessions, max_size=3),
    controller_states=st.just({}),
    num_segments=_ANY_INT,
    wall_time_s=_ANY_FLOAT,
    link_usage=st.lists(_link_samples, max_size=3),
    fallback_sessions=_ANY_INT,
)


def _oracle_line(run_id, shard, user_id, event, payload) -> str:
    """One telemetry line as the codec first wrote it: a fresh
    ``json.dumps`` encoder per event."""
    document = {
        "run_id": run_id,
        "shard": shard,
        "user_id": user_id,
        "event": event,
        "payload": payload,
    }
    return json.dumps(document, default=_to_builtin) + "\n"


def _oracle_shard_bytes(run_id: str, output) -> bytes:
    """A shard's telemetry, built the old way: ``dataclasses.asdict`` for
    every segment record and ``json.dumps`` for every event."""
    lines = []
    for log in output.sessions:
        trace = log.trace
        payload = {
            "day": int(log.day),
            "session_index": int(log.session_index),
            "mean_bandwidth_kbps": float(log.mean_bandwidth_kbps),
            "video_duration": float(trace.video_duration),
            "segment_duration": float(trace.segment_duration),
            "trace_name": str(trace.trace_name),
            "exited_early": bool(trace.exited_early),
            "records": [dataclasses.asdict(record) for record in trace.records],
        }
        lines.append(
            _oracle_line(run_id, output.shard_index, log.user_id, "session", payload)
        )
    for sample in output.link_usage:
        lines.append(
            _oracle_line(
                run_id, output.shard_index, "", "link_utilization",
                sample.as_payload(),
            )
        )
    summary = {
        "num_sessions": len(output.sessions),
        "num_segments": output.num_segments,
        "wall_time_s": output.wall_time_s,
        "fallback_sessions": output.fallback_sessions,
        "batch_sessions": len(output.sessions),
    }
    lines.append(
        _oracle_line(run_id, output.shard_index, "", "shard_summary", summary)
    )
    return "".join(lines).encode("utf-8")


# No shrink phase: shrinking a failing shard of many float columns ran for
# minutes and grew to a gigabyte of memory; the failing example as drawn
# is reported at once.
@settings(
    max_examples=300,
    deadline=None,
    phases=tuple(phase for phase in Phase if phase is not Phase.shrink),
)
@given(run_id=_TEXT, output=_shards)
def test_telemetry_codec_matches_asdict_dumps_oracle(run_id, output):
    expected = _oracle_shard_bytes(run_id, output)
    assert encode_shard_events(run_id, output) == expected
    per_event = "".join(
        event.to_json() + "\n" for event in iter_shard_events(run_id, output)
    )
    assert per_event.encode("utf-8") == expected


def _edge_session(index: int, rows: int, rng: np.random.Generator) -> SessionLog:
    """A session of ``rows`` segment rows that holds every edge value the
    column formatter must keep apart, with numpy scalars in its envelope."""
    segments = np.zeros(rows, dtype=SEGMENT_DTYPE)
    for name in SEGMENT_DTYPE.names:
        kind = SEGMENT_DTYPE[name].kind
        if kind == "f":
            # Few distinct values per column, so most texts are looked up.
            segments[name] = rng.choice(rng.normal(0.0, 1e3, 8), rows)
        elif kind == "i":
            segments[name] = rng.integers(-(2**62), 2**62, rows)
        else:
            segments[name] = rng.random(rows) < 0.5
    nans = np.array([0x7FF8000000000001, 0xFFF0000000000F00], np.uint64)
    edges = {
        "stall_time": [0.0, -0.0] * 2,
        "wait_time": [*nans.view(np.float64), np.inf, -np.inf],
        "watch_time": [5e-324, -5e-324, 1e308, -1e308],
    }
    for name, values in edges.items():
        segments[name][: len(values)] = values[:rows]
    for name, values in (("level", [2**62, -(2**62)]), ("stall_count", [0, -1])):
        segments[name][: len(values)] = values[:rows]
    return SessionLog(
        user_id=f"user-\u00e9-{index % 7}",
        day=np.int64(index % 3 - 1),
        session_index=index,
        mean_bandwidth_kbps=np.float64(-0.0 if index % 2 else 0.0),
        trace=PlaybackTrace(
            user_id="",
            video_duration=[np.inf, 1e308, 5e-324][index % 3],
            segment_duration=np.float64(4.0),
            trace_name=f"trace\t{index % 2}",
            segments=segments,
            exited_early=np.bool_(index % 2),
        ),
    )


def test_telemetry_chunks_match_oracle_across_chunk_edges(tmp_path):
    """A shard of several chunks encodes to the oracle's bytes, and the
    inline file equals the pooled blob: row-less sessions first, last and
    on both sides of a chunk edge, and a session longer than a chunk."""
    chunk = telemetry._CHUNK_ROWS
    rng = np.random.default_rng(11)
    sizes = [0, 5, chunk - 6, 0, 1, 0, 3, chunk + 9, 0, chunk // 2, 1, chunk // 2]
    sizes += [7, 0]
    sessions = [_edge_session(i, rows, rng) for i, rows in enumerate(sizes)]
    output = ShardOutput(
        shard_index=3,
        sessions=sessions,
        controller_states={},
        num_segments=sum(sizes),
        wall_time_s=0.25,
        link_usage=[LinkUsageSample(2, "edge", 1e3, 1, 5.0, -0.0, "edge")],
        fallback_sessions=0,
    )
    run_id = "run-\u00e9"
    expected = _oracle_shard_bytes(run_id, output)
    chunks = list(iter_shard_chunks(run_id, output))
    assert len(chunks) >= 5  # four or more of session rows, then the tail
    assert all(part.endswith(b"\n") for part in chunks)
    assert b"".join(chunks) == expected
    blob = encode_shard_events(run_id, output)
    assert blob == expected

    def written(shard: ShardOutput) -> bytes:
        result = FleetResult(
            run_id=run_id,
            config=FleetConfig(num_shards=1),
            scenario_name="steady_state",
            logs=LogCollection(shard.sessions),
            shard_outputs=[shard],
            controller_states={},
            wall_time_s=0.5,
        )
        path = tmp_path / f"{shard.telemetry_blob is None}.jsonl"
        return write_fleet_telemetry(result, path).read_bytes()

    inline = written(output)
    pooled = written(dataclasses.replace(output, telemetry_blob=blob))
    assert inline == pooled
    assert expected in inline
