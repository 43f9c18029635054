"""Out-of-core telemetry reader benchmark: throughput and peak memory.

Measures aggregation over a fleet telemetry file at growing size factors,
comparing the in-memory replay path (``replay_log_collection`` +
``fleet_metrics``) against the streaming reader
(:func:`repro.obs.telemetry_reader.stream_fleet_metrics`), with and without
the sidecar chunk index.  For each run both wall time and the
``tracemalloc`` peak are recorded; the acceptance gate is the reader's whole
point: **streaming peak memory must stay flat as the file grows** while the
in-memory peak scales with it, and the streamed aggregates must equal the
replayed ones exactly.

Run directly (CI smoke uses ``TELEMETRY_BENCH_FACTORS`` for a tiny run)::

    PYTHONPATH=src python benchmarks/bench_telemetry_reader.py
    PYTHONPATH=src TELEMETRY_BENCH_FACTORS=1,4 \
        python benchmarks/bench_telemetry_reader.py --no-assert

or through pytest alongside the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_reader.py -q -s
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

from emit import emit_bench
from repro.experiments.common import format_table
from repro.fleet import FleetConfig, FleetOrchestrator, fleet_metrics
from repro.obs.telemetry_reader import (
    load_or_build_index,
    replay_log_collection,
    stream_fleet_metrics,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

DEFAULT_FACTORS = (1, 4, 10)
#: The streaming reader's peak memory at the largest factor may exceed the
#: smallest factor's peak by at most this ratio (flat-memory acceptance).
MAX_STREAM_PEAK_GROWTH = 2.0


def _factors_from_env() -> tuple[int, ...]:
    raw = os.environ.get("TELEMETRY_BENCH_FACTORS", "")
    if not raw.strip():
        return DEFAULT_FACTORS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _make_corpus(out_dir: Path) -> Path:
    """One fleet day's telemetry file — the unit the factors multiply."""
    users = int(os.environ.get("TELEMETRY_BENCH_USERS", "64"))
    population = UserPopulation.generate(users, seed=0, bandwidth_median_kbps=4000.0)
    library = VideoLibrary(num_videos=4, mean_duration=40.0, std_duration=12.0, seed=1)
    path = out_dir / "telemetry.jsonl"
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
    return path


def _enlarge(base: Path, out: Path, factor: int) -> Path:
    """Repeat the session events ``factor`` times (run events kept once)."""
    lines = base.read_bytes().splitlines(keepends=True)
    sessions = [line for line in lines if b'"event": "session"' in line]
    head = [line for line in lines if line not in sessions]
    with out.open("wb") as handle:
        if head:
            handle.write(head[0])
        for _ in range(factor):
            for line in sessions:
                handle.write(line)
        for line in head[1:]:
            handle.write(line)
    return out


def _measure(fn) -> tuple[float, int, object]:
    """(wall seconds, tracemalloc peak bytes, fn() result)."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return elapsed, peak, result


def run_bench(factors=DEFAULT_FACTORS, check: bool = True) -> list[dict]:
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_telemetry_") as tmp:
        tmp_path = Path(tmp)
        base = _make_corpus(tmp_path)
        # warm-up: imports and allocator pools settle before anything counts
        stream_fleet_metrics(base)
        fleet_metrics(replay_log_collection(base))
        for factor in factors:
            path = _enlarge(base, tmp_path / f"telemetry_x{factor}.jsonl", factor)
            file_mb = path.stat().st_size / (1024 * 1024)
            index_time, _, index = _measure(lambda: load_or_build_index(path))
            mem_time, mem_peak, replayed = _measure(
                lambda: fleet_metrics(replay_log_collection(path))
            )
            stream_time, stream_peak, streamed = _measure(
                lambda: stream_fleet_metrics(path)
            )
            idx_time, idx_peak, indexed = _measure(
                lambda: stream_fleet_metrics(path, index=index)
            )
            assert streamed.as_dict() == replayed.as_dict(), (
                f"streamed aggregates diverged from replay at factor {factor}"
            )
            assert indexed.as_dict() == replayed.as_dict()
            sessions = streamed.num_sessions
            rows.append(
                {
                    "factor": factor,
                    "file_mb": file_mb,
                    "sessions": sessions,
                    "index_build_s": index_time,
                    "replay_sps": sessions / mem_time,
                    "replay_peak_mb": mem_peak / (1024 * 1024),
                    "stream_sps": sessions / stream_time,
                    "stream_peak_mb": stream_peak / (1024 * 1024),
                    "stream_indexed_sps": sessions / idx_time,
                    "stream_indexed_peak_mb": idx_peak / (1024 * 1024),
                }
            )

    print("\ntelemetry reader — in-memory replay vs out-of-core streaming:")
    print(
        format_table(
            ["x", "MiB", "sessions", "replay s/s", "peak MiB",
             "stream s/s", "peak MiB", "indexed s/s", "peak MiB"],
            [
                [
                    row["factor"],
                    f"{row['file_mb']:.1f}",
                    row["sessions"],
                    f"{row['replay_sps']:.0f}",
                    f"{row['replay_peak_mb']:.1f}",
                    f"{row['stream_sps']:.0f}",
                    f"{row['stream_peak_mb']:.1f}",
                    f"{row['stream_indexed_sps']:.0f}",
                    f"{row['stream_indexed_peak_mb']:.1f}",
                ]
                for row in rows
            ],
        )
    )

    if check and len(rows) > 1:
        first, last = rows[0], rows[-1]
        growth = last["stream_peak_mb"] / max(first["stream_peak_mb"], 1e-9)
        assert growth <= MAX_STREAM_PEAK_GROWTH, (
            f"streaming peak grew {growth:.2f}x from factor {first['factor']} "
            f"to {last['factor']} (flat-memory gate is {MAX_STREAM_PEAK_GROWTH}x)"
        )
        # the in-memory path is the contrast: its peak must actually scale,
        # otherwise the corpus is too small for the gate to mean anything
        assert last["replay_peak_mb"] > 2.0 * first["stream_peak_mb"], (
            "corpus too small: in-memory replay peak does not dominate "
            "the streaming peak"
        )

    emit_bench(
        "telemetry_reader",
        rows,
        config={
            "factors": list(factors),
            "users": int(os.environ.get("TELEMETRY_BENCH_USERS", "64")),
        },
    )
    return rows


def test_telemetry_reader_throughput(benchmark):
    """Pytest entry point (factors overridable via TELEMETRY_BENCH_FACTORS)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    run_bench(_factors_from_env())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--factors",
        default=None,
        help="comma-separated size factors (default: env TELEMETRY_BENCH_FACTORS or 1,4,10)",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report only; skip the flat-memory assertions",
    )
    args = parser.parse_args()
    factors = (
        tuple(int(part) for part in args.factors.split(",") if part.strip())
        if args.factors
        else _factors_from_env()
    )
    run_bench(factors, check=not args.no_assert)


if __name__ == "__main__":
    main()
