"""Longitudinal campaign throughput: days/second at N = 1,000 users.

Runs the same engagement-coupled multi-day campaign (retention-driven churn,
profile drift, new-user influx) through both backends and reports days per
second.  Every fleet day runs spec-batched with identity-keyed per-user RNG
substreams, so a scalar campaign and a vector campaign execute the *same*
specs with the same per-user RNG substreams — the timing difference is
purely the engine, and the DAU series / retention decisions are verified
identical before the timings count.

Acceptance floor: the vector backend runs the N=1000 campaign **>= 3x**
faster than scalar (the churn loop and drift bookkeeping are shared
campaign-level costs, so the end-to-end factor sits below the raw engine's
~10x).

Run directly (CI smoke uses ``LONGITUDINAL_BENCH_USERS`` /
``LONGITUDINAL_BENCH_DAYS`` for a tiny run)::

    PYTHONPATH=src python benchmarks/bench_longitudinal.py
    PYTHONPATH=src LONGITUDINAL_BENCH_USERS=64 LONGITUDINAL_BENCH_DAYS=2 \
        python benchmarks/bench_longitudinal.py --no-assert
"""

from __future__ import annotations

import argparse
import os
import time

from emit import emit_bench
from repro.experiments.common import format_table
from repro.fleet import DriftConfig, LongitudinalCampaign, LongitudinalConfig
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

DEFAULT_USERS = 1000
DEFAULT_DAYS = 2
#: Acceptance floor: vector campaign >= 3x scalar at N=1000.
MIN_SPEEDUP = 3.0


def _campaign_config(backend: str, days: int) -> LongitudinalConfig:
    return LongitudinalConfig(
        days=days,
        seed=13,
        num_shards=1,
        num_workers=0,
        sessions_per_user=2,
        trace_length=60,
        backend=backend,
        drift=DriftConfig(influx_per_day=8),
    )


def _run(backend: str, population, library, days: int):
    campaign = LongitudinalCampaign(_campaign_config(backend, days))
    start = time.perf_counter()
    result = campaign.run(population, library)
    return time.perf_counter() - start, result


def run_bench(
    num_users: int = DEFAULT_USERS,
    days: int = DEFAULT_DAYS,
    check_speedup: bool = True,
) -> dict:
    """Time both backends on the same campaign; returns the result row."""
    population = UserPopulation.generate(
        num_users, seed=7, bandwidth_median_kbps=3000.0
    )
    library = VideoLibrary(num_videos=6, mean_duration=45.0, std_duration=15.0, seed=2)

    # warm-up at a tiny size (imports, caches) before the timed runs
    warm = UserPopulation(list(population)[: min(8, num_users)])
    _run("scalar", warm, library, 1)
    _run("vector", warm, library, 1)

    scalar_time, scalar_result = _run("scalar", population, library, days)
    vector_time, vector_result = _run("vector", population, library, days)

    assert scalar_result.dau_series == vector_result.dau_series, (
        "backends diverged on DAU"
    )
    for scalar_day, vector_day in zip(scalar_result.days, vector_result.days):
        assert scalar_day.decisions == vector_day.decisions, (
            "backends diverged on retention decisions"
        )

    num_sessions = sum(len(day.result.logs) for day in scalar_result.days)
    row = {
        "users": num_users,
        "days": days,
        "sessions": num_sessions,
        "scalar_days_per_s": days / scalar_time,
        "vector_days_per_s": days / vector_time,
        "scalar_s": scalar_time,
        "vector_s": vector_time,
        "speedup": scalar_time / vector_time,
    }

    print("\nlongitudinal campaign throughput (identical DAU/retention/traces):")
    print(
        format_table(
            ["users", "days", "sessions", "scalar days/s", "vector days/s", "speedup"],
            [[
                row["users"],
                row["days"],
                row["sessions"],
                f"{row['scalar_days_per_s']:.3f}",
                f"{row['vector_days_per_s']:.3f}",
                f"{row['speedup']:.1f}x",
            ]],
        )
    )

    if check_speedup and num_users >= DEFAULT_USERS:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"vector campaign speedup {row['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP}x floor at N={num_users}"
        )

    emit_bench(
        "longitudinal_throughput",
        [row],
        config={
            "users": num_users,
            "days": days,
            "sessions_per_user": 2,
            "trace_length": 60,
            "influx_per_day": 8,
            "min_speedup": MIN_SPEEDUP,
        },
    )
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--no-assert", action="store_true", help="skip the speedup floor assertion"
    )
    args = parser.parse_args()
    num_users = int(os.environ.get("LONGITUDINAL_BENCH_USERS", DEFAULT_USERS))
    days = int(os.environ.get("LONGITUDINAL_BENCH_DAYS", DEFAULT_DAYS))
    run_bench(num_users=num_users, days=days, check_speedup=not args.no_assert)


if __name__ == "__main__":
    main()
