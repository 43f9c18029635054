"""Multicore scaling smoke: warm pool with 4 workers vs inline 1 worker.

CI runs this on a multi-core runner to catch the failure mode the persistent
pool was built to eliminate: parallel dispatch whose per-task overhead
(process spawn, task pickling, result transfer) eats the parallelism.  The
same fleet day is timed twice — inline single-shard, and 4 shards on an
already-running 4-worker pool — and the pooled run must be at least
``--min-speedup`` times faster (best of three each, identical sessions and
metrics are asserted before any timing counts).

On hosts with fewer than 4 cores the four workers time-slice one core, so
the speedup assertion is skipped (the timings are still printed); pass
``--force-assert`` to enforce it anyway.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.analytics.logs import LogCollection  # noqa: E402
from repro.fleet import (  # noqa: E402
    FleetConfig,
    FleetMetrics,
    FleetOrchestrator,
    fleet_metrics,
    shared_pool,
    shutdown_shared_pools,
)
from repro.sim.video import VideoLibrary  # noqa: E402
from repro.users.population import UserPopulation  # noqa: E402


def canonical_metrics(result) -> FleetMetrics:
    """Fleet metrics summed over the sessions in (user, day, index) order."""
    return fleet_metrics(
        LogCollection(
            sorted(
                result.logs,
                key=lambda log: (log.user_id, log.day, log.session_index),
            )
        )
    )


def best_wall_time(orchestrator, population, library, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        orchestrator.run(population, library)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--users", type=int, default=400)
    parser.add_argument("--sessions-per-user", type=int, default=3)
    parser.add_argument("--trace-length", type=int, default=100)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required pooled-vs-inline speedup on multi-core hosts",
    )
    parser.add_argument(
        "--force-assert",
        action="store_true",
        help="enforce --min-speedup even when the host has fewer cores "
        "than --workers",
    )
    args = parser.parse_args(argv)

    population = UserPopulation.generate(
        args.users, seed=0, bandwidth_median_kbps=6000.0
    )
    library = VideoLibrary(
        num_videos=8, mean_duration=40.0, std_duration=15.0, seed=1
    )

    def config(shards: int) -> FleetConfig:
        return FleetConfig(
            num_shards=shards,
            num_workers=shards,
            sessions_per_user=args.sessions_per_user,
            trace_length=args.trace_length,
            seed=0,
        )

    # Inline reference: single shard, no pool.
    inline = FleetOrchestrator(config(1))
    inline_result = inline.run(population, library)
    inline_time = best_wall_time(inline, population, library, args.rounds)

    # Pooled: pool pre-started, first run primes the worker object caches.
    pool = shared_pool(args.workers)
    try:
        pooled = FleetOrchestrator(config(args.workers), pool=pool)
        pooled_result = pooled.run(population, library)
        pooled_time = best_wall_time(pooled, population, library, args.rounds)
    finally:
        shutdown_shared_pools()

    # Every user's traffic is keyed by (seed, user id), so the sharded run
    # plays exactly the inline run's sessions.  Float sums follow shard
    # order, so the metrics are compared over one canonical session order.
    if canonical_metrics(pooled_result) != canonical_metrics(inline_result):
        raise SystemExit(
            "pooled run disagrees with the inline run: "
            f"{canonical_metrics(pooled_result)} vs "
            f"{canonical_metrics(inline_result)}"
        )

    speedup = inline_time / pooled_time
    cpu_count = os.cpu_count() or 1
    sessions = inline_result.metrics.num_sessions
    print(
        f"scaling smoke — {sessions} sessions, best of {args.rounds}: "
        f"inline {inline_time:.2f}s, "
        f"{args.workers}-worker warm pool {pooled_time:.2f}s "
        f"-> {speedup:.2f}x (host cpu_count={cpu_count})"
    )
    if cpu_count < args.workers and not args.force_assert:
        print(
            f"host has {cpu_count} core(s) for {args.workers} workers; "
            f"speedup floor of {args.min_speedup:.1f}x not enforced"
        )
        return
    if speedup < args.min_speedup:
        raise SystemExit(
            f"warm {args.workers}-worker pool only {speedup:.2f}x faster than "
            f"inline (floor {args.min_speedup:.1f}x)"
        )


if __name__ == "__main__":
    main()
