"""Fleet demo: one simulated day of platform traffic on a process pool.

Run with ``python examples/fleet_day.py [--scenario NAME]``.  The default run
simulates 2,000+ playback sessions from a 500-user population across 4 shards
on a multiprocessing pool, emits the full JSONL telemetry stream, streams the
telemetry file back through :mod:`repro.obs.telemetry_reader`, and verifies
that the replayed exit-rate-by-stall-bin aggregate matches the live run
exactly.
"""

from __future__ import annotations

import argparse
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro import obs
from repro.analytics.logs import exit_rate_by_stall_time
from repro.core.exit_predictor import ExitRatePredictor
from repro.obs.live import live_run
from repro.obs.telemetry_reader import iter_session_logs, replay_link_utilization
from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    LingXiFleetFactory,
    available_scenarios,
)
from repro.net import ALLOCATORS, available_topologies, get_topology
from repro.sim import available_backends
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation

STALL_BINS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default="steady_state",
        choices=available_scenarios(),
        help="fleet workload to simulate",
    )
    parser.add_argument(
        "--backend",
        default="scalar",
        choices=available_backends(),
        help="simulation backend executing each shard's sessions",
    )
    parser.add_argument(
        "--network",
        default=None,
        choices=available_topologies(),
        help=(
            "shared-bottleneck topology: sessions fair-share edge-link "
            "capacity and congestion becomes emergent (default: uncoupled)"
        ),
    )
    parser.add_argument(
        "--allocator",
        default=None,
        choices=ALLOCATORS,
        help=(
            "override the topology's bandwidth allocator (requires "
            "--network): iterated path-aware water-filling or the "
            "Low-Lapsley primal-dual engine"
        ),
    )
    parser.add_argument(
        "--abr",
        default="hyb",
        choices=("hyb", "lingxi"),
        help=(
            "every user's ABR: HYB, or LingXi(HYB) with a per-user controller "
            "(exit predictor, Monte-Carlo rollouts, online Bayesian optimisation)"
        ),
    )
    parser.add_argument("--users", type=int, default=500)
    parser.add_argument("--sessions-per-user", type=int, default=4)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--telemetry",
        default=None,
        help="telemetry JSONL path (default: a temporary file)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "enable the observability layer: span tree across the "
            "orchestrator/engine/allocator layers, fleet counters, and a "
            "run_report telemetry event"
        ),
    )
    parser.add_argument(
        "--report",
        default=None,
        help="with --profile, also write the run health report JSON here",
    )
    parser.add_argument(
        "--live-status",
        default=None,
        metavar="PATH",
        help=(
            "publish live heartbeats: rewrite a status file here on every "
            "watchdog tick (monitor the run with "
            "`python -m repro.obs.monitor PATH`)"
        ),
    )
    args = parser.parse_args()
    if args.profile:
        obs.enable()

    population = UserPopulation.generate(
        args.users, seed=args.seed, bandwidth_median_kbps=6000.0
    )
    library = VideoLibrary(num_videos=8, mean_duration=40.0, std_duration=15.0, seed=1)
    telemetry_path = Path(
        args.telemetry
        or Path(tempfile.mkdtemp(prefix="fleet_day_")) / "telemetry.jsonl"
    )

    orchestrator = FleetOrchestrator(
        FleetConfig(
            num_shards=args.shards,
            num_workers=args.workers,
            sessions_per_user=args.sessions_per_user,
            trace_length=100,
            seed=args.seed,
            backend=args.backend,
            network=args.network,
            allocator=args.allocator,
        )
    )
    abr_factory = None  # the fleet's default, HYB
    if args.abr == "lingxi":
        abr_factory = LingXiFleetFactory(ExitRatePredictor(channels=8, hidden=16, seed=0))
    network_label = f", {args.network} network" if args.network else ""
    if args.allocator:
        network_label += f" ({args.allocator} allocator)"
    print(
        f"simulating {args.users} users x {args.sessions_per_user} sessions "
        f"({args.scenario}{network_label}, {args.abr}) on {args.shards} shards / "
        f"{args.workers} workers [{args.backend} backend] ..."
    )
    with ExitStack() as stack:
        if args.live_status:
            stack.enter_context(live_run(args.live_status, run_id="fleet_day"))
            print(f"live status: python -m repro.obs.monitor {args.live_status}")
        result = orchestrator.run(
            population,
            library,
            scenario=args.scenario,
            abr_factory=abr_factory,
            telemetry_path=telemetry_path,
        )

    metrics = result.metrics
    print(f"\nrun {result.run_id}")
    print(f"  sessions          {metrics.num_sessions}")
    print(f"  segments          {metrics.num_segments}")
    print(f"  session exit rate {metrics.session_exit_rate * 100:.1f}%")
    print(f"  segment exit rate {metrics.segment_exit_rate * 100:.2f}%")
    print(f"  watch time        {metrics.total_watch_time_s / 3600:.1f} h")
    print(f"  stall time        {metrics.total_stall_time_s:.1f} s")
    print(f"  mean bitrate      {metrics.mean_bitrate_kbps:.0f} kbps")
    print(f"  wall time         {result.wall_time_s:.1f} s "
          f"({result.sessions_per_second:.0f} sessions/s)")
    for output in result.shard_outputs:
        print(
            f"    shard {output.shard_index}: {len(output.sessions)} sessions, "
            f"{output.num_segments} segments in {output.wall_time_s:.1f}s"
        )

    if args.profile and result.obs_report is not None:
        print()
        print(obs.format_report(result.obs_report))
        if args.report:
            path = obs.write_report(result.obs_report, args.report)
            print(f"run health report written to {path}")

    size_kb = telemetry_path.stat().st_size / 1024
    print(f"\ntelemetry: {telemetry_path} ({size_kb:.0f} KiB)")

    live = result.logs.exit_rate_by_stall_time(STALL_BINS)
    replay = exit_rate_by_stall_time(iter_session_logs(telemetry_path), STALL_BINS)
    np.testing.assert_array_equal(live, replay)
    print("replayed exit-rate-by-stall-bin aggregate matches live run exactly:")
    for edge, rate in zip(STALL_BINS, live):
        label = "n/a" if np.isnan(rate) else f"{rate * 100:.2f}%"
        print(f"  stall >= {edge:>4.1f}s: {label}")

    if args.network:
        live_util = result.link_utilization()
        replayed_util = replay_link_utilization(telemetry_path)
        assert replayed_util.mean_utilization() == live_util.mean_utilization()
        print("\nlink utilization (replayed exactly from telemetry):")
        seen = set(live_util.links())
        for link_id in get_topology(args.network).link_ids:
            if link_id not in seen:
                # always-idle links carry no usage samples (trailing-idle
                # samples are trimmed per link)
                print(f"  {link_id:>12}: idle all day")
                continue
            print(
                f"  {link_id:>12}: mean util {live_util.mean_utilization(link_id) * 100:5.1f}%, "
                f"peak {live_util.peak_active_sessions(link_id)} sessions, "
                f"congested slots {live_util.congested_slot_fraction(link_id) * 100:.0f}%, "
                f"{live_util.mean_allocated_per_session_kbps(link_id):.0f} kbps/session"
            )


if __name__ == "__main__":
    main()
