"""Longitudinal fleet demo: K engagement-coupled days with churn and drift.

Run with ``python examples/longitudinal.py [--days K] [--ab]``.  The default
run simulates a population through several days where each user's next-day
arrival probability depends on their engagement today (stalls and abandoned
sessions erode it), the population drifts (bandwidth/tolerance wobble plus a
daily new-user influx), per-user controller state carries across days, and
the full per-day JSONL telemetry — sessions *and* retention decisions — is
replayed back and verified to match the live run exactly.

``--ab`` additionally runs the cross-day A/B harness: two arms (aggressive
vs conservative HYB) play the same days with shared seeds, and the per-day
cohort metrics are compared with paired confidence intervals — the
compounding analogue of the Figure 12 protocol.
"""

from __future__ import annotations

import argparse
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs.live import live_run
from repro.abr.base import QoEParameters
from repro.fleet import (
    DriftConfig,
    HybFleetFactory,
    LongitudinalCampaign,
    LongitudinalConfig,
    available_scenarios,
    replay_retention_decisions,
    run_ab_campaign,
)
from repro.net import available_topologies
from repro.obs.telemetry_reader import replay_log_collection
from repro.sim import available_backends
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=4, help="simulated days")
    parser.add_argument("--users", type=int, default=200, help="initial population size")
    parser.add_argument("--sessions", type=int, default=2, help="sessions per user per day")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--influx", type=int, default=8, help="new users per day")
    parser.add_argument(
        "--backend", default="scalar", choices=available_backends(),
        help="simulation backend (campaigns are bit-identical across backends)",
    )
    parser.add_argument(
        "--network", default=None, choices=available_topologies(),
        help="shared-bottleneck topology (optional)",
    )
    parser.add_argument(
        "--scenario", default="steady_state", choices=available_scenarios(),
    )
    parser.add_argument(
        "--ab", action="store_true", help="run the two-arm cross-day A/B harness"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "enable the observability layer and print/write a campaign-wide "
            "run health report (span tree across campaign/fleet/engine layers)"
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
            "publish live heartbeats for the whole campaign: write a status "
            "file here (watch with `python -m repro.obs.monitor PATH`)"
        ),
    )
    return parser.parse_args()


def _config(args: argparse.Namespace) -> LongitudinalConfig:
    return LongitudinalConfig(
        days=args.days,
        seed=args.seed,
        num_shards=args.shards,
        num_workers=args.workers,
        sessions_per_user=args.sessions,
        trace_length=80,
        backend=args.backend,
        network=args.network,
        drift=DriftConfig(influx_per_day=args.influx),
    )


def run_single(args: argparse.Namespace, population, library) -> None:
    with tempfile.TemporaryDirectory(prefix="longitudinal_") as tmp:
        telemetry_dir = Path(tmp)
        result = LongitudinalCampaign(_config(args)).run(
            population,
            library,
            scenario=args.scenario,
            telemetry_dir=telemetry_dir,
        )

        print(f"\nper-day campaign table ({args.backend} backend):")
        print("  day   DAU  retention  sessions  exit%   stall_s   watch_h")
        for day in result.days:
            metrics = day.result.metrics
            retention = (
                f"{day.retention_rate:9.3f}"
                if not np.isnan(day.retention_rate)
                else "        -"
            )
            print(
                f"  {day.day:>3}  {day.dau:>4}  {retention}  "
                f"{metrics.num_sessions:>8}  {metrics.session_exit_rate * 100:5.1f}  "
                f"{metrics.total_stall_time_s:8.1f}  "
                f"{metrics.total_watch_time_s / 3600:8.2f}"
            )
        print(f"final roster: {len(result.final_roster)} users "
              f"({len(result.final_roster) - len(population)} joined)")

        # exact replay: per-day session telemetry and retention decisions
        for day in result.days:
            replayed = replay_log_collection(telemetry_dir / f"day_{day.day:03d}.jsonl")
            live = day.result.logs
            assert len(replayed) == len(live)
            if len(live) and replayed.segment_exit_rate() != live.segment_exit_rate():
                raise SystemExit(f"day {day.day}: replayed aggregates diverged")
        live_decisions = {
            (day.day, uid): decision
            for day in result.days
            for uid, decision in day.decisions.items()
        }
        replayed_decisions = replay_retention_decisions(telemetry_dir / "campaign.jsonl")
        if replayed_decisions != live_decisions:
            raise SystemExit("retention decisions diverged after telemetry replay")
        print(
            f"telemetry verified: {sum(len(d.result.logs) for d in result.days)} "
            f"sessions and {len(replayed_decisions)} retention decisions replay exactly"
        )


def run_ab(args: argparse.Namespace, population, library) -> None:
    result = run_ab_campaign(
        population,
        library,
        arms={
            "aggressive": HybFleetFactory(parameters=QoEParameters(beta=0.9)),
            "conservative": HybFleetFactory(parameters=QoEParameters(beta=0.5)),
        },
        config=_config(args),
        scenario=args.scenario,
    )
    print("\ncross-day A/B (aggressive vs conservative HYB, paired days):")
    for line in result.summary_lines():
        print("  " + line)
    for arm, campaign in result.arms.items():
        print(f"  {arm}: DAU {campaign.dau_series}")


def main() -> None:
    args = _parse_args()
    print(
        f"simulating {args.days} days x {args.users} users "
        f"(backend={args.backend}, network={args.network or 'uncoupled'}, "
        f"scenario={args.scenario}) ..."
    )
    population = UserPopulation.generate(
        args.users, seed=args.seed, bandwidth_median_kbps=3500.0
    )
    library = VideoLibrary(num_videos=6, mean_duration=45.0, std_duration=15.0, seed=2)
    if args.profile:
        obs.enable()
    try:
        with ExitStack() as stack:
            if args.live_status:
                stack.enter_context(
                    live_run(args.live_status, run_id="longitudinal")
                )
                print(f"live status: python -m repro.obs.monitor {args.live_status}")
            run_single(args, population, library)
            if args.ab:
                run_ab(args, population, library)
    finally:
        if args.profile:
            report = obs.build_run_report(run_id="longitudinal")
            obs.disable()
            print()
            print(obs.format_report(report))
            if args.report:
                path = obs.write_report(report, args.report)
                print(f"run health report written to {path}")


if __name__ == "__main__":
    main()
