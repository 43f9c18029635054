"""Run every experiment with laptop-scale defaults and print a summary.

``python -m repro.experiments.runner`` regenerates the headline numbers of
every figure (EXPERIMENTS.md records a reference run).  A subset can be
selected on the command line::

    python -m repro.experiments.runner --figures fig01,fig12 --quiet

Individual figures can also be run by importing their module and calling
``run()`` directly.
"""

from __future__ import annotations

import argparse
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs.live import live_run
from repro.experiments import (
    fig01_qos_saturation,
    fig02_opportunities,
    fig03_watchtime_qos,
    fig04_exit_rate_qos,
    fig05_personalized_stall,
    fig08_trigger_tradeoff,
    fig09_predictor,
    fig10_simulation,
    fig11_heatmap,
    fig12_ab_test,
    fig13_bandwidth_bins,
    fig14_exit_rate_vs_param,
    fig15_user_trajectories,
    fig16_longitudinal,
)
from repro.experiments.common import SubstrateConfig, build_substrate
from repro.net.topology import available_topologies

#: Figure ids in execution order.  Figures 13–15 reuse the AA/AB campaign of
#: Figure 12, so selecting any of them pulls ``fig12`` in as a dependency.
FIGURE_IDS: tuple[str, ...] = (
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig08",
    "fig09",
    "fig10_mpc_rule",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16_longitudinal",
)

_FIG12_DEPENDENTS: frozenset[str] = frozenset({"fig13", "fig14", "fig15"})


def select_figures(requested: list[str] | None) -> list[str]:
    """Validate a figure selection and resolve the fig12 dependency.

    ``None`` (or an empty list) selects everything.  The result preserves the
    canonical execution order of :data:`FIGURE_IDS`.
    """
    if not requested:
        return list(FIGURE_IDS)
    unknown = sorted(set(requested) - set(FIGURE_IDS))
    if unknown:
        raise ValueError(f"unknown figures {unknown}; choose from {list(FIGURE_IDS)}")
    selected = set(requested)
    if selected & _FIG12_DEPENDENTS:
        selected.add("fig12")
    return [figure for figure in FIGURE_IDS if figure in selected]


def run_all(
    substrate_config: SubstrateConfig | None = None,
    verbose: bool = True,
    figures: list[str] | None = None,
) -> dict[str, object]:
    """Run the selected figure drivers once; returns figure-id -> result."""
    selected = select_figures(figures)
    substrate = build_substrate(substrate_config or SubstrateConfig())
    results: dict[str, object] = {}

    def step(name: str, fn) -> None:
        if name not in selected:
            return
        start = time.time()  # contract: DET-CLOCK-002 exempt(progress display only; never reaches figures or traces)
        with obs.span(f"runner.{name}"):
            results[name] = fn()
        if verbose:
            print(f"{name}: done in {time.time() - start:.1f}s")  # contract: DET-CLOCK-002 exempt(progress display only; never reaches figures or traces)

    step("fig01", lambda: fig01_qos_saturation.run(substrate=substrate))
    step("fig02", lambda: fig02_opportunities.run(substrate=substrate))
    step("fig03", lambda: fig03_watchtime_qos.run(substrate=substrate))
    step("fig04", lambda: fig04_exit_rate_qos.run(substrate=substrate))
    step("fig05", lambda: fig05_personalized_stall.run(substrate=substrate))
    step("fig08", lambda: fig08_trigger_tradeoff.run(substrate=substrate))
    step("fig09", lambda: fig09_predictor.run(substrate=substrate))
    step("fig10_mpc_rule", lambda: fig10_simulation.run("robust_mpc", "rule", substrate=substrate))
    step("fig11", lambda: fig11_heatmap.run(substrate=substrate))
    step("fig12", lambda: fig12_ab_test.run(substrate=substrate))
    ab_result = results.get("fig12")
    step("fig13", lambda: fig13_bandwidth_bins.run(substrate=substrate, ab_result=ab_result))
    step("fig14", lambda: fig14_exit_rate_vs_param.run(substrate=substrate, ab_result=ab_result))
    step("fig15", lambda: fig15_user_trajectories.run(substrate=substrate, ab_result=ab_result))
    step("fig16_longitudinal", lambda: fig16_longitudinal.run(substrate=substrate))

    if verbose:
        if "fig04" in results:
            fig04 = results["fig04"]
            print(
                "influence magnitudes:",
                f"quality={fig04.quality_magnitude:.4f}",
                f"smoothness={fig04.smoothness_magnitude:.4f}",
                f"stall={fig04.stall_magnitude:.4f}",
            )
        if "fig12" in results:
            fig12 = results["fig12"]
            print(fig12.watch_time.summary())
            print(fig12.bitrate.summary())
            print(fig12.stall_time.summary())
        if "fig16_longitudinal" in results:
            for line in results["fig16_longitudinal"].summary_lines():
                print(line)
    return results


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's figures at laptop scale.",
    )
    parser.add_argument(
        "--figures",
        default=None,
        help=(
            "comma-separated figure ids to run (default: all); "
            f"available: {', '.join(FIGURE_IDS)}"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-figure timing and summary output",
    )
    parser.add_argument(
        "--network",
        default=None,
        choices=available_topologies(),
        help=(
            "shared-bottleneck topology for substrate log generation: "
            "sessions fair-share edge-link capacity, so the synthetic "
            "corpus carries emergent congestion (default: uncoupled)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "enable the observability layer (repro.obs): per-figure span "
            "tree, fleet metrics and a run health report written to "
            "--report-out and printed at the end"
        ),
    )
    parser.add_argument(
        "--report-out",
        default="report.json",
        help="where --profile writes the run health report (default: report.json)",
    )
    parser.add_argument(
        "--live-status",
        default=None,
        metavar="PATH",
        help=(
            "publish live heartbeats while figures run: write a status file "
            "here (watch with `python -m repro.obs.monitor PATH`)"
        ),
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> dict[str, object]:
    """Command-line entry point."""
    args = _parse_args(argv)
    figures = (
        [name.strip() for name in args.figures.split(",") if name.strip()]
        if args.figures
        else None
    )
    try:
        select_figures(figures)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    np.set_printoptions(precision=4, suppress=True)
    if args.profile:
        obs.enable()
    try:
        with ExitStack() as stack:
            if args.live_status:
                stack.enter_context(
                    live_run(args.live_status, run_id="experiments.runner")
                )
                print(f"live status: python -m repro.obs.monitor {args.live_status}")
            results = run_all(
                substrate_config=SubstrateConfig(network=args.network),
                verbose=not args.quiet,
                figures=figures,
            )
    finally:
        if args.profile:
            report = obs.build_run_report(run_id="experiments.runner")
            path = obs.write_report(report, Path(args.report_out))
            obs.disable()
            if not args.quiet:
                print(obs.format_report(report))
            print(f"run health report written to {path}")
    return results


if __name__ == "__main__":
    main()
