"""Figure 4 benchmark: exit rate versus quality, smoothness and stall time."""

import numpy as np

from repro.experiments import fig04_exit_rate_qos


def test_fig04_exit_rate_qos(benchmark, substrate, takeaway):
    result = benchmark.pedantic(
        lambda: fig04_exit_rate_qos.run(substrate=substrate), rounds=1, iterations=1
    )
    print("\nFigure 4 — segment-level exit rates")
    for name, value in zip(result.tier_names, result.exit_rate_by_tier):
        print(f"  quality {name}: {value:.4f}")
    for granularity, value in sorted(result.exit_rate_by_switch.items()):
        print(f"  switch {granularity:+d}: {value:.4f}")
    for edge, value in zip(result.stall_bins_s, result.exit_rate_by_stall):
        print(f"  stall >= {edge:>4.1f}s: {value:.4f}")
    print(
        "  influence magnitudes — quality: "
        f"{result.quality_magnitude:.4f}, smoothness: {result.smoothness_magnitude:.4f}, "
        f"stall: {result.stall_magnitude:.4f}"
    )
    # Takeaway 1: hierarchical influence magnitudes (stall >> smoothness >= quality).
    takeaway(
        "fig04 stall > smoothness magnitude",
        result.stall_magnitude,
        ">",
        result.smoothness_magnitude,
    )
    takeaway(
        "fig04 stall > quality magnitude", result.stall_magnitude, ">", result.quality_magnitude
    )
    # Stall exit rates rise with cumulative stall time.
    stall_series = result.exit_rate_by_stall
    finite = stall_series[np.isfinite(stall_series)]
    takeaway("fig04 exit rate, top stall bin > stall-free", finite[-1], ">", finite[0])
