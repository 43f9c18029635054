"""Figure 3 benchmark: watch time versus quality tier and stall time."""

import numpy as np

from repro.experiments import fig03_watchtime_qos


def test_fig03_watchtime_qos(benchmark, substrate, takeaway):
    result = benchmark.pedantic(
        lambda: fig03_watchtime_qos.run(substrate=substrate), rounds=1, iterations=1
    )
    print("\nFigure 3 — normalized watch time")
    for name, value in zip(result.tier_names, result.watch_time_by_tier):
        print(f"  tier {name}: {value:.3f}")
    for edge, value in zip(result.stall_bins_s, result.watch_time_by_stall):
        print(f"  stall >= {edge:>4.1f}s: {value:.3f}")
    finite = result.watch_time_by_tier[np.isfinite(result.watch_time_by_tier)]
    assert np.nanmax(finite) == 1.0
    # Heavier stalling sessions watch less than stall-free ones.
    stall_series = result.watch_time_by_stall
    finite_stall = stall_series[np.isfinite(stall_series)]
    takeaway(
        "fig03 watch time, top stall bin <= stall-free",
        finite_stall[-1],
        "<=",
        finite_stall[0] + 1e-9,
    )
