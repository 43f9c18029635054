"""Figure 2 benchmark: bandwidth CDF and daily stall-count CDF."""

import numpy as np

from repro.experiments import fig02_opportunities


def test_fig02_opportunities(benchmark, substrate, takeaway):
    result = benchmark.pedantic(
        lambda: fig02_opportunities.run(substrate=substrate), rounds=1, iterations=1
    )
    print("\nFigure 2 — optimization opportunities")
    print(f"  max encoding bitrate: {result.max_bitrate_mbps:.1f} Mbps")
    print(f"  users below max bitrate: {result.fraction_below_max_bitrate * 100:.1f}%")
    print(f"  stall-free user-days: {result.fraction_stall_free * 100:.1f}%")
    print(f"  user-days with <=2 stalls: {result.fraction_at_most_two_stalls * 100:.1f}%")
    for quantile in (0.1, 0.5, 0.9):
        index = int(quantile * (result.bandwidth_mbps_sorted.size - 1))
        print(f"  bandwidth p{int(quantile * 100)}: {result.bandwidth_mbps_sorted[index]:.1f} Mbps")
    # Long tail exists but is a minority, as in Figure 2(a).
    takeaway("fig02 users below max bitrate", result.fraction_below_max_bitrate, ">=", 0.02)
    takeaway("fig02 users below max bitrate", result.fraction_below_max_bitrate, "<=", 0.5)
    takeaway(
        "fig02 user-days with <=2 stalls >= stall-free",
        result.fraction_at_most_two_stalls,
        ">=",
        result.fraction_stall_free,
    )
    assert np.all(np.diff(result.bandwidth_cdf) >= 0)
