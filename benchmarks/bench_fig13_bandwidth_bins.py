"""Figure 13 benchmark: learned beta and stall change per bandwidth bin."""

import numpy as np

from repro.experiments import fig13_bandwidth_bins


def test_fig13_bandwidth_bins(benchmark, substrate, ab_result, takeaway):
    result = benchmark.pedantic(
        lambda: fig13_bandwidth_bins.run(substrate=substrate, ab_result=ab_result),
        rounds=1,
        iterations=1,
    )
    print("\nFigure 13 — LingXi across bandwidth regimes")
    for label, beta, std, stall in zip(
        result.bin_labels, result.mean_beta, result.std_beta, result.stall_change_percent
    ):
        print(
            f"  {label:>12}: beta {beta:.3f} ± {std:.3f}, stall change {stall:+.1f}%"
        )
    finite_beta = [b for b in result.mean_beta if np.isfinite(b)]
    if finite_beta:
        takeaway("fig13 lowest bin beta", min(finite_beta), ">=", 0.4)
        takeaway("fig13 highest bin beta", max(finite_beta), "<=", 1.0)
    # The long tail (<2 Mbps) must see a stall-time reduction.
    takeaway("fig13 long-tail stall change", result.low_bandwidth_stall_change, "<", 0.0)
    # Learned beta in the top bandwidth bin is at least as high as in the lowest.
    if np.isfinite(result.mean_beta[0]) and np.isfinite(result.mean_beta[-1]):
        takeaway(
            "fig13 beta, top bin >= bottom bin",
            result.mean_beta[-1],
            ">=",
            result.mean_beta[0] - 1e-6,
        )
