"""Figure 5 benchmark: personalized perception of stall time."""

import numpy as np

from repro.experiments import fig05_personalized_stall


def test_fig05_personalized_stall(benchmark, substrate, takeaway):
    result = benchmark.pedantic(
        lambda: fig05_personalized_stall.run(substrate=substrate), rounds=1, iterations=1
    )
    print("\nFigure 5 — personalized stall perception")
    print(f"  users with tolerance < 1s: {result.fraction_low_tolerance * 100:.1f}%")
    print(f"  users tolerating > 5s: {result.fraction_above_5s * 100:.1f}%")
    for name, curve in result.example_curves.items():
        print(f"  example {name}: exit prob at 2s={curve[8]:.2f}, at 6s={curve[24]:.2f}")
    assert result.tolerance_cdf[-1] == 1.0
    assert set(result.example_curves) >= {"sensitive", "threshold"}
    # Sensitive users exit more readily than insensitive ones at a moderate stall.
    if "insensitive" in result.example_curves:
        takeaway(
            "fig05 peak exit prob, sensitive > insensitive",
            np.max(result.example_curves["sensitive"]),
            ">",
            np.max(result.example_curves["insensitive"]),
        )
