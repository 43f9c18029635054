"""Figure 1 benchmark: three fixed-objective algorithms in a 5-day A/B test."""

from repro.experiments import fig01_qos_saturation
from repro.experiments.common import format_table


def test_fig01_qos_saturation(benchmark, substrate, takeaway):
    result = benchmark.pedantic(
        lambda: fig01_qos_saturation.run(substrate=substrate, days=3),
        rounds=1,
        iterations=1,
    )
    rows = result.rows()
    print("\nFigure 1 — normalized daily metrics (reference = Alg2)")
    print(format_table(["alg", "day", "bitrate", "stall", "qoe_lin", "watch_time"], rows))
    # Alg3 (quality-leaning) should deliver the highest bitrate on average.
    mean_bitrate = {name: sum(series) / len(series) for name, series in result.bitrate.items()}
    takeaway(
        "fig01 mean bitrate Alg3 >= Alg1",
        mean_bitrate["Alg3"],
        ">=",
        mean_bitrate["Alg1"] - 1e-6,
    )
