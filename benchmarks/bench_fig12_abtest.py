"""Figure 12 benchmark: 10-day difference-in-differences A/B campaign."""


def test_fig12_ab_test(benchmark, ab_result, takeaway):
    result = benchmark.pedantic(lambda: ab_result, rounds=1, iterations=1)
    print("\nFigure 12 — difference-in-differences A/B test")
    print("  day  group      watch_time  bitrate  stall_s_per_h")
    for control, treatment in zip(result.control_daily, result.treatment_daily):
        print(
            f"  {control.day + 1:>3}  control    {control.total_watch_time:>10.0f}  "
            f"{control.mean_bitrate_kbps:>7.0f}  {control.stall_seconds_per_hour:>12.2f}"
        )
        print(
            f"  {treatment.day + 1:>3}  treatment  {treatment.total_watch_time:>10.0f}  "
            f"{treatment.mean_bitrate_kbps:>7.0f}  {treatment.stall_seconds_per_hour:>12.2f}"
        )
    print("  " + result.watch_time.summary())
    print("  " + result.bitrate.summary())
    print("  " + result.stall_time.summary())
    assert len(result.control_daily) == result.days_pre + result.days_post
    # Watch time (the optimization target) rises after deployment, the
    # direction Figure 12 reports.
    takeaway("fig12 watch-time effect", result.watch_time.effect, ">", 0.0)
