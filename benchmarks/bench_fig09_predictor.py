"""Figure 9 benchmark: exit-rate predictor across dataset compositions and sampling."""

from repro.experiments import fig09_predictor
from repro.experiments.common import format_table


def test_fig09_predictor(benchmark, substrate, takeaway):
    result = benchmark.pedantic(
        lambda: fig09_predictor.run(substrate=substrate, seeds=(0, 1, 2)),
        rounds=1,
        iterations=1,
    )
    rows = []
    for composition, summary in result.by_composition.items():
        rows.append(
            [
                composition,
                f"{summary.mean['accuracy']:.3f}",
                f"{summary.mean['precision']:.3f}",
                f"{summary.mean['recall']:.3f}",
                f"{summary.mean['f1']:.3f}",
            ]
        )
    rows.append(
        [
            "stall (unbalanced)",
            f"{result.stall_unbalanced.mean['accuracy']:.3f}",
            f"{result.stall_unbalanced.mean['precision']:.3f}",
            f"{result.stall_unbalanced.mean['recall']:.3f}",
            f"{result.stall_unbalanced.mean['f1']:.3f}",
        ]
    )
    print("\nFigure 9 — exit-rate predictor (mean over seeds)")
    print(format_table(["dataset", "acc", "prec", "recall", "f1"], rows))
    stall = result.by_composition["stall"].mean
    all_metrics = result.by_composition["all"].mean
    event = result.by_composition["event"].mean
    # Stall-only training isolates QoS-driven exits: best precision and F1.
    takeaway("fig09 precision, stall > event", stall["precision"], ">", event["precision"])
    takeaway("fig09 precision, event > all", event["precision"], ">", all_metrics["precision"])
    takeaway("fig09 f1, stall > all", stall["f1"], ">", all_metrics["f1"])
    # Removing balanced sampling costs recall (Figure 9b).
    takeaway(
        "fig09 recall drop without balancing", result.recall_drop_without_balancing, ">", 0.0
    )
