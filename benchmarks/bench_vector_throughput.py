"""Vector-vs-scalar backend throughput: sessions/second at N ∈ {1, 64, 1024}.

Two workloads are measured, both fleet-shaped with per-user QoS-aware exit
models and per-session `Philox` RNG substreams, and both verified
segment-for-segment identical across backends before their timings count:

* **plain** — N homogeneous HYB sessions (the PR-2 workload), gating the
  raw struct-of-arrays engine at >= 5x over scalar at N=1024;
* **lingxi** — N optimization-enabled ``LingXi(HYB)`` sessions over a
  heterogeneous bandwidth mix (only the low-bandwidth tail stalls enough to
  trigger per-user Monte-Carlo optimization, like a production fleet),
  gating the batched control plane — struct-of-arrays controller state plus
  cross-session lockstep evaluations — at >= 3x over scalar at N=1024.

Run directly (CI smoke uses ``VECTOR_BENCH_SIZES`` / ``LINGXI_BENCH_SIZES``
for a tiny run)::

    PYTHONPATH=src python benchmarks/bench_vector_throughput.py
    PYTHONPATH=src VECTOR_BENCH_SIZES=1,64 LINGXI_BENCH_SIZES=64 \
        python benchmarks/bench_vector_throughput.py

or through pytest alongside the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector_throughput.py -q -s
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from emit import emit_bench
from repro.abr.hyb import HYB
from repro.core.controller import ControllerConfig, LingXiABR, LingXiController
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import MonteCarloConfig
from repro.core.parameter_space import ParameterSpace
from repro.core.triggers import TriggerPolicy
from repro.experiments.common import format_table
from repro.sim import SessionSpec, get_backend, spawn_session_seeds
from repro.sim.session import SessionConfig
from repro.sim.bandwidth import StationaryTraceGenerator
from repro.sim.video import Video
from repro.users.population import UserPopulation

DEFAULT_SIZES = (1, 64, 1024)
DEFAULT_LINGXI_SIZES = (64, 1024)
#: Acceptance floor for the struct-of-arrays engine at the largest batch.
MIN_SPEEDUP_AT_1024 = 5.0
#: Acceptance floor for the batched LingXi control plane at the largest batch.
MIN_LINGXI_SPEEDUP_AT_1024 = 3.0


def _build_specs(num_sessions: int) -> list[SessionSpec]:
    population = UserPopulation.generate(
        num_sessions, seed=7, bandwidth_median_kbps=3000.0
    )
    video = Video(num_segments=60, seed=3)
    trace = StationaryTraceGenerator(2500.0, 600.0).generate(
        100, np.random.default_rng(0)
    )
    abr = HYB()
    seeds = spawn_session_seeds(0, num_sessions)
    return [
        SessionSpec(
            abr=abr,
            video=video,
            trace=trace,
            exit_model=profile.exit_model(),
            seed=seeds[i],
            user_id=profile.user_id,
        )
        for i, profile in enumerate(population)
    ]


def _time_backend(backend_name: str, specs: list[SessionSpec]) -> tuple[float, list]:
    backend = get_backend(backend_name)
    config = SessionConfig()
    backend.run_batch(specs[:1], config)  # warm-up (imports, caches)
    start = time.perf_counter()
    traces = backend.run_batch(specs, config)
    return time.perf_counter() - start, traces


_LINGXI_TRACE_MEANS = (
    1000.0,
    1600.0,
    2200.0,
    3000.0,
    4200.0,
    6000.0,
    8000.0,
    2600.0,
)


def _build_lingxi_specs(num_sessions: int, predictor) -> list[SessionSpec]:
    """Optimization-enabled fleet mix: per-user controllers, mixed bandwidth.

    Eight stationary trace families from deep-tail 1 Mbps to 8 Mbps: the
    low-bandwidth tail stalls and triggers per-user optimization, the fast
    users get pruned — the production-like activation pattern whose control
    plane this benchmark gates.
    """
    population = UserPopulation.generate(
        num_sessions, seed=7, bandwidth_median_kbps=3000.0
    )
    video = Video(num_segments=72, seed=3)
    rng = np.random.default_rng(0)
    traces = [
        StationaryTraceGenerator(mean, mean * 0.25).generate(100, rng)
        for mean in _LINGXI_TRACE_MEANS
    ]
    seeds = spawn_session_seeds(0, num_sessions)
    specs = []
    for i, profile in enumerate(population):
        controller = LingXiController(
            parameter_space=ParameterSpace.for_hyb(),
            predictor=predictor,
            monte_carlo=MonteCarloConfig(num_samples=2, max_sample_duration_s=12.0),
            trigger=TriggerPolicy(),
            config=ControllerConfig(mode="fixed", max_sample_times=3, seed=1000 + i),
        )
        specs.append(
            SessionSpec(
                abr=LingXiABR(HYB(), controller),
                video=video,
                trace=traces[i % len(traces)],
                exit_model=profile.exit_model(),
                seed=seeds[i],
                user_id=profile.user_id,
            )
        )
    return specs


def _print_rows(title: str, rows: list[dict]) -> None:
    print(f"\n{title}")
    print(
        format_table(
            ["N", "segments", "scalar sessions/s", "vector sessions/s", "speedup"],
            [
                [
                    row["sessions"],
                    row["segments"],
                    f"{row['scalar_sps']:.0f}",
                    f"{row['vector_sps']:.0f}",
                    f"{row['speedup']:.1f}x",
                ]
                for row in rows
            ],
        )
    )


def run_bench(sizes=DEFAULT_SIZES, check_speedup: bool = True) -> list[dict]:
    """Measure both backends at each batch size; returns one row per size."""
    rows = []
    for num_sessions in sizes:
        specs = _build_specs(num_sessions)
        scalar_time, scalar_traces = _time_backend("scalar", specs)
        vector_time, vector_traces = _time_backend("vector", specs)
        assert all(
            s.records == v.records for s, v in zip(scalar_traces, vector_traces)
        ), "vector backend diverged from scalar traces"
        num_segments = sum(len(trace) for trace in scalar_traces)
        rows.append(
            {
                "workload": "plain",
                "sessions": num_sessions,
                "segments": num_segments,
                "scalar_sps": num_sessions / scalar_time,
                "vector_sps": num_sessions / vector_time,
                "speedup": scalar_time / vector_time,
            }
        )

    _print_rows(
        "vector backend throughput (identical traces, same spec batch):", rows
    )
    if check_speedup:
        for row in rows:
            if row["sessions"] >= 1024:
                assert row["speedup"] >= MIN_SPEEDUP_AT_1024, (
                    f"vector backend only {row['speedup']:.2f}x at "
                    f"N={row['sessions']} (need >= {MIN_SPEEDUP_AT_1024}x)"
                )
    return rows


def run_lingxi_bench(
    sizes=DEFAULT_LINGXI_SIZES, check_speedup: bool = True, repeats: int = 2
) -> list[dict]:
    """Measure the batched LingXi control plane against the scalar loop.

    Controllers are stateful, so each timed run gets a freshly built
    (deterministic, identical) spec batch; per backend the best of
    ``repeats`` runs counts, which keeps the gate stable against scheduler
    noise.  Trace equality *and* per-controller activation-history equality
    are asserted before any timing is trusted.
    """
    predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
    rows = []
    for num_sessions in sizes:
        get_backend("vector").run_batch(
            _build_lingxi_specs(min(num_sessions, 16), predictor)
        )  # warm-up
        scalar_time = float("inf")
        vector_time = float("inf")
        scalar_specs = vector_specs = None
        scalar_traces = vector_traces = None
        for _ in range(repeats):
            scalar_specs = _build_lingxi_specs(num_sessions, predictor)
            start = time.perf_counter()
            scalar_traces = get_backend("scalar").run_batch(scalar_specs)
            scalar_time = min(scalar_time, time.perf_counter() - start)
            vector_specs = _build_lingxi_specs(num_sessions, predictor)
            start = time.perf_counter()
            vector_traces = get_backend("vector").run_batch(vector_specs)
            vector_time = min(vector_time, time.perf_counter() - start)
        assert all(
            s.records == v.records for s, v in zip(scalar_traces, vector_traces)
        ), "vector backend diverged from scalar traces (lingxi)"
        assert all(
            s.abr.controller.history == v.abr.controller.history
            for s, v in zip(scalar_specs, vector_specs)
        ), "vector controller host diverged from scalar activations"
        activations = sum(
            len(spec.abr.controller.history) for spec in scalar_specs
        )
        rows.append(
            {
                "workload": "lingxi",
                "sessions": num_sessions,
                "segments": sum(len(trace) for trace in scalar_traces),
                "activations": activations,
                "scalar_sps": num_sessions / scalar_time,
                "vector_sps": num_sessions / vector_time,
                "speedup": scalar_time / vector_time,
            }
        )

    _print_rows(
        "LingXi-enabled batch throughput (batched control plane vs scalar):", rows
    )
    if check_speedup:
        for row in rows:
            if row["sessions"] >= 1024:
                assert row["speedup"] >= MIN_LINGXI_SPEEDUP_AT_1024, (
                    f"batched LingXi control plane only {row['speedup']:.2f}x at "
                    f"N={row['sessions']} (need >= {MIN_LINGXI_SPEEDUP_AT_1024}x)"
                )
            assert row["activations"] > 0, "workload never triggered optimization"
    return rows


def run_all(sizes, lingxi_sizes, check_speedup: bool = True) -> list[dict]:
    """Both workloads + one combined ``BENCH_vector_throughput.json``."""
    rows = run_bench(sizes, check_speedup=check_speedup)
    rows += run_lingxi_bench(lingxi_sizes, check_speedup=check_speedup)
    emit_bench(
        "vector_throughput",
        rows,
        config={
            "sizes": list(sizes),
            "lingxi_sizes": list(lingxi_sizes),
            "min_speedup_at_1024": MIN_SPEEDUP_AT_1024,
            "min_lingxi_speedup_at_1024": MIN_LINGXI_SPEEDUP_AT_1024,
        },
    )
    return rows


def _sizes_from_env() -> tuple[int, ...]:
    raw = os.environ.get("VECTOR_BENCH_SIZES")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _lingxi_sizes_from_env() -> tuple[int, ...]:
    raw = os.environ.get("LINGXI_BENCH_SIZES")
    if not raw:
        return DEFAULT_LINGXI_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


def test_vector_backend_throughput(benchmark):
    """Pytest entry point (sizes overridable via VECTOR_BENCH_SIZES)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    run_all(_sizes_from_env(), _lingxi_sizes_from_env())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default=None,
        help="comma-separated batch sizes (default: env VECTOR_BENCH_SIZES or 1,64,1024)",
    )
    parser.add_argument(
        "--lingxi-sizes",
        default=None,
        help="comma-separated LingXi batch sizes (default: env LINGXI_BENCH_SIZES or 64,1024)",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="report only; skip the speedup assertions at N>=1024",
    )
    args = parser.parse_args()
    sizes = (
        tuple(int(part) for part in args.sizes.split(",") if part.strip())
        if args.sizes
        else _sizes_from_env()
    )
    lingxi_sizes = (
        tuple(int(part) for part in args.lingxi_sizes.split(",") if part.strip())
        if args.lingxi_sizes
        else _lingxi_sizes_from_env()
    )
    run_all(sizes, lingxi_sizes, check_speedup=not args.no_assert)


if __name__ == "__main__":
    main()
