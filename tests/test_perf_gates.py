"""Performance gates: ratio bounds between two ways of running one workload.

Each gate times two (or three) arms of the same workload on the host running
the tests and asserts a ratio bound, after checking that the arms agree on
their output.  An arm's time is the minimum over ``rounds`` alternating runs
that follow one untimed warm-up run of every arm, so a one-off scheduler stall
cannot fail a gate and arm order cannot favour either side.  Absolute
throughput is the benchmark suite's job (``benchmarks/suite``, bounded per
metric by ``BENCHMARK.json``); these gates pin the ratios the engines were
built for, at the sizes where each bound is defined.

The timing gates carry ``no_cover``: coverage tracing slows pure-Python arms
more than numpy arms and would skew the ratios.  Run alone with::

    PYTHONPATH=src python -m pytest tests/test_perf_gates.py -q
"""

from __future__ import annotations

import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.abr.base import QoEParameters
from repro.abr.hyb import HYB
from repro.analytics.logs import LinkUtilizationLog, LogCollection
from repro.core.controller import ControllerConfig, LingXiABR, LingXiController
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import (
    BatchedMonteCarloEvaluator,
    MonteCarloConfig,
    MonteCarloEvaluator,
)
from repro.core.parameter_space import ParameterSpace
from repro.core.state import PlayerSnapshot, UserState
from repro.core.triggers import TriggerPolicy
from repro.fleet import (
    BatchedExitPredictor,
    DriftConfig,
    FleetConfig,
    FleetOrchestrator,
    LongitudinalCampaign,
    LongitudinalConfig,
    fleet_metrics,
    shared_pool,
    shutdown_shared_pools,
)
from repro.net import CacheModel, EdgeLink, NetworkTopology
from repro.sim import SessionSpec, get_backend, spawn_session_seeds
from repro.sim.bandwidth import BandwidthModel, StationaryTraceGenerator
from repro.sim.video import BitrateLadder, Video, VideoLibrary
from repro.users.population import UserPopulation


def best_times(arms, rounds=5, fresh=lambda: None, warm=None):
    """Each arm's minimum wall time over ``rounds`` alternating timed runs.

    Every arm first runs once untimed, on ``warm()`` when given (a small
    input that loads the code paths) and on ``fresh()`` otherwise.
    ``fresh()`` builds each run's input outside the timed region; the last
    run's outputs are returned too.
    """
    best = dict.fromkeys(arms, math.inf)
    outputs = {}
    for round_ in range(rounds + 1):
        for name, run in arms.items():
            given = fresh() if round_ or warm is None else warm()
            start = time.perf_counter()
            outputs[name] = run(given)
            elapsed = time.perf_counter() - start
            if round_:
                best[name] = min(best[name], elapsed)
    return best, outputs


def hyb_specs(num_sessions, traces=None, num_segments=60, abr=None):
    """One HYB session per generated user, cycling over ``traces``."""
    population = UserPopulation.generate(
        num_sessions, seed=7, bandwidth_median_kbps=3000.0
    )
    video = Video(num_segments=num_segments, seed=3)
    traces = traces or [
        StationaryTraceGenerator(2500.0, 600.0).generate(100, np.random.default_rng(0))
    ]
    seeds = spawn_session_seeds(0, num_sessions)
    shared = HYB()
    return [
        SessionSpec(
            abr=shared if abr is None else abr(i),
            video=video,
            trace=traces[i % len(traces)],
            exit_model=profile.exit_model(),
            seed=seeds[i],
            user_id=profile.user_id,
        )
        for i, profile in enumerate(population)
    ]


def run_backend(name, network=None):
    return lambda specs: get_backend(name).run_batch(specs, network=network)


@pytest.mark.no_cover
def test_vector_engine_is_5x_scalar_at_1024_sessions():
    specs = hyb_specs(1024)
    best, traces = best_times(
        {"scalar": run_backend("scalar"), "vector": run_backend("vector")},
        rounds=2,
        fresh=lambda: specs,
        warm=lambda: specs[:16],
    )
    assert traces["scalar"] == traces["vector"]
    speedup = best["scalar"] / best["vector"]
    assert speedup >= 5.0, f"vector engine only {speedup:.2f}x scalar at N=1024"


@pytest.mark.no_cover
def test_batched_lingxi_control_plane_is_3x_scalar_at_1024_sessions():
    """Optimisation-enabled sessions over a 1-8 Mbps mix: the low tail stalls
    and triggers per-user Monte-Carlo optimisation, fast users are pruned."""
    predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
    rng = np.random.default_rng(0)
    traces = [
        StationaryTraceGenerator(mean, mean * 0.25).generate(100, rng)
        for mean in (1000.0, 1600.0, 2200.0, 3000.0, 4200.0, 6000.0, 8000.0, 2600.0)
    ]

    def controlled(i):
        controller = LingXiController(
            parameter_space=ParameterSpace.for_hyb(),
            predictor=predictor,
            monte_carlo=MonteCarloConfig(num_samples=2, max_sample_duration_s=12.0),
            trigger=TriggerPolicy(),
            config=ControllerConfig(mode="fixed", max_sample_times=3, seed=1000 + i),
        )
        return LingXiABR(HYB(), controller)

    def played(backend):
        return lambda specs: (specs, get_backend(backend).run_batch(specs))

    # Controllers are stateful: every run gets a freshly built, identical batch.
    best, out = best_times(
        {"scalar": played("scalar"), "vector": played("vector")},
        rounds=2,
        fresh=lambda: hyb_specs(1024, traces, num_segments=72, abr=controlled),
        warm=lambda: hyb_specs(16, traces, num_segments=72, abr=controlled),
    )
    (scalar_specs, scalar_traces), (vector_specs, vector_traces) = out.values()
    assert scalar_traces == vector_traces
    histories = [spec.abr.controller.history for spec in scalar_specs]
    assert histories == [spec.abr.controller.history for spec in vector_specs]
    assert sum(map(len, histories)) > 0, "workload never triggered optimisation"
    speedup = best["scalar"] / best["vector"]
    assert speedup >= 3.0, f"batched LingXi only {speedup:.2f}x scalar at N=1024"


@pytest.mark.no_cover
def test_allocator_overhead_at_1024_sessions():
    """Flat fair share within 2x and the 3-tier path water-fill within 4x of
    the uncoupled vector engine, on a topology roomy enough that the traces
    stay comparable in length."""
    capacity = 4000.0 * 1024 / 8
    flat = tuple(EdgeLink(f"edge{i}", capacity) for i in range(8))
    edges = tuple(
        EdgeLink(f"edge{i}", capacity, uplinks=(f"peer{i % 2}", "origin"))
        for i in range(8)
    )
    upstream = (
        EdgeLink("peer0", capacity * 4, tier="peering"),
        EdgeLink("peer1", capacity * 4, tier="peering"),
        EdgeLink("origin", capacity * 8, tier="origin"),
    )
    tiered = NetworkTopology(
        name="roomy8_3tier", links=edges + upstream, cache=CacheModel(hit_ratio=0.5)
    )
    specs = hyb_specs(1024)
    best, _ = best_times(
        {
            "plain": run_backend("vector"),
            "networked": run_backend(
                "vector", NetworkTopology(name="roomy8", links=flat)
            ),
            "tiered": run_backend("vector", tiered),
        },
        fresh=lambda: specs,
    )
    flat_cost = best["networked"] / best["plain"]
    tiered_cost = best["tiered"] / best["plain"]
    assert flat_cost <= 2.0, f"allocator overhead {flat_cost:.2f}x at N=1024"
    assert tiered_cost <= 4.0, f"path-aware overhead {tiered_cost:.2f}x at N=1024"


def test_congestion_lowers_per_session_throughput_on_a_hot_link():
    """Nobody scales a trace: the allocator divides one 200 Mbps link."""
    hot = NetworkTopology(name="hotlink", links=(EdgeLink("hot", 200_000.0),))
    rows = []
    for num_sessions in (16, 64, 256, 1024):
        usage = []
        get_backend("vector").run_batch(
            hyb_specs(num_sessions), network=hot, link_usage=usage
        )
        log = LinkUtilizationLog(usage)
        rows.append(
            (
                log.mean_allocated_per_session_kbps("hot"),
                log.congested_slot_fraction("hot"),
            )
        )
    # Below saturation every demand is served in full and the busy-slot mean
    # drifts with exit timing; once the link congests, more sessions must
    # strictly mean less throughput each.
    congested = [kbps for kbps, fraction in rows if fraction > 0.5]
    assert congested and len(congested) < len(rows)
    assert all(a > b for a, b in zip(congested, congested[1:])), congested
    assert congested[-1] < rows[0][0]


@pytest.mark.no_cover
def test_vector_campaign_is_3x_scalar_at_1000_users():
    """Churn and drift bookkeeping are shared campaign costs, so the floor
    sits below the raw engine's."""
    population = UserPopulation.generate(1000, seed=7, bandwidth_median_kbps=3000.0)
    library = VideoLibrary(num_videos=6, mean_duration=45.0, std_duration=15.0, seed=2)

    def campaign(backend):
        config = LongitudinalConfig(
            days=2,
            seed=13,
            num_shards=1,
            num_workers=0,
            sessions_per_user=2,
            trace_length=60,
            backend=backend,
            drift=DriftConfig(influx_per_day=8),
        )
        return lambda users: LongitudinalCampaign(config).run(users, library)

    best, out = best_times(
        {"scalar": campaign("scalar"), "vector": campaign("vector")},
        rounds=1,
        fresh=lambda: population,
        warm=lambda: UserPopulation(list(population)[:8]),
    )
    scalar, vector = out.values()
    assert scalar.dau_series == vector.dau_series
    assert [d.decisions for d in scalar.days] == [d.decisions for d in vector.days]
    speedup = best["scalar"] / best["vector"]
    assert speedup >= 3.0, f"vector campaign only {speedup:.2f}x scalar"


def fleet_users(users):
    return UserPopulation.generate(users, seed=0, bandwidth_median_kbps=6000.0)


def fleet_day(shards=1, backend="scalar", pool=None):
    library = VideoLibrary(num_videos=8, mean_duration=40.0, std_duration=15.0, seed=1)
    config = FleetConfig(
        num_shards=shards,
        num_workers=0 if pool is None else shards,
        sessions_per_user=3,
        trace_length=100,
        seed=0,
        backend=backend,
    )
    orchestrator = FleetOrchestrator(config, pool=pool)
    return lambda population: orchestrator.run(population, library)


@pytest.mark.no_cover
def test_vector_fleet_day_beats_scalar():
    """Inline on one shard, so pool scheduling cannot enter the comparison."""
    population = fleet_users(400)
    best, out = best_times(
        {"scalar": fleet_day(), "vector": fleet_day(backend="vector")},
        rounds=2,
        fresh=lambda: population,
        warm=lambda: UserPopulation(list(population)[:16]),
    )
    assert out["scalar"].metrics.num_sessions == out["vector"].metrics.num_sessions
    assert best["vector"] < best["scalar"]


@pytest.mark.no_cover
def test_batched_inference_and_lockstep_rollouts_beat_per_row(tiny_substrate):
    """Algorithm 2 in a bandwidth-starved state, where LingXi activates."""
    predictor = tiny_substrate.predictor
    bandwidth = BandwidthModel(window=8)
    for value in (300.0, 280.0, 320.0, 290.0, 310.0, 300.0, 295.0, 305.0):
        bandwidth.update(value)
    snapshot = PlayerSnapshot(
        ladder=BitrateLadder(),
        segment_duration=2.0,
        buffer=2.0,
        last_level=1,
        bandwidth_model=bandwidth,
    )
    state = UserState()
    for k in range(10):
        state.observe_segment(
            bitrate_kbps=750.0,
            throughput_kbps=300.0,
            stall_time=0.5 if k % 2 == 0 else 0.0,
            segment_duration=2.0,
        )
    config = MonteCarloConfig(num_samples=16, max_sample_duration_s=60.0, seed=1)
    parameters = QoEParameters(beta=0.7)
    abr = HYB()

    def evaluate(evaluator, first_seed):
        for i in range(first_seed, first_seed + 6):
            rng = np.random.default_rng(i)
            evaluator.evaluate(parameters, abr, snapshot, state, rng=rng)

    # The decision points of the sequential reference's rollouts.
    calls = []

    def record(features, level, switch_magnitude, stalled):
        calls.append((np.array(features), level, switch_magnitude, stalled))
        return predictor.predict(
            features, level=level, switch_magnitude=switch_magnitude, stalled=stalled
        )

    evaluate(MonteCarloEvaluator(SimpleNamespace(predict=record), config=config), 100)
    assert len(calls) >= 64, "expected a stall-heavy Monte-Carlo workload"
    columns = [np.asarray(column) for column in zip(*calls)]
    batched = BatchedExitPredictor(predictor)

    best, out = best_times(
        {
            "per_row": lambda _: [
                predictor.predict(f, level=lv, switch_magnitude=sw, stalled=st)
                for f, lv, sw, st in calls
            ],
            "batched": lambda _: batched.predict_many(*columns),
        }
    )
    np.testing.assert_allclose(out["batched"], out["per_row"], atol=1e-9)
    speedup = best["per_row"] / best["batched"]
    assert speedup >= 2.0, f"batched inference only {speedup:.2f}x per-row"

    sequential = MonteCarloEvaluator(predictor, config=config)
    lockstep = BatchedMonteCarloEvaluator(batched, config=config)
    best, _ = best_times(
        {
            "sequential": lambda _: evaluate(sequential, 200),
            "lockstep": lambda _: evaluate(lockstep, 200),
        }
    )
    assert best["lockstep"] < best["sequential"]


def canonical_metrics(result):
    """Fleet metrics summed in (user, day, session) order, whatever the shards."""
    order = lambda log: (log.user_id, log.day, log.session_index)  # noqa: E731
    return fleet_metrics(LogCollection(sorted(result.logs, key=order)))


@pytest.mark.no_cover
@pytest.mark.parametrize("users, floor", [(200, 1.0), (400, 1.5)])
def test_warm_four_worker_pool_scales_over_inline(users, floor):
    """Four warm pool workers against the inline path on one shard.  The floor
    is enforced on hosts with at least four usable cores; with fewer, four
    workers time-slice the cores and only the equality check runs."""
    pool = shared_pool(4)
    try:
        arms = {"inline": fleet_day(), "pooled": fleet_day(4, pool=pool)}
        enforced = len(os.sched_getaffinity(0)) >= 4
        population = fleet_users(users)
        best, out = best_times(
            arms, rounds=3 if enforced else 0, fresh=lambda: population
        )
    finally:
        shutdown_shared_pools()
    assert out["inline"].metrics.num_sessions == 3 * users
    assert canonical_metrics(out["pooled"]) == canonical_metrics(out["inline"])
    if enforced:
        speedup = best["inline"] / best["pooled"]
        assert speedup >= floor, f"warm 4-worker pool only {speedup:.2f}x inline"
