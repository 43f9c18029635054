"""Vector kernels under the live-prefix rule of the lockstep cohort.

The vector engine sorts each cohort's rows by descending segment limit and
steps only the *live prefix*: the first ``m`` rows, whose videos still have
the current segment.  Every kernel built over ``n`` rows is then called with
a context of its first ``m <= n`` rows, and ``m`` never grows.  The rule
every kernel keeps: it reads and updates only its first ``m`` rows, so the
call on the first ``m`` rows equals the first ``m`` rows of the full-``n``
call.  Each case below draws seeded random policies and contexts, runs a
full-``n`` kernel and a prefix kernel side by side over several steps with a
shrinking ``m``, and compares them; a failing case replays from its seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.abr.base import QoEParameters
from repro.abr.bba import BBA
from repro.abr.bola import BOLA
from repro.abr.hyb import HYB
from repro.abr.robust_mpc import RobustMPC
from repro.abr.throughput import ThroughputRule
from repro.net import EdgeLink, NetworkTopology
from repro.sim import SessionSpec, get_backend
from repro.sim.bandwidth import StationaryTraceGenerator
from repro.sim.session import ABRContext
from repro.sim.vector import ExitStepView, VectorStepContext, window_stats
from repro.sim.video import BitrateLadder, Video
from repro.users.engagement import BaselineExitModel, QoSAwareExitModel, RuleBasedUser
from repro.users.perception import SensitivityArchetype, StallSensitivityProfile

NUM_CASES = 12
STEPS = 6
LADDER = BitrateLadder()
BITRATES = np.asarray(LADDER.bitrates_kbps, dtype=float)
SEGMENT_DURATION = 2.0
WINDOW = 8


def _share(make, n: int, rng: np.random.Generator) -> list:
    """``n`` rows over about ``n / 2`` policy objects, some rows sharing one
    (a user's sessions share one ABR or exit model)."""
    pool = [make(rng) for _ in range(max(1, n // 2))]
    return [pool[i] for i in rng.integers(len(pool), size=n)]


_ABR_FAMILIES = {
    "throughput": lambda rng: ThroughputRule(
        safety=float(rng.uniform(0.5, 1.0)),
        window=int(rng.integers(1, 9)),
        gradual=bool(rng.integers(2)),
    ),
    "hyb": lambda rng: HYB(
        QoEParameters(beta=float(rng.uniform(0.2, 1.8))),
        throughput_window=int(rng.integers(1, 9)),
        startup_level=int(rng.integers(0, 6)),
    ),
    "bba": lambda rng: BBA(
        reservoir_s=float(rng.uniform(1.0, 8.0)), cushion_s=float(rng.uniform(2.0, 20.0))
    ),
    "bola": lambda rng: BOLA(
        gamma_p=float(rng.uniform(1.0, 10.0)),
        buffer_target_fraction=float(rng.uniform(0.3, 1.0)),
    ),
    "robust_mpc": lambda rng: RobustMPC(
        QoEParameters(
            stall_penalty=float(rng.uniform(0.0, 20.0)),
            switch_penalty=float(rng.uniform(0.0, 4.0)),
        ),
        horizon=int(rng.integers(1, 4)),
        throughput_window=int(rng.integers(1, 7)),
    ),
}

_EXIT_FAMILIES = {
    "baseline": lambda rng: BaselineExitModel(
        base_hazard=float(rng.uniform(0.02, 0.1)),
        floor_hazard=float(rng.uniform(0.0, 0.02)),
        decay_time_s=float(rng.uniform(5.0, 60.0)),
    ),
    "qos_aware": lambda rng: QoSAwareExitModel(
        profile=StallSensitivityProfile(
            archetype=list(SensitivityArchetype)[int(rng.integers(3))],
            tolerance_s=float(rng.uniform(0.5, 8.0)),
            peak_exit_probability=float(rng.uniform(0.1, 1.0)),
        ),
        quality_offsets=tuple(rng.uniform(0.0, 0.01, int(rng.integers(2, 6)))),
    ),
    "rule_based": lambda rng: RuleBasedUser(
        stall_time_threshold_s=float(rng.uniform(1.0, 9.0)),
        stall_count_threshold=int(rng.integers(1, 6)),
    ),
}


def _shrinking_prefixes(n: int, rng: np.random.Generator) -> list[int]:
    """``STEPS`` prefix sizes from ``n`` down, never growing."""
    return [n] + sorted(rng.integers(1, n + 1, size=STEPS - 1).tolist(), reverse=True)


def _context(k: int, n: int, rng: np.random.Generator) -> VectorStepContext:
    window = rng.uniform(150.0, 9000.0, size=(n, min(k, WINDOW)))
    mean, std = window_stats(window)
    buffer = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 30.0, n))
    return VectorStepContext(
        k=k,
        buffer=buffer,
        buffer_cap=rng.uniform(10.0, 60.0, n),
        last_level=rng.integers(-1 if k == 0 else 0, BITRATES.size, n),
        segment_sizes=BITRATES * SEGMENT_DURATION * rng.uniform(0.6, 1.4, (n, 1)),
        throughput_window=window,
        bandwidth_mean=mean,
        bandwidth_std=std,
        bitrates=BITRATES,
        segment_duration=SEGMENT_DURATION,
    )


def _view(k: int, n: int, rng: np.random.Generator) -> ExitStepView:
    stall = np.where(rng.random(n) < 0.4, rng.uniform(0.0, 5.0, n), 0.0)
    return ExitStepView(
        k=k,
        level=rng.integers(0, BITRATES.size, n),
        previous_level=rng.integers(-1, BITRATES.size, n),
        stall_time=stall,
        cumulative_stall_time=stall + rng.uniform(0.0, 10.0, n),
        stall_count=rng.integers(0, 7, n),
        watch_time=(k + 1) * SEGMENT_DURATION,
        buffer=rng.uniform(0.0, 30.0, n),
        throughput=rng.uniform(150.0, 9000.0, n),
        active=rng.random(n) < 0.8,
        stalled=stall > 1e-12,
    )


def _prefix(arrays, m: int):
    """The same context or view over its first ``m`` rows (views, no copy)."""
    return dataclasses.replace(
        arrays,
        **{
            f.name: getattr(arrays, f.name)[:m]
            for f in dataclasses.fields(arrays)
            if isinstance(getattr(arrays, f.name), np.ndarray) and f.name != "bitrates"
        },
    )


@pytest.mark.parametrize("case", range(NUM_CASES))
@pytest.mark.parametrize("family", sorted(_ABR_FAMILIES))
def test_abr_kernel_on_a_prefix_equals_prefix_of_full_call(family, case):
    """Over ``STEPS`` steps with a shrinking ``m`` (RobustMPC carries its
    error history through them), the prefix kernel's levels equal the first
    ``m`` levels of a full-``n`` kernel fed the whole context."""
    rng = np.random.default_rng([case, sorted(_ABR_FAMILIES).index(family)])
    n = int(rng.integers(2, 24))
    policies = _share(_ABR_FAMILIES[family], n, rng)
    cls = type(policies[0])
    full, part = cls.vector_kernel(policies), cls.vector_kernel(policies)
    for k, m in enumerate(_shrinking_prefixes(n, rng)):
        context = _context(k, n, rng)
        expected = np.asarray(full(context))
        got = np.asarray(part(_prefix(context, m)))
        assert got.shape == (m,)
        np.testing.assert_array_equal(got, expected[:m])


@pytest.mark.parametrize("case", range(NUM_CASES))
@pytest.mark.parametrize("family", sorted(_EXIT_FAMILIES))
def test_exit_kernel_on_a_prefix_equals_prefix_of_full_call(family, case):
    rng = np.random.default_rng([case, 10 + sorted(_EXIT_FAMILIES).index(family)])
    n = int(rng.integers(2, 24))
    models = _share(_EXIT_FAMILIES[family], n, rng)
    cls = type(models[0])
    full, part = cls.vector_exit_kernel(models), cls.vector_exit_kernel(models)
    for k, m in enumerate(_shrinking_prefixes(n, rng)):
        view = _view(k, n, rng)
        expected = np.asarray(full(view))
        got = np.asarray(part(_prefix(view, m)))
        assert got.shape == (m,)
        np.testing.assert_array_equal(got, expected[:m])


def _scalar_levels(policies, context: VectorStepContext) -> list[int]:
    """Each row's ``select_level`` on the scalar context the row stands for."""
    levels = []
    for i, policy in enumerate(policies):
        last_level = int(context.last_level[i])
        levels.append(
            policy.select_level(
                ABRContext(
                    segment_index=context.k,
                    buffer=float(context.buffer[i]),
                    buffer_cap=float(context.buffer_cap[i]),
                    last_level=None if last_level < 0 else last_level,
                    throughput_history_kbps=tuple(context.throughput_window[i].tolist()),
                    next_segment_sizes_kbit=tuple(context.segment_sizes[i].tolist()),
                    ladder=LADDER,
                    segment_duration=context.segment_duration,
                    bandwidth_mean_kbps=float(context.bandwidth_mean[i]),
                    bandwidth_std_kbps=float(context.bandwidth_std[i]),
                )
            )
        )
    return levels


def test_hyb_kernel_sees_a_shared_policy_change_between_calls():
    """HYB reads ``beta`` once per distinct policy object, at every call: a
    kernel over ``[a, a, b]`` follows ``a``'s new parameters on both of
    ``a``'s rows, as the scalar rule does."""
    a = HYB(QoEParameters(beta=0.9))
    b = HYB(QoEParameters(beta=0.9))
    policies = [a, a, b]
    kernel = HYB.vector_kernel(policies)
    window = np.full((3, 5), 3000.0)
    mean, std = window_stats(window)
    context = VectorStepContext(
        k=5,
        buffer=np.full(3, 10.0),
        buffer_cap=np.full(3, 30.0),
        last_level=np.zeros(3, dtype=int),
        segment_sizes=np.tile(BITRATES * SEGMENT_DURATION, (3, 1)),
        throughput_window=window,
        bandwidth_mean=mean,
        bandwidth_std=std,
        bitrates=BITRATES,
        segment_duration=SEGMENT_DURATION,
    )
    before = kernel(context).tolist()
    assert before == _scalar_levels(policies, context) == [3, 3, 3]
    a.set_parameters(QoEParameters(beta=0.1))
    after = kernel(context).tolist()
    assert after == _scalar_levels(policies, context) == [1, 1, 3]


@pytest.mark.parametrize("networked", [False, True], ids=["independent", "fat_link"])
def test_rows_stepped_counts_each_session_up_to_its_video_end(networked):
    """Without an exit model every session plays its whole video, and the
    cohort steps exactly the rows whose video still has the segment: the
    counter sums the segment limits, not sessions x longest video."""
    lengths = [7, 3, 12, 1, 12, 5]
    trace = StationaryTraceGenerator(3000.0).generate(20, np.random.default_rng(0))
    specs = [
        SessionSpec(abr=HYB(), video=Video(num_segments=length, seed=i), trace=trace, seed=i)
        for i, length in enumerate(lengths)
    ]
    network = NetworkTopology(name="fat", links=(EdgeLink("fat", 1e9),)) if networked else None
    with obs.collect() as collector:
        traces = get_backend("vector").run_batch(specs, network=network)
    counters = collector.snapshot()["metrics"]["counters"]
    assert counters["vector.rows_stepped"] == sum(lengths)
    # traces come back in batch order although the cohort sorted its rows
    assert [len(trace_.segments) for trace_ in traces] == lengths
