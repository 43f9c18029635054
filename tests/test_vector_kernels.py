"""Vector kernels under the row-set rule of the lockstep cohort.

The vector engine steps, at every slot, exactly the rows of a cohort that
play: started, before their video's end and alive.  Every kernel built over
``n`` rows is then called on that ascending row set (``rows`` of the context
or view), or on its first ``m`` rows when ``rows`` is ``None`` (Monte-Carlo
rollouts).  The rule every kernel keeps: it reads and updates only the rows
the call covers, so the call on a row set, or on the first ``m`` rows, equals
the full-``n`` call at those rows.  Each case below draws seeded random
policies and contexts, runs a full-``n`` kernel and a row-set (or prefix)
kernel side by side over several steps with a shrinking set, and compares
them; a failing case replays from its seed.

A networked cohort also holds rows that started at different slots, so the
rows of one context sit at their own segment indices ``k`` (negative for a
row that has not started).  The staggered cases below check that a kernel
answers each row of such a context what the row gets in a cohort of its
own, and that the networked engine builds one cohort per kernel key and
still matches the scalar reference engine.
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
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.vector_host import VectorControllerHost
from repro.net import EdgeLink, NetworkTopology
from repro.sim import SessionSpec, get_backend
from repro.sim.bandwidth import StationaryTraceGenerator
from repro.sim.session import ABRContext
from repro.sim.vector import (
    ExitStepView,
    VectorBackend,
    VectorStepContext,
    window_stats,
    window_stats_by_count,
)
from repro.sim.video import BitrateLadder, Video
from repro.users.engagement import BaselineExitModel, QoSAwareExitModel, RuleBasedUser
from repro.users.perception import SensitivityArchetype, StallSensitivityProfile
from repro.users.population import UserPopulation

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
        k=np.full(n, k),
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
        k=np.full(n, k),
        level=rng.integers(0, BITRATES.size, n),
        previous_level=rng.integers(-1, BITRATES.size, n),
        stall_time=stall,
        cumulative_stall_time=stall + rng.uniform(0.0, 10.0, n),
        stall_count=rng.integers(0, 7, n),
        watch_time=np.full(n, (k + 1) * SEGMENT_DURATION),
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


def _shrinking_row_sets(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``STEPS`` ascending row sets, each a subset of the one before, none a
    prefix: row 0 is in none of them and row ``n - 1`` in all."""
    keep = rng.random(n) < 0.7
    keep[0], keep[-1] = False, True
    sets = []
    for _ in range(STEPS):
        sets.append(np.flatnonzero(keep))
        keep &= rng.random(n) < 0.8
        keep[-1] = True
    return sets


def _at(arrays, rows: np.ndarray):
    """The same context or view gathered at ``rows``, and naming them."""
    return dataclasses.replace(
        arrays,
        rows=rows,
        **{
            f.name: getattr(arrays, f.name)[rows]
            for f in dataclasses.fields(arrays)
            if isinstance(getattr(arrays, f.name), np.ndarray) and f.name != "bitrates"
        },
    )


@pytest.mark.parametrize("case", range(NUM_CASES))
@pytest.mark.parametrize("family", sorted(_ABR_FAMILIES))
def test_abr_kernel_on_a_row_set_equals_full_call_at_those_rows(family, case):
    """Over ``STEPS`` steps with a shrinking row set that is not a prefix
    (RobustMPC carries its error history through them), the row-set
    kernel's levels equal a full-``n`` kernel's at those rows."""
    rng = np.random.default_rng([case, 50 + sorted(_ABR_FAMILIES).index(family)])
    n = int(rng.integers(3, 24))
    policies = _share(_ABR_FAMILIES[family], n, rng)
    cls = type(policies[0])
    full, part = cls.vector_kernel(policies), cls.vector_kernel(policies)
    for k, rows in enumerate(_shrinking_row_sets(n, rng)):
        context = _context(k, n, rng)
        expected = np.asarray(full(context))
        got = np.asarray(part(_at(context, rows)))
        assert got.shape == rows.shape
        np.testing.assert_array_equal(got, expected[rows])


@pytest.mark.parametrize("case", range(NUM_CASES))
@pytest.mark.parametrize("family", sorted(_EXIT_FAMILIES))
def test_exit_kernel_on_a_row_set_equals_full_call_at_those_rows(family, case):
    rng = np.random.default_rng([case, 60 + sorted(_EXIT_FAMILIES).index(family)])
    n = int(rng.integers(3, 24))
    models = _share(_EXIT_FAMILIES[family], n, rng)
    cls = type(models[0])
    full, part = cls.vector_exit_kernel(models), cls.vector_exit_kernel(models)
    for k, rows in enumerate(_shrinking_row_sets(n, rng)):
        view = _view(k, n, rng)
        expected = np.asarray(full(view))
        got = np.asarray(part(_at(view, rows)))
        assert got.shape == rows.shape
        np.testing.assert_array_equal(got, expected[rows])


_HOST_STATE = (
    "session_stall_count",
    "session_stall_time",
    "since_stall",
    "session_watch_time",
    "lifetime_segments",
    "lifetime_stall_events",
    "since_stall_exit",
    "lifetime_stall_exits",
    "stall_exit_time_sum",
    "max_survived_stall_time",
    "stalls_since",
    "count",
    "history",
)


@pytest.mark.parametrize("case", range(3))
def test_controller_host_on_a_row_set_equals_full_step_at_those_rows(case):
    """Two hosts over identical LingXi controllers, one fed every row at
    every step and one fed a shrinking row set that is not a prefix: the
    row-set host's state, and after ``finalize`` its controllers (user
    state, bandwidth window, activation history, deployed parameters),
    equal the full host's at those rows.  Each step is followed by one
    ``advance``, which deploys the fixed sweeps it launched."""
    from test_vector_backend import make_lingxi_abr

    predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
    rng = np.random.default_rng([case, 70])
    n = int(rng.integers(3, 10))

    def host() -> VectorControllerHost:
        abrs = [make_lingxi_abr(predictor, 100 + i, "fixed") for i in range(n)]
        return VectorControllerHost(
            abrs, ladder=LADDER, segment_duration=SEGMENT_DURATION, max_steps=STEPS
        )

    full, part = host(), host()
    everyone = np.arange(n)
    for rows in _shrinking_row_sets(n, rng):
        step = dict(
            levels=rng.integers(0, BITRATES.size, n),
            stall=np.where(rng.random(n) < 0.5, rng.uniform(0.0, 3.0, n), 0.0),
            throughput=rng.uniform(150.0, 9000.0, n),
            buffer_after=rng.uniform(0.0, 30.0, n),
            exits=rng.random(n) < 0.1,
        )
        full.observe_step(rows=everyone, bitrates=BITRATES, **step)
        part.observe_step(
            rows=rows, bitrates=BITRATES, **{name: v[rows] for name, v in step.items()}
        )
        full.advance()
        part.advance()
        for name in _HOST_STATE:
            np.testing.assert_array_equal(
                getattr(part, name)[rows], getattr(full, name)[rows], err_msg=name
            )
    assert full.activations > 0
    full.finalize()
    part.finalize()
    for i in rows.tolist():
        mine, theirs = part.abrs[i], full.abrs[i]
        assert mine.controller.user_state == theirs.controller.user_state
        assert mine.bandwidth_model._samples == theirs.bandwidth_model._samples
        assert mine.controller.history == theirs.controller.history
        assert mine.controller.best_parameters == theirs.controller.best_parameters


def _scalar_levels(policies, context: VectorStepContext) -> list[int]:
    """Each row's ``select_level`` on the scalar context the row stands for."""
    levels = []
    for i, policy in enumerate(policies):
        last_level = int(context.last_level[i])
        levels.append(
            policy.select_level(
                ABRContext(
                    segment_index=int(context.k[i]),
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
        k=np.full(3, 5),
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


def _staggered_tight_specs() -> list[SessionSpec]:
    """Sessions starting at slots 0 to 7 on one tight link, half of them on
    LingXi (one controller-host cohort), with an exit rule that stalls end
    early."""
    from test_vector_backend import make_lingxi_abr

    predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
    rng = np.random.default_rng(2)
    generator = StationaryTraceGenerator(1500.0, 500.0)
    return [
        SessionSpec(
            abr=make_lingxi_abr(predictor, 200 + i, "fixed") if i % 2 else HYB(),
            video=Video(num_segments=int(rng.integers(6, 16)), seed=i),
            trace=generator.generate(40, rng),
            exit_model=RuleBasedUser(stall_time_threshold_s=2.0, stall_count_threshold=2),
            seed=i,
            user_id=f"user-{i}",
            start_step=int(rng.integers(0, 8)),
        )
        for i in range(10)
    ]


def _shared_table_specs(staggered: bool) -> list[SessionSpec]:
    """One HYB cohort whose twelve rows share two video objects and three
    trace objects of distinct lengths, every trace shorter than both videos,
    so each row's trace reads wrap; users repeat, so rows share miss masks."""
    rng = np.random.default_rng(4)
    generator = StationaryTraceGenerator(2500.0, 600.0)
    videos = [Video(num_segments=14, seed=1), Video(num_segments=9, seed=2)]
    traces = [generator.generate(length, rng) for length in (3, 5, 8)]
    return [
        SessionSpec(
            abr=HYB(),
            video=videos[i % 2],
            trace=traces[i % 3],
            seed=i,
            user_id=f"user-{i % 4}",
            start_step=i % 3 if staggered else 0,
        )
        for i in range(12)
    ]


def _rows_stepped_case(case: str):
    """``(specs, network, lengths)`` of one case below; ``lengths`` is every
    session's segment count when no session exits early, else ``None``."""
    from test_network import _tiered_topology

    if case == "staggered_tight":
        network = NetworkTopology(name="tight", links=(EdgeLink("tight", 3000.0),))
        return _staggered_tight_specs(), network, None
    if case.startswith("shared_tables"):
        tiered = case == "shared_tables_tiered"
        network = _tiered_topology(hit_ratio=0.5) if tiered else None
        return _shared_table_specs(staggered=tiered), network, [14, 9] * 6
    lengths = [7, 3, 12, 1, 12, 5]
    trace = StationaryTraceGenerator(3000.0).generate(20, np.random.default_rng(0))
    specs = [
        SessionSpec(abr=HYB(), video=Video(num_segments=length, seed=i), trace=trace, seed=i)
        for i, length in enumerate(lengths)
    ]
    network = (
        NetworkTopology(name="fat", links=(EdgeLink("fat", 1e9),))
        if case == "fat_link"
        else None
    )
    return specs, network, lengths


@pytest.mark.parametrize(
    "case",
    ["independent", "fat_link", "staggered_tight", "shared_tables", "shared_tables_tiered"],
)
def test_rows_stepped_counts_each_session_up_to_its_video_end(case):
    """A cohort steps exactly the rows that play at each slot, so the counter
    sums the trace lengths: not sessions x longest video, and no row that
    has not started or has exited.  Without an exit model every session
    plays its whole video; the staggered case on a tight link holds rows
    that start late and rows that exit early.  The shared-tables cases read
    every row's trace samples, segment sizes and (on a tiered topology with
    a cache) miss flags from tables its rows share.  Every case matches the
    scalar reference engine, link-usage sample for sample."""
    from test_network import assert_traces_equal

    specs, network, lengths = _rows_stepped_case(case)
    backend = VectorBackend()
    scalar_usage, vector_usage = [], []
    with obs.collect() as collector:
        traces = backend.run_batch(specs, network=network, link_usage=vector_usage)
    counters = collector.snapshot()["metrics"]["counters"]
    assert backend.last_fallback_sessions == 0
    assert counters["vector.rows_stepped"] == sum(len(t.segments) for t in traces)
    reference = get_backend("scalar").run_batch(
        _rows_stepped_case(case)[0], network=network, link_usage=scalar_usage
    )
    assert_traces_equal(reference, traces)
    assert scalar_usage == vector_usage
    if lengths is None:
        assert any(t.exited_early for t in traces)
        assert not all(t.exited_early for t in traces)
    else:
        # traces come back in batch order although the cohort sorted its rows
        assert [len(trace_.segments) for trace_ in traces] == lengths
    if case == "shared_tables_tiered":
        # cache misses reached the upper tiers
        assert {sample.tier for sample in vector_usage} == {"edge", "peering", "origin"}


# --------------------------------------------------------------------------- #
# Staggered rows: each row at its own segment index
# --------------------------------------------------------------------------- #
STAGGERED_STEPS = 12
MAX_OFFSET = 5


class _Staggered:
    """Rows that start ``offset`` slots apart (0 to ``MAX_OFFSET``), each with
    its own throughput series, buffers and sizes; at slot ``t`` row ``i``
    sits at segment index ``t - offset[i]``."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self.rng = rng
        self.offset = rng.integers(0, MAX_OFFSET + 1, n)
        self.series = rng.uniform(150.0, 9000.0, (n, STAGGERED_STEPS))

    def rows(self, t: int) -> dict:
        """Per-row draws of slot ``t``, shared by the mixed and the one-row
        contexts."""
        n, rng = self.n, self.rng
        k = t - self.offset
        return dict(
            k=k,
            buffer=np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 30.0, n)),
            buffer_cap=rng.uniform(10.0, 60.0, n),
            last_level=np.where(k > 0, rng.integers(0, BITRATES.size, n), -1),
            segment_sizes=BITRATES * SEGMENT_DURATION * rng.uniform(0.6, 1.4, (n, 1)),
        )

    def samples(self, i: int, k: int) -> np.ndarray:
        """Row ``i``'s throughput window at segment ``k``, oldest first."""
        return self.series[i, max(0, k - WINDOW) : max(k, 0)]

    def mixed_context(self, draws: dict) -> VectorStepContext:
        """One context over every row: valid samples right-aligned in a
        ``WINDOW``-wide array whose other entries are noise."""
        k = draws["k"]
        window = self.rng.uniform(1.0, 5.0, (self.n, WINDOW))
        for i in range(self.n):
            samples = self.samples(i, int(k[i]))
            window[i, WINDOW - samples.size :] = samples
        history = np.clip(k, 0, WINDOW)
        mean, std = window_stats_by_count(window, history)
        return VectorStepContext(
            throughput_window=window,
            bandwidth_mean=mean,
            bandwidth_std=std,
            bitrates=BITRATES,
            segment_duration=SEGMENT_DURATION,
            history=history,
            **draws,
        )

    def own_context(self, draws: dict, i: int) -> VectorStepContext:
        """Row ``i`` alone, as a cohort of its own sees it."""
        window = self.samples(i, int(draws["k"][i]))[None, :]
        mean, std = window_stats(window)
        return VectorStepContext(
            throughput_window=window,
            bandwidth_mean=mean,
            bandwidth_std=std,
            bitrates=BITRATES,
            segment_duration=SEGMENT_DURATION,
            **{name: value[i : i + 1] for name, value in draws.items()},
        )


@pytest.mark.parametrize("case", range(NUM_CASES // 2))
@pytest.mark.parametrize("family", sorted(_ABR_FAMILIES))
def test_abr_kernel_at_mixed_segment_indices_equals_one_row_cohorts(family, case):
    """Rows at their own segment indices (some at 0, some not started) get,
    row for row, the level a one-row kernel gives them when it is called
    only from the row's first segment on; RobustMPC carries its error
    history through all ``STAGGERED_STEPS`` slots."""
    rng = np.random.default_rng([case, 20 + sorted(_ABR_FAMILIES).index(family)])
    n = int(rng.integers(4, 16))
    policies = _share(_ABR_FAMILIES[family], n, rng)
    cls = type(policies[0])
    mixed = cls.vector_kernel(policies)
    own = [cls.vector_kernel([policy]) for policy in policies]
    rows = _Staggered(n, rng)
    for t in range(STAGGERED_STEPS):
        draws = rows.rows(t)
        got = np.asarray(mixed(rows.mixed_context(draws)))
        assert got.shape == (n,)
        for i in np.flatnonzero(draws["k"] >= 0).tolist():
            expected = int(np.asarray(own[i](rows.own_context(draws, i)))[0])
            assert got[i] == expected, (t, i, int(draws["k"][i]))


@pytest.mark.parametrize("case", range(NUM_CASES // 2))
@pytest.mark.parametrize("family", sorted(_EXIT_FAMILIES))
def test_exit_kernel_at_mixed_segment_indices_equals_one_row_cohorts(family, case):
    """Each row's probability depends on its own segment index and watch
    time only, so a view over rows at mixed indices equals the one-row
    views."""
    rng = np.random.default_rng([case, 30 + sorted(_EXIT_FAMILIES).index(family)])
    n = int(rng.integers(4, 16))
    models = _share(_EXIT_FAMILIES[family], n, rng)
    cls = type(models[0])
    mixed = cls.vector_exit_kernel(models)
    offset = rng.integers(0, MAX_OFFSET + 1, n)
    for t in range(STAGGERED_STEPS):
        view = _view(0, n, rng)
        view.k = t - offset
        view.watch_time = (view.k + 1) * SEGMENT_DURATION
        view.active = view.active & (view.k >= 0)
        got = np.asarray(mixed(view))
        for i in range(n):
            one = cls.vector_exit_kernel([models[i]])
            alone = dataclasses.replace(
                view,
                **{
                    f.name: getattr(view, f.name)[i : i + 1]
                    for f in dataclasses.fields(view)
                    if getattr(view, f.name) is not None
                },
            )
            np.testing.assert_array_equal(got[i : i + 1], one(alone))


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_robust_mpc_staggered_rows_follow_their_own_scalar_instances(case):
    """Rows whose starts differ by 0 to 5 slots, through 12 steps: each
    started row's level equals its own scalar RobustMPC's ``select_level``
    on its own history, so no row's error history moves before it starts."""
    rng = np.random.default_rng([case, 40])
    n = int(rng.integers(4, 16))
    policies = [_ABR_FAMILIES["robust_mpc"](rng) for _ in range(n)]
    scalar = [
        RobustMPC(
            QoEParameters(
                stall_penalty=p.parameters.stall_penalty,
                switch_penalty=p.parameters.switch_penalty,
            ),
            horizon=p.horizon,
            throughput_window=p.throughput_window,
        )
        for p in policies
    ]
    kernel = RobustMPC.vector_kernel(policies)
    rows = _Staggered(n, rng)
    assert STAGGERED_STEPS == 12 and rows.offset.max() <= 5
    for t in range(STAGGERED_STEPS):
        draws = rows.rows(t)
        context = rows.mixed_context(draws)
        got = np.asarray(kernel(context))
        for i in np.flatnonzero(draws["k"] >= 0).tolist():
            expected = _scalar_levels([scalar[i]], rows.own_context(draws, i))[0]
            assert got[i] == expected, (t, i, int(draws["k"][i]))


def test_staggered_networked_batch_is_one_cohort_per_kernel_and_matches_reference():
    """Every ABR kernel on one tight link, sessions starting at slots 0 to
    30, one session that starts after every other has ended and one that
    starts at the last slot another still plays: the vector engine builds
    one cohort per kernel key and matches the scalar reference engine trace
    for trace, link-usage sample for sample."""
    from test_network import assert_traces_equal

    rng = np.random.default_rng(5)
    population = UserPopulation.generate(32, seed=3, bandwidth_median_kbps=2500.0)
    profiles = list(population)
    generator = StationaryTraceGenerator(2200.0, 700.0)
    families = sorted(_ABR_FAMILIES)

    def spec(i: int, family: str, length: int, start: int) -> SessionSpec:
        return SessionSpec(
            abr=_ABR_FAMILIES[family](rng),
            video=Video(num_segments=length, seed=i),
            trace=generator.generate(40, rng),
            exit_model=profiles[i].exit_model(),
            seed=1000 + i,
            user_id=profiles[i].user_id,
            start_step=start,
        )

    starts = [0, 30] + rng.integers(0, 31, 28).tolist()
    specs = [
        spec(i, families[i % len(families)], int(rng.integers(4, 14)), start)
        for i, start in enumerate(starts)
    ]
    last_slot = max(s.start_step + s.video.num_segments for s in specs) - 1
    specs.append(spec(30, "bola", 5, last_slot))  # at the last slot
    specs.append(spec(31, "hyb", 6, last_slot + 7))  # after every other ended
    topology = NetworkTopology(name="tight", links=(EdgeLink("tight", 9000.0),))

    scalar_usage, vector_usage = [], []
    reference = get_backend("scalar").run_batch(
        specs, network=topology, link_usage=scalar_usage
    )
    backend = VectorBackend()
    with obs.collect() as collector:
        traces = backend.run_batch(specs, network=topology, link_usage=vector_usage)
    assert backend.last_fallback_sessions == 0
    assert collector.snapshot()["metrics"]["counters"]["vector.cohorts"] == len(families)
    assert_traces_equal(reference, traces)
    assert scalar_usage == vector_usage
    # the link was congested: some session got less than its own demand
    assert any(
        record.bandwidth_kbps < spec.trace.bandwidth_at(record.segment_index)
        for spec, trace in zip(specs, traces)
        for record in trace.records
    )
