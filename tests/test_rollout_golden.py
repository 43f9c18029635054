"""Golden pins on Algorithm 2: exact ``evaluate_requests`` outputs.

``BatchedMonteCarloEvaluator.evaluate_requests`` decides every LingXi
activation, and its results feed the online optimiser directly, so a
single-ulp drift anywhere in a rollout can move a deployed parameter.  This
suite pins, for every ABR family, the exact exit-rate estimates of fixed
multi-request calls together with the shape of the batched predictor
traffic they generate (one ``predict_many`` call per virtual step, its row
count and its stalled-row count).

The requests cover the rollout's edge cases: user-state histories and
snapshot bandwidth windows both shorter than and at the 8-sample window,
an empty ``UserState`` with ``last_level=None`` and an empty buffer
(startup), a pruning abort, a fixed-mode candidate grid, a second ladder
and segment duration in the same call, and per-request Monte-Carlo
configurations.

Intentional changes regenerate the file::

    PYTHONPATH=src python -m pytest tests/test_rollout_golden.py --regen-golden

and the diff of ``tests/data/golden_rollouts.json`` is reviewed like code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.abr.base import QoEParameters
from repro.abr.bba import BBA
from repro.abr.bola import BOLA
from repro.abr.hyb import HYB
from repro.abr.pensieve import Pensieve
from repro.abr.robust_mpc import RobustMPC
from repro.abr.throughput import ThroughputRule
from repro.core.exit_predictor import BatchedExitPredictor, ExitRatePredictor
from repro.core.monte_carlo import (
    BatchedMonteCarloEvaluator,
    MonteCarloConfig,
    RolloutRequest,
)
from repro.core.parameter_space import ParameterSpace
from repro.core.state import PlayerSnapshot, UserState
from repro.core.triggers import PruningPolicy
from repro.sim.bandwidth import BandwidthModel
from repro.sim.video import BitrateLadder

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rollouts.json"

_WIDE_LADDER = BitrateLadder((300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0))


class _CountingPredictor(BatchedExitPredictor):
    """Records the row and stalled-row count of every ``predict_many`` call."""

    def __init__(self, predictor: ExitRatePredictor) -> None:
        super().__init__(predictor)
        self.calls: list[list[int]] = []

    def predict_many(self, feature_matrices, levels, switch_magnitudes, stalled):
        self.calls.append([int(np.size(levels)), int(np.count_nonzero(stalled))])
        return super().predict_many(
            feature_matrices, levels, switch_magnitudes, stalled
        )


def _state(segments: int, throughput: float = 900.0) -> UserState:
    state = UserState()
    for k in range(segments):
        state.observe_segment(
            bitrate_kbps=750.0 if k % 3 else 1200.0,
            throughput_kbps=throughput * (1.0 + 0.15 * (k % 4)),
            stall_time=0.6 if k % 3 == 0 else 0.0,
            segment_duration=2.0,
        )
    return state


def _snapshot(
    samples: int,
    buffer: float,
    last_level: int | None,
    *,
    ladder: BitrateLadder | None = None,
    segment_duration: float = 2.0,
    mean: float = 900.0,
) -> PlayerSnapshot:
    bandwidth = BandwidthModel(window=8)
    for k in range(samples):
        bandwidth.update(mean * (1.0 + 0.45 * ((k % 3) - 1)))
    return PlayerSnapshot(
        ladder=ladder or BitrateLadder(),
        segment_duration=segment_duration,
        buffer=buffer,
        last_level=last_level,
        bandwidth_model=bandwidth,
    )


def _rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(seed) for _ in range(count)]


def _mixed_requests(abr) -> list[RolloutRequest]:
    """One call mixing every rollout edge case."""
    pair = [QoEParameters(stall_penalty=3.0, beta=0.6), QoEParameters(beta=1.1)]
    return [
        # short histories: 3 user-state segments, 2 window samples
        RolloutRequest(
            pair, abr, _snapshot(2, 4.0, 1, mean=600.0), _state(3, 600.0), _rngs(5, 2)
        ),
        # full histories (12 segments, 8 samples); pruned against 0.02
        RolloutRequest(
            [QoEParameters(stall_penalty=9.0, beta=0.95)],
            abr,
            _snapshot(8, 6.0, 3, mean=650.0),
            _state(12, throughput=650.0),
            _rngs(6, 1),
            best_exit_rate=0.02,
        ),
        # empty user state, empty window, startup from an empty buffer
        RolloutRequest(
            [QoEParameters(beta=0.8)],
            abr,
            _snapshot(0, 0.0, None),
            UserState(),
            _rngs(7, 1),
        ),
        # history present but no previous level
        RolloutRequest(
            [QoEParameters(switch_penalty=2.5, beta=0.7)],
            abr,
            _snapshot(5, 3.0, None, mean=1000.0),
            _state(4, throughput=1000.0),
            _rngs(8, 1),
        ),
        # another ladder, segment duration and Monte-Carlo budget
        RolloutRequest(
            pair,
            abr,
            _snapshot(
                5, 8.0, 4, ladder=_WIDE_LADDER, segment_duration=4.0, mean=1300.0
            ),
            _state(7, throughput=1300.0),
            _rngs(9, 2),
            config=MonteCarloConfig(num_samples=2, max_sample_duration_s=40.0, seed=4),
            pruning=PruningPolicy(min_virtual_segments=4),
        ),
    ]


def _grid_requests(abr, space: ParameterSpace) -> list[RolloutRequest]:
    """A fixed-mode (``L(F)``) activation: the whole grid in one request."""
    grid = space.candidate_grid(3)
    return [
        RolloutRequest(
            grid,
            abr,
            _snapshot(8, 4.0, 2, mean=800.0),
            _state(9, 800.0),
            _rngs(11, len(grid)),
        )
    ]


_ABRS = {
    "hyb": HYB,
    "bba": BBA,
    "bola": BOLA,
    "robust_mpc": RobustMPC,
    "throughput": ThroughputRule,
    "pensieve": lambda: Pensieve(num_levels=4, hidden=16, seed=0),
}

CASES = [f"{name}_mixed" for name in _ABRS] + ["hyb_grid", "robust_mpc_grid"]


def _run_case(case: str) -> dict:
    predictor = _CountingPredictor(ExitRatePredictor(channels=8, hidden=16, seed=0))
    evaluator = BatchedMonteCarloEvaluator(
        predictor,
        config=MonteCarloConfig(num_samples=4, max_sample_duration_s=60.0, seed=2),
    )
    name, kind = case.rsplit("_", 1)
    abr = _ABRS[name]()
    live = abr.parameters
    if kind == "mixed":
        requests = _mixed_requests(abr)
    else:
        space = (
            ParameterSpace.for_hyb() if name == "hyb" else ParameterSpace.for_qoe_lin()
        )
        requests = _grid_requests(abr, space)
    results = evaluator.evaluate_requests(requests)
    assert abr.parameters == live, "evaluation leaked candidate parameters"
    return {"results": results, "predict_many": predictor.calls}


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("case", CASES)
def test_rollouts_match_golden(case, regen_golden):
    document = _run_case(case)
    if regen_golden:
        golden = _load()
        golden[case] = document
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    golden = _load()
    assert case in golden, "missing golden case; run with --regen-golden"
    assert document["results"] == golden[case]["results"], (
        f"rollout case {case!r} drifted; if the change is intentional, rerun "
        "with --regen-golden and review the diff"
    )
    assert document["predict_many"] == golden[case]["predict_many"]


def test_golden_file_is_complete():
    assert set(_load()) == set(CASES)


@pytest.mark.parametrize("case", ["hyb_mixed", "pensieve_mixed", "robust_mpc_grid"])
def test_rollout_counters_match_golden_call_pattern(case):
    """One ``mc.virtual_steps`` per ``predict_many`` call, and
    ``mc.rollout_rows`` the rows those calls scored."""
    calls = _load()[case]["predict_many"]
    with obs.collect() as collector:
        _run_case(case)
    counters = collector.snapshot()["metrics"]["counters"]
    assert counters["mc.virtual_steps"] == len(calls)
    assert counters["mc.rollout_rows"] == sum(rows for rows, _stalled in calls)
