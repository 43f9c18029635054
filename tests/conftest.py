"""Shared fixtures for the test suite.

Everything here is deliberately tiny: small videos, short traces, few users,
small networks — the goal is fast, deterministic tests that still exercise the
real code paths.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.contracts.tripwire import strict_mode_requested, strict_tripwire
from repro.experiments.common import SubstrateConfig, build_substrate
from repro.sim.bandwidth import BandwidthTrace, StationaryTraceGenerator
from repro.sim.video import BitrateLadder, Video, VideoLibrary
from repro.users.population import UserPopulation


def pytest_configure(config: pytest.Config) -> None:
    # pytest-cov registers this marker itself; without the plugin, the timing
    # gates in tests/test_perf_gates.py still carry it.
    config.addinivalue_line("markers", "no_cover: run this test without coverage")


def pytest_addoption(parser: pytest.Parser) -> None:
    """``--regen-golden``: rewrite the golden-trace corpus instead of failing.

    Intentional behaviour changes update the committed corpus with::

        PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen-golden

    then the diff of ``tests/data/golden/`` is reviewed like any other code.
    """
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="regenerate tests/data/golden/*.json from the current engines",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should rewrite the golden corpus."""
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture(scope="session", autouse=True)
def contracts_tripwire():
    """``REPRO_CONTRACTS=strict``: arm the runtime determinism tripwire.

    For the whole session, global-RNG and wall-clock entry points raise
    :class:`repro.contracts.tripwire.ContractViolation` when called from
    trace-affecting frames (``repro/sim``, ``repro/fleet``, …), so a
    dynamic path the AST linter cannot see fails loudly instead of
    silently drifting a golden trace.  CI runs the golden-trace and
    property-fuzz suites under this mode.  # contract: DET-RNG-001
    """
    if not strict_mode_requested():
        yield
        return
    with strict_tripwire():
        yield


def _log_digests(result) -> dict[str, str]:
    """sha256 pins of a :class:`~repro.datasets.GeneratedLogs`.

    ``segments`` hashes each session's identity and its segment columns in
    log order (column by column: the structured array's padding bytes carry
    no data), ``daily_parameters`` the sorted ``[user, day, beta]`` rows.
    """
    segments = hashlib.sha256()
    for log in result.logs:
        segments.update(
            json.dumps(
                [log.user_id, log.day, log.session_index, log.trace.exited_early]
            ).encode()
        )
        columns = log.trace.segments
        for name in columns.dtype.names:
            segments.update(np.ascontiguousarray(columns[name]).tobytes())
    rows = sorted([user, day, beta] for (user, day), beta in result.daily_parameters.items())
    return {
        "segments": segments.hexdigest(),
        "daily_parameters": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


@pytest.fixture(scope="session")
def log_digests():
    """The sha256 pin function for generated logs (see :func:`_log_digests`)."""
    return _log_digests


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for a single test."""
    return np.random.default_rng(1234)


@pytest.fixture
def ladder() -> BitrateLadder:
    """Default 4-level production-style ladder."""
    return BitrateLadder()


@pytest.fixture
def video(ladder: BitrateLadder) -> Video:
    """A short 20-segment video."""
    return Video(ladder=ladder, num_segments=20, segment_duration=2.0, seed=7)


@pytest.fixture
def library(ladder: BitrateLadder) -> VideoLibrary:
    """A tiny 4-video library."""
    return VideoLibrary(ladder=ladder, num_videos=4, mean_duration=40.0, seed=3)


@pytest.fixture
def low_bandwidth_trace(rng: np.random.Generator) -> BandwidthTrace:
    """A 1.2 Mbps trace that forces stalls at high bitrates."""
    return StationaryTraceGenerator(1200.0, 300.0).generate(120, rng, name="low")


@pytest.fixture
def high_bandwidth_trace(rng: np.random.Generator) -> BandwidthTrace:
    """A 20 Mbps trace where stalls are impossible."""
    return StationaryTraceGenerator(20000.0, 2000.0).generate(120, rng, name="high")


@pytest.fixture
def population() -> UserPopulation:
    """A small heterogeneous user population."""
    return UserPopulation.generate(30, seed=5, bandwidth_median_kbps=4000.0)


@pytest.fixture(scope="session")
def tiny_substrate():
    """A session-scoped, deliberately small experiment substrate."""
    return build_substrate(
        SubstrateConfig(
            num_users=40,
            days=1,
            sessions_per_user_per_day=3,
            num_videos=4,
            bandwidth_median_kbps=5000.0,
            training_oversample_days=3,
            training_oversample_threshold_kbps=4000.0,
            seed=42,
        ),
        train_epochs=4,
    )
