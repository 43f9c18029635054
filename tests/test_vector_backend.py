"""Scalar-vs-vector backend equivalence gate plus backend-seam unit tests.

The core guarantee under test: for identical :class:`SessionSpec` batches,
``backend="vector"`` reproduces ``backend="scalar"`` traces **segment for
segment** — exact :class:`SegmentRecord` equality, not approximate agreement —
across ABR algorithms, seeds, trace shapes, exit-model families and
heterogeneous batches, and the equality survives a telemetry write→replay
round trip of the resulting log collections.
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
from repro.analytics.logs import LogCollection, SessionLog
from repro.core import vector_host
from repro.core.controller import (
    ActivationDriver,
    ControllerConfig,
    LingXiABR,
    LingXiController,
    run_activations,
)
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import (
    MonteCarloConfig,
    MonteCarloEvaluator,
    RolloutRequest,
    virtual_video,
)
from repro.core.parameter_space import ParameterSpace
from repro.core.persistence import controller_state_payload
from repro.core.state import PlayerSnapshot, UserState
from repro.core.triggers import TriggerPolicy
from repro.fleet import (
    BatchedMonteCarloEvaluator,
    FleetConfig,
    FleetOrchestrator,
    LingXiFleetFactory,
)
from repro.fleet.telemetry import TelemetryWriter, session_event
from repro.net import EdgeLink, NetworkTopology
from repro.obs.telemetry_reader import replay_log_collection
from repro.sim import (
    ScalarBackend,
    SessionSpec,
    VectorBackend,
    available_backends,
    get_backend,
    session_rng,
    spawn_session_seeds,
)
from repro.sim.bandwidth import (
    BandwidthModel,
    LowBandwidthTraceGenerator,
    MarkovTraceGenerator,
    StationaryTraceGenerator,
)
from repro.sim.player import dynamic_buffer_cap
from repro.sim.session import SessionConfig
from repro.sim.video import BitrateLadder, Video, VideoLibrary
from repro.users.engagement import BaselineExitModel, RuleBasedUser
from repro.users.population import UserPopulation

STALL_BINS = [0.0, 1.0, 2.0, 4.0, 8.0]


def _fat_link() -> NetworkTopology:
    """One edge link far wider than any batch's demand (networked, uncongested)."""
    return NetworkTopology(name="fat", links=(EdgeLink("fat", 1e9),))

_TRACE_GENERATORS = {
    "stationary": StationaryTraceGenerator(1800.0, 500.0),
    "markov": MarkovTraceGenerator(),
    "low_bandwidth": LowBandwidthTraceGenerator(),
}

_ABR_FACTORIES = {
    "throughput": ThroughputRule,
    "hyb": HYB,
    "bba": BBA,
    "bola": BOLA,
    "robust_mpc": RobustMPC,
}


def _spec_batch(abr_name: str, trace_family: str, seed: int, num_sessions: int = 12):
    """A heterogeneous batch: per-user exit models, videos and substreams."""
    rng = np.random.default_rng(seed)
    population = UserPopulation.generate(
        num_sessions, seed=seed + 1, bandwidth_median_kbps=2500.0
    )
    library = VideoLibrary(num_videos=4, mean_duration=36.0, std_duration=12.0, seed=2)
    generator = _TRACE_GENERATORS[trace_family]
    seeds = spawn_session_seeds(seed, num_sessions)
    abr = _ABR_FACTORIES[abr_name]()
    return [
        SessionSpec(
            abr=abr,
            video=library[i],
            trace=generator.generate(70, rng),
            exit_model=profile.exit_model(),
            seed=seeds[i],
            user_id=profile.user_id,
        )
        for i, profile in enumerate(population)
    ]


def assert_traces_equal(scalar_traces, vector_traces):
    """Exact, field-for-field equality of two trace lists."""
    assert len(scalar_traces) == len(vector_traces)
    for scalar_trace, vector_trace in zip(scalar_traces, vector_traces):
        assert scalar_trace.user_id == vector_trace.user_id
        assert scalar_trace.trace_name == vector_trace.trace_name
        assert scalar_trace.video_duration == vector_trace.video_duration
        assert scalar_trace.segment_duration == vector_trace.segment_duration
        assert scalar_trace.exited_early == vector_trace.exited_early
        assert len(scalar_trace) == len(vector_trace)
        assert scalar_trace.segments.dtype == vector_trace.segments.dtype
        np.testing.assert_array_equal(scalar_trace.segments, vector_trace.segments)
        for scalar_record, vector_record in zip(
            scalar_trace.records, vector_trace.records
        ):
            assert scalar_record == vector_record


class TestEquivalenceGate:
    @pytest.mark.parametrize("abr_name", sorted(_ABR_FACTORIES))
    @pytest.mark.parametrize("trace_family", sorted(_TRACE_GENERATORS))
    @pytest.mark.parametrize("seed", [0, 13])
    def test_vector_reproduces_scalar_exactly(self, abr_name, trace_family, seed):
        specs = _spec_batch(abr_name, trace_family, seed)
        scalar_traces = get_backend("scalar").run_batch(specs, SessionConfig())
        backend = VectorBackend()
        vector_traces = backend.run_batch(specs, SessionConfig())
        assert_traces_equal(scalar_traces, vector_traces)
        # every kernel-equipped ABR family stays on the fast path end to end
        assert backend.last_fallback_sessions == 0
        assert backend.total_fallback_sessions == 0
        assert backend.last_batch_sessions == len(specs)

    @pytest.mark.parametrize("abr_name", sorted(_ABR_FACTORIES))
    def test_aggregates_identical_after_telemetry_replay(self, abr_name, tmp_path):
        specs = _spec_batch(abr_name, "low_bandwidth", 5)
        scalar_logs = LogCollection(
            [
                SessionLog(
                    user_id=spec.user_id,
                    day=0,
                    session_index=i,
                    trace=trace,
                    mean_bandwidth_kbps=1500.0,
                )
                for i, (spec, trace) in enumerate(
                    zip(specs, get_backend("scalar").run_batch(specs))
                )
            ]
        )
        path = tmp_path / f"{abr_name}.jsonl"
        with TelemetryWriter(path) as writer:
            for i, trace in enumerate(get_backend("vector").run_batch(specs)):
                log = SessionLog(
                    user_id=specs[i].user_id,
                    day=0,
                    session_index=i,
                    trace=trace,
                    mean_bandwidth_kbps=1500.0,
                )
                writer.emit(session_event("equivalence", 0, log))
        replayed = replay_log_collection(path)
        np.testing.assert_array_equal(
            scalar_logs.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
            replayed.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
        )
        assert scalar_logs.segment_exit_rate() == replayed.segment_exit_rate()
        assert sum(s.watch_time for s in scalar_logs) == sum(
            s.watch_time for s in replayed
        )
        assert sum(s.total_stall_time for s in scalar_logs) == sum(
            s.total_stall_time for s in replayed
        )

    @pytest.mark.parametrize(
        "config",
        [
            SessionConfig(),
            SessionConfig(max_segments=9),
            SessionConfig(initial_buffer=4.0, rtt=0.02, base_buffer_cap=9.0),
        ],
    )
    def test_session_config_variants(self, config):
        specs = _spec_batch("hyb", "stationary", 3, num_sessions=8)
        assert_traces_equal(
            get_backend("scalar").run_batch(specs, config),
            get_backend("vector").run_batch(specs, config),
        )

    @pytest.mark.parametrize(
        "exit_model",
        [None, RuleBasedUser(3.0, 2), BaselineExitModel(base_hazard=0.05)],
        ids=["none", "rule_based", "baseline"],
    )
    def test_exit_model_families(self, exit_model):
        video = Video(num_segments=40, seed=4)
        trace = StationaryTraceGenerator(1200.0, 400.0).generate(
            25, np.random.default_rng(2)
        )
        specs = [
            SessionSpec(
                abr=HYB(), video=video, trace=trace, exit_model=exit_model, seed=i
            )
            for i in range(6)
        ]
        assert_traces_equal(
            get_backend("scalar").run_batch(specs),
            get_backend("vector").run_batch(specs),
        )

    def test_trace_shorter_than_video_wraps_identically(self):
        video = Video(num_segments=50, seed=9)
        trace = StationaryTraceGenerator(2000.0, 300.0).generate(
            7, np.random.default_rng(1)
        )
        specs = [SessionSpec(abr=BBA(), video=video, trace=trace, seed=i) for i in range(4)]
        assert_traces_equal(
            get_backend("scalar").run_batch(specs),
            get_backend("vector").run_batch(specs),
        )

    def test_heterogeneous_batch_mixed_ladders_policies_and_fallbacks(self):
        rng = np.random.default_rng(8)
        population = UserPopulation.generate(10, seed=3, bandwidth_median_kbps=2000.0)
        full = Video(num_segments=30, seed=1)
        mobile = Video(
            ladder=BitrateLadder(bitrates_kbps=(350.0, 750.0, 1850.0)),
            num_segments=22,
            seed=2,
        )
        trace = MarkovTraceGenerator().generate(60, rng)
        abrs = [
            HYB(parameters=QoEParameters(beta=0.5)),
            BBA(reservoir_s=2.0),
            ThroughputRule(gradual=False),
            BOLA(),
            RobustMPC(),
            KernellessABR(),  # no vector kernel -> scalar fallback inside the batch
        ]
        specs = [
            SessionSpec(
                abr=abrs[i % len(abrs)],
                video=mobile if i % 3 == 0 else full,
                trace=trace,
                exit_model=profile.exit_model(),
                seed=100 + i,
                user_id=profile.user_id,
            )
            for i, profile in enumerate(population)
        ]
        backend = VectorBackend()
        vector_traces = backend.run_batch(specs)
        assert_traces_equal(get_backend("scalar").run_batch(specs), vector_traces)
        expected_fallbacks = sum(
            1 for spec in specs if isinstance(spec.abr, KernellessABR)
        )
        assert backend.last_fallback_sessions == expected_fallbacks > 0

    def test_subclass_without_own_kernel_falls_back_to_scalar(self):
        class StubbornHYB(HYB):
            """Overrides the decision rule without providing a vector kernel."""

            def select_level(self, context):
                return 0

        assert not VectorBackend._vectorizable(
            SessionSpec(
                abr=StubbornHYB(),
                video=Video(num_segments=5, seed=0),
                trace=StationaryTraceGenerator(2000.0).generate(
                    5, np.random.default_rng(0)
                ),
            )
        )
        video = Video(num_segments=15, seed=3)
        trace = StationaryTraceGenerator(900.0, 200.0).generate(
            15, np.random.default_rng(4)
        )
        specs = [
            SessionSpec(abr=StubbornHYB(), video=video, trace=trace, seed=i)
            for i in range(3)
        ]
        vector_traces = get_backend("vector").run_batch(specs)
        assert_traces_equal(get_backend("scalar").run_batch(specs), vector_traces)
        assert all(
            record.level == 0 for trace_ in vector_traces for record in trace_.records
        )


class KernellessABR(HYB):
    """Overrides the decision rule without providing a vector kernel.

    Shared by the fallback-routing tests here and in ``test_network.py``:
    per the backend's convention, a subclass without its own
    ``vector_kernel`` must leave the fast path.
    """

    def select_level(self, context):
        return min(1, context.ladder.num_levels - 1)


def make_lingxi_abr(predictor, seed: int, mode: str) -> LingXiABR:
    """LingXi(HYB) with a small Monte-Carlo budget and an eager trigger."""
    controller = LingXiController(
        parameter_space=ParameterSpace.for_hyb(),
        predictor=predictor,
        monte_carlo=MonteCarloConfig(num_samples=2, max_sample_duration_s=20.0),
        trigger=TriggerPolicy(stall_count_threshold=1),
        config=ControllerConfig(mode=mode, max_sample_times=2, seed=seed),
    )
    return LingXiABR(HYB(), controller)


class TestLingXiVectorPath:
    """Optimization-enabled sessions run lockstep through the controller host.

    The gate matches the plain-ABR one — segment-for-segment trace equality
    with the scalar backend and zero scalar fallbacks — plus a stronger
    condition: the per-user controllers must finish with *identical*
    activation histories and deployed parameters, because the batched
    cross-session Monte-Carlo evaluations must reproduce each controller's
    own evaluation results exactly.
    """

    @pytest.fixture(scope="class")
    def predictor(self):
        return ExitRatePredictor(channels=8, hidden=16, seed=0)

    def _specs(self, predictor, mode, sessions_per_user=1):
        rng = np.random.default_rng(3)
        population = UserPopulation.generate(6, seed=4, bandwidth_median_kbps=1200.0)
        library = VideoLibrary(
            num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2
        )
        generator = LowBandwidthTraceGenerator()
        seeds = spawn_session_seeds(11, 6 * sessions_per_user)
        specs = []
        for u, profile in enumerate(population):
            abr = make_lingxi_abr(predictor, 100 + u, mode)
            exit_model = profile.exit_model()
            trace = generator.generate(70, rng)
            for s in range(sessions_per_user):
                specs.append(
                    SessionSpec(
                        abr=abr,
                        video=library[(u + s) % 3],
                        trace=trace,
                        exit_model=exit_model,
                        seed=seeds[u * sessions_per_user + s],
                        user_id=profile.user_id,
                    )
                )
        return specs

    def _assert_controllers_equal(self, scalar_specs, vector_specs):
        for scalar_spec, vector_spec in zip(scalar_specs, vector_specs):
            scalar_controller = scalar_spec.abr.controller
            vector_controller = vector_spec.abr.controller
            assert scalar_controller.history == vector_controller.history
            assert (
                scalar_controller.best_parameters
                == vector_controller.best_parameters
            )

    @pytest.mark.parametrize("mode", ["fixed", "bayesian"])
    def test_lingxi_sessions_match_scalar_with_zero_fallbacks(
        self, predictor, mode
    ):
        scalar_specs = self._specs(predictor, mode)
        vector_specs = self._specs(predictor, mode)
        scalar_traces = get_backend("scalar").run_batch(scalar_specs)
        backend = VectorBackend()
        vector_traces = backend.run_batch(vector_specs)
        assert_traces_equal(scalar_traces, vector_traces)
        assert backend.last_fallback_sessions == 0
        self._assert_controllers_equal(scalar_specs, vector_specs)
        # the loop actually optimized (otherwise the gate proves nothing)
        assert sum(
            len(spec.abr.controller.history) for spec in scalar_specs
        ) > 0

    @pytest.mark.parametrize("mode", ["fixed", "bayesian"])
    def test_shared_per_user_instances_run_in_waves(self, predictor, mode):
        """One user's sessions share a LingXiABR; state must flow in order."""
        scalar_specs = self._specs(predictor, mode, sessions_per_user=3)
        vector_specs = self._specs(predictor, mode, sessions_per_user=3)
        scalar_traces = get_backend("scalar").run_batch(scalar_specs)
        backend = VectorBackend()
        vector_traces = backend.run_batch(vector_specs)
        assert_traces_equal(scalar_traces, vector_traces)
        assert backend.last_fallback_sessions == 0
        self._assert_controllers_equal(scalar_specs, vector_specs)

    def test_independent_batch_is_one_cohort_per_wave_and_kernel_key(self, predictor):
        """Plain HYB and BBA sessions beside LingXi users with three sessions
        each: a user's sessions split into waves 0 to 2, so the batch builds
        one cohort per (wave, kernel key), LingXi(HYB), HYB and BBA in wave
        0 and LingXi(HYB) alone in waves 1 and 2, and still equals the
        scalar engine trace for trace."""

        def build():
            lingxi = self._specs(predictor, "fixed", sessions_per_user=3)
            plain = [
                dataclasses.replace(spec, abr=(HYB, BBA)[i % 2](), seed=500 + i)
                for i, spec in enumerate(lingxi[:6])
            ]
            return lingxi[:9] + plain + lingxi[9:]

        scalar_specs, vector_specs = build(), build()
        scalar_traces = get_backend("scalar").run_batch(scalar_specs)
        backend = VectorBackend()
        with obs.collect() as collector:
            vector_traces = backend.run_batch(vector_specs)
        assert collector.snapshot()["metrics"]["counters"]["vector.cohorts"] == 5
        assert backend.last_fallback_sessions == 0
        assert_traces_equal(scalar_traces, vector_traces)
        hosted = slice(0, 9), slice(15, None)
        self._assert_controllers_equal(
            [spec for part in hosted for spec in scalar_specs[part]],
            [spec for part in hosted for spec in vector_specs[part]],
        )

    def test_mixed_modes_and_predictors_in_one_cohort(self, predictor, monkeypatch):
        """Fixed and Bayesian controllers over two predictors share a cohort.

        Every user watches the same video over the same trace, so the
        sessions stall in step and trigger together; one host round
        (``advance``) then scores them, one ``evaluate_requests`` call per
        predictor, both modes' rounds side by side.  The result must still
        equal the scalar engine's one-activation-at-a-time run.
        """
        predictors = (predictor, ExitRatePredictor(channels=8, hidden=16, seed=1))

        def build():
            population = UserPopulation.generate(
                6, seed=4, bandwidth_median_kbps=1200.0
            )
            video = Video(num_segments=25, seed=2)
            trace = LowBandwidthTraceGenerator().generate(
                60, np.random.default_rng(2)
            )
            seeds = spawn_session_seeds(11, 12)
            specs = []
            for u, profile in enumerate(population):
                abr = make_lingxi_abr(
                    predictors[(u // 2) % 2], 100 + u, ("fixed", "bayesian")[u % 2]
                )
                specs.extend(
                    SessionSpec(
                        abr=abr,
                        video=video,
                        trace=trace,
                        exit_model=profile.exit_model(),
                        seed=seeds[2 * u + s],
                        user_id=profile.user_id,
                    )
                    for s in range(2)
                )
            return specs

        scalar_specs, vector_specs = build(), build()
        scalar_traces = get_backend("scalar").run_batch(scalar_specs)
        # (predictor, mode) of each request, by the user state it carries
        owners = {
            id(spec.abr.controller.user_state): (
                id(spec.abr.controller.predictor),
                spec.abr.controller.config.mode,
            )
            for spec in vector_specs
        }
        steps: list[set] = []  # per host round, what its calls carried
        advance = vector_host.VectorControllerHost.advance
        evaluate = BatchedMonteCarloEvaluator.evaluate_requests

        def recording_advance(host):
            steps.append(set())
            return advance(host)

        def recording_evaluate(evaluator, requests):
            steps[-1].update(owners[id(request.user_state)] for request in requests)
            return evaluate(evaluator, requests)

        monkeypatch.setattr(vector_host.VectorControllerHost, "advance", recording_advance)
        monkeypatch.setattr(BatchedMonteCarloEvaluator, "evaluate_requests", recording_evaluate)
        backend = VectorBackend()
        vector_traces = backend.run_batch(vector_specs)
        assert_traces_equal(scalar_traces, vector_traces)
        assert backend.last_fallback_sessions == 0
        self._assert_controllers_equal(scalar_specs, vector_specs)
        activated = {
            spec.abr.controller.config.mode
            for spec in scalar_specs
            if spec.abr.controller.history
        }
        assert activated == {"fixed", "bayesian"}
        # one host round scored both modes over both predictors
        assert any(
            {mode for _key, mode in step} == {"fixed", "bayesian"}
            and len({key for key, _mode in step}) == 2
            for step in steps
        )

    def test_lingxi_over_kernelless_inner_falls_back(self, predictor):
        controller = make_lingxi_abr(predictor, 0, "fixed").controller
        abr = LingXiABR(KernellessABR(), controller)
        video = Video(num_segments=8, seed=0)
        trace = StationaryTraceGenerator(2000.0).generate(8, np.random.default_rng(0))
        spec = SessionSpec(abr=abr, video=video, trace=trace, seed=1)
        assert not VectorBackend._vectorizable(spec)
        backend = VectorBackend()
        backend.run_batch([spec])
        assert backend.last_fallback_sessions == 1


class TestPipelinedActivations:
    """Activations advanced one round at a time equal one-shot activations."""

    #: (predictor, mode) of each controller: both modes over two predictors.
    PLAN = ((0, "bayesian"), (0, "fixed"), (1, "bayesian"), (1, "fixed"), (0, "bayesian"))

    @pytest.fixture(scope="class")
    def predictors(self):
        return tuple(ExitRatePredictor(channels=8, hidden=16, seed=s) for s in (0, 1))

    def _controllers(self, predictors) -> list[LingXiController]:
        controllers = []
        for k, (p, mode) in enumerate(self.PLAN):
            controller = make_lingxi_abr(predictors[p], 300 + k, mode).controller
            controller.user_state = TestBatchedEvaluateMany._snapshot_and_state()[1]
            controllers.append(controller)
        return controllers

    @staticmethod
    def _job(controller):
        return controller, HYB(), TestBatchedEvaluateMany._snapshot_and_state()[0]

    def test_round_at_a_time_driver_equals_one_shot_activations(
        self, predictors, monkeypatch
    ):
        """Each controller activates twice.  The reference runs every
        activation alone through ``run_activations``; the driver launches
        them at staggered ``advance`` calls, a controller's second activation
        in the round after its first finished, so rounds of different
        activations, modes and launch times share calls.  Histories, deployed
        parameters and OBO trials must be equal, each predictor must see one
        ``evaluate_requests`` call per ``advance`` in which it had work, and
        each activation must finish after its own number of rounds."""
        reference = self._controllers(predictors)
        for controller in reference:
            for _ in range(2):
                run_activations([self._job(controller)])

        calls: dict[int, int] = {}
        evaluate = BatchedMonteCarloEvaluator.evaluate_requests

        def counting(evaluator, requests):
            key = id(evaluator.predictor.predictor)
            calls[key] = calls.get(key, 0) + 1
            return evaluate(evaluator, requests)

        monkeypatch.setattr(BatchedMonteCarloEvaluator, "evaluate_requests", counting)
        controllers = self._controllers(predictors)
        first_launch = {0: [0, 1], 1: [2], 3: [3, 4]}
        remaining = [2] * len(controllers)
        driver = ActivationDriver()
        flying: dict = {}  # activation -> (controller index, launch advance)
        busy: dict[int, int] = {}  # predictor -> advances with work
        relaunch: list[int] = []
        rounds = 0
        a = 0
        while driver.in_flight or any(remaining):
            for k in first_launch.get(a, []) + relaunch:
                [activation] = driver.launch([self._job(controllers[k])])
                flying[activation] = (k, a)
                remaining[k] -= 1
            relaunch = []
            assert driver.in_flight == len(flying)
            for p in {self.PLAN[k][0] for k, _ in flying.values()}:
                key = id(predictors[p])
                busy[key] = busy.get(key, 0) + 1
            rounds += len(flying)
            for activation in driver.advance():
                k, launched = flying.pop(activation)
                expected_rounds = 1 if self.PLAN[k][1] == "fixed" else 3
                assert a == launched + expected_rounds - 1
                assert activation.best_parameters == controllers[k].best_parameters
                if remaining[k]:
                    relaunch.append(k)
            a += 1

        assert calls == busy
        # rounds of different activations shared calls
        assert sum(calls.values()) < rounds
        for mine, theirs in zip(controllers, reference):
            assert len(mine.history) == 2
            assert mine.history == theirs.history
            assert mine.best_parameters == theirs.best_parameters
            assert controller_state_payload(mine) == controller_state_payload(theirs)

    def test_host_holds_rows_until_their_activations_deploy(self, predictors):
        """Bayesian rows that trigger are held for their three rounds, and
        ``finalize`` refuses to resync a controller mid-activation."""
        ladder = BitrateLadder()
        abrs = [make_lingxi_abr(predictors[0], 400 + i, "bayesian") for i in range(3)]
        host = vector_host.VectorControllerHost(
            abrs, ladder=ladder, segment_duration=2.0, max_steps=4
        )
        rows = np.arange(3)
        for _ in range(2):
            host.observe_step(
                rows=rows,
                levels=np.zeros(3, dtype=int),
                stall=np.asarray([1.5, 1.5, 0.0]),
                throughput=np.full(3, 300.0),
                buffer_after=np.zeros(3),
                exits=np.zeros(3, dtype=bool),
                bitrates=np.asarray(ladder.bitrates_kbps, dtype=float),
            )
        assert host.held.tolist() == [True, True, False]
        assert host.in_flight == 2
        with pytest.raises(vector_host.ActivationInFlightError):
            host.finalize()
        for _ in range(2):
            host.advance()
            assert host.held.tolist() == [True, True, False]
        host.advance()
        assert not host.held.any() and host.in_flight == 0
        assert host.stalls_since.tolist() == [0, 0, 0]
        host.finalize()
        assert [len(abr.controller.history) for abr in abrs] == [1, 1, 0]
        assert [abr.controller.history[0].trigger_stall_count for abr in abrs[:2]] == [2, 2]


class TestBackendSeam:
    def test_registry_contains_builtin_backends(self):
        names = available_backends()
        assert "scalar" in names and "vector" in names
        assert isinstance(get_backend("scalar"), ScalarBackend)
        assert isinstance(get_backend("vector"), VectorBackend)
        assert get_backend(None).name == "scalar"
        instance = VectorBackend()
        assert get_backend(instance) is instance
        with pytest.raises(KeyError):
            get_backend("not_a_backend")

    def test_batch_and_single_run_agree(self):
        video = Video(num_segments=10, seed=0)
        trace = StationaryTraceGenerator(3000.0).generate(10, np.random.default_rng(0))
        spec = SessionSpec(abr=HYB(), video=video, trace=trace, seed=1)
        batch_traces = get_backend("vector").run_batch([spec])
        single = get_backend("vector").run(spec)
        assert batch_traces[0].records == single.records

    def test_unseeded_specs_draw_independently_and_match_across_backends(self):
        video = Video(num_segments=40, seed=4)
        trace = StationaryTraceGenerator(1000.0, 300.0).generate(
            20, np.random.default_rng(2)
        )
        specs = [
            SessionSpec(
                abr=HYB(), video=video, trace=trace, exit_model=BaselineExitModel()
            )
            for _ in range(8)
        ]
        scalar_traces = get_backend("scalar").run_batch(specs)
        assert_traces_equal(scalar_traces, get_backend("vector").run_batch(specs))
        # identical specs but distinct position-derived substreams: sessions
        # must not all exit at the same segment
        assert len({len(trace_) for trace_ in scalar_traces}) > 1

    @pytest.mark.parametrize("networked", [False, True], ids=["independent", "fat_link"])
    def test_nan_exit_probability_rejected_by_both_backends(self, networked):
        class BrokenExitModel(BaselineExitModel):
            def exit_probability(self, observation):
                return float("nan")

            @classmethod
            def vector_exit_kernel(cls, models):
                # one probability per row the view covers
                return lambda view: np.full(view.level.size, np.nan)

        video = Video(num_segments=10, seed=0)
        trace = StationaryTraceGenerator(3000.0).generate(10, np.random.default_rng(0))
        specs = [
            SessionSpec(
                abr=HYB(), video=video, trace=trace, exit_model=BrokenExitModel(), seed=i
            )
            for i in range(3)
        ]
        network = _fat_link() if networked else None
        for backend in ("scalar", "vector"):
            with pytest.raises(ValueError, match="exit probability"):
                get_backend(backend).run_batch(specs, network=network)

    @pytest.mark.parametrize("bad_level", [99, -1, float("nan")], ids=["high", "low", "nan"])
    @pytest.mark.parametrize("networked", [False, True], ids=["independent", "fat_link"])
    def test_invalid_abr_level_rejected_by_both_backends(self, networked, bad_level):
        """An active row's out-of-range (or NaN) level fails on both engines."""

        class BrokenABR(HYB):
            def select_level(self, context):
                return bad_level if context.segment_index == 3 else 0

            @classmethod
            def vector_kernel(cls, policies):
                def kernel(context):
                    # one level per row the context covers
                    levels = np.zeros(context.buffer.size)
                    if context.k[0] == 3:  # a per-row segment index
                        levels[0] = bad_level
                    return levels

                return kernel

        # Videos of different lengths: at step 3 the cohort steps only the
        # two sessions whose video still has segment 3.
        trace = StationaryTraceGenerator(3000.0).generate(10, np.random.default_rng(0))
        specs = [
            SessionSpec(
                abr=BrokenABR(), video=Video(num_segments=length, seed=0), trace=trace, seed=i
            )
            for i, length in enumerate((3, 10, 6))
        ]
        assert VectorBackend._vectorizable(specs[0])
        network = _fat_link() if networked else None
        for backend in ("scalar", "vector"):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="level|NaN"):
                get_backend(backend).run_batch(specs, network=network)

    def test_session_rng_is_philox_and_deterministic(self):
        first = session_rng(42)
        second = session_rng(42)
        assert type(first.bit_generator).__name__ == "Philox"
        np.testing.assert_array_equal(first.random(16), second.random(16))
        # pre-drawn vectors equal step-by-step draws on the same substream
        stepwise = np.asarray([session_rng(7).random() for _ in range(1)])
        assert session_rng(7).random(4)[0] == stepwise[0]

    def test_dynamic_buffer_cap_array_matches_scalar(self):
        rng = np.random.default_rng(0)
        means = rng.uniform(200.0, 20000.0, size=64)
        stds = rng.uniform(0.0, 5000.0, size=64)
        array_caps = dynamic_buffer_cap(means, stds)
        scalar_caps = [dynamic_buffer_cap(m, s) for m, s in zip(means, stds)]
        np.testing.assert_array_equal(array_caps, scalar_caps)
        with pytest.raises(ValueError):
            dynamic_buffer_cap(np.asarray([100.0, -1.0]), np.asarray([0.0, 0.0]))

    def test_video_sizes_tuple_matches_matrix(self):
        video = Video(num_segments=12, seed=5)
        for index in (0, 5, 11, 12, 25):
            assert video.sizes_tuple(index) == tuple(video.sizes_for_segment(index))


class TestFleetBackendRouting:
    @pytest.fixture
    def population(self):
        return UserPopulation.generate(12, seed=5, bandwidth_median_kbps=2500.0)

    @pytest.fixture
    def library(self):
        return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)

    def _run(self, population, library, backend, **overrides):
        defaults = dict(
            num_shards=3,
            num_workers=0,
            sessions_per_user=2,
            trace_length=50,
            seed=11,
            backend=backend,
        )
        defaults.update(overrides)
        return FleetOrchestrator(FleetConfig(**defaults)).run(population, library)

    def test_vector_fleet_is_deterministic(self, population, library):
        first = self._run(population, library, "vector")
        second = self._run(population, library, "vector")
        assert first.metrics == second.metrics
        np.testing.assert_array_equal(
            first.logs.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
            second.logs.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
        )

    def test_vector_fleet_preserves_session_counts_and_user_order(
        self, population, library
    ):
        scalar = self._run(population, library, "scalar")
        vector = self._run(population, library, "vector")
        # Users, their ordering and their session counts match the scalar
        # run (built-in scenarios derive session counts without consuming
        # RNG); the concrete traces/videos/exits differ because the batched
        # path does not interleave exit draws with the scenario draws.
        assert scalar.metrics.num_sessions == vector.metrics.num_sessions
        assert [log.user_id for log in scalar.logs] == [
            log.user_id for log in vector.logs
        ]

    def test_vector_fleet_determinism_across_worker_counts(self, population, library):
        inline = self._run(population, library, "vector", num_workers=0)
        pooled = self._run(population, library, "vector", num_workers=2)
        assert inline.metrics == pooled.metrics

    def test_vector_fleet_with_lingxi_factory_runs_hosted_and_keeps_state(
        self, library
    ):
        """A low-bandwidth LingXi day with three sessions per user, so waves
        carry controller state and Bayesian activations hold rows: the
        vector engine's metrics and controller states equal the scalar
        engine's."""
        population = UserPopulation.generate(12, seed=5, bandwidth_median_kbps=1500.0)
        predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)

        def run(backend):
            return FleetOrchestrator(
                FleetConfig(
                    num_shards=2,
                    num_workers=0,
                    sessions_per_user=3,
                    trace_length=40,
                    seed=3,
                    backend=backend,
                )
            ).run(population, library, abr_factory=LingXiFleetFactory(predictor))

        scalar = run("scalar")
        with obs.collect() as collector:
            vector = run("vector")
        counters = collector.snapshot()["metrics"]["counters"]
        assert vector.metrics.num_sessions == 3 * len(population)
        assert set(vector.controller_states) == {p.user_id for p in population}
        assert vector.metrics == scalar.metrics
        assert vector.controller_states == scalar.controller_states
        assert sum(
            len(state["obo_trials"]) for state in vector.controller_states.values()
        ) > 0
        assert counters.get("vector.held_slots", 0) > 0

    def test_rejects_unknown_backend(self):
        with pytest.raises(KeyError):
            FleetConfig(backend="warp_drive")


class TestBatchedEvaluateMany:
    @pytest.fixture(scope="class")
    def predictor(self):
        return ExitRatePredictor(channels=8, hidden=16, seed=0)

    @staticmethod
    def _snapshot_and_state():
        bandwidth = BandwidthModel(window=8)
        for value in (600.0, 560.0, 640.0, 580.0, 620.0, 600.0, 590.0, 610.0):
            bandwidth.update(value)
        snapshot = PlayerSnapshot(
            ladder=BitrateLadder(),
            segment_duration=2.0,
            buffer=2.0,
            last_level=1,
            bandwidth_model=bandwidth,
        )
        state = UserState()
        for k in range(8):
            state.observe_segment(
                bitrate_kbps=750.0,
                throughput_kbps=600.0,
                stall_time=0.4 if k % 2 == 0 else 0.0,
                segment_duration=2.0,
            )
        return snapshot, state

    def test_multi_candidate_request_matches_per_candidate_evaluate(
        self, predictor
    ):
        """One request with C candidates equals C separate ``evaluate`` calls."""
        snapshot, state = self._snapshot_and_state()
        evaluator = BatchedMonteCarloEvaluator(
            predictor, config=MonteCarloConfig(num_samples=5, seed=3)
        )
        abr = HYB()
        candidates = [QoEParameters(beta=beta) for beta in (0.5, 0.7, 0.9, 1.1)]
        singles = [
            evaluator.evaluate(
                candidate, abr, snapshot, state, rng=np.random.default_rng(17)
            )
            for candidate in candidates
        ]
        [batched] = evaluator.evaluate_requests(
            [
                RolloutRequest(
                    candidates=candidates,
                    abr=abr,
                    snapshot=snapshot,
                    user_state=state,
                    rngs=[np.random.default_rng(17) for _ in candidates],
                )
            ]
        )
        assert singles == batched
        assert abr.parameters == QoEParameters()

    def test_evaluate_requests_empty_and_rng_validation(self, predictor):
        snapshot, state = self._snapshot_and_state()
        evaluator = BatchedMonteCarloEvaluator(
            predictor, config=MonteCarloConfig(num_samples=2, seed=1)
        )
        assert evaluator.evaluate_requests([]) == []
        with pytest.raises(ValueError):
            evaluator.evaluate_requests(
                [
                    RolloutRequest(
                        candidates=[QoEParameters(beta=0.6), QoEParameters(beta=0.8)],
                        abr=HYB(),
                        snapshot=snapshot,
                        user_state=state,
                        rngs=[np.random.default_rng(0)],
                    )
                ]
            )

    def test_virtual_video_shared_between_evaluators(self, predictor):
        snapshot, _ = self._snapshot_and_state()
        config = MonteCarloConfig(num_samples=2, max_sample_duration_s=30.0, seed=2)
        sequential = MonteCarloEvaluator(predictor, config=config)
        shared = virtual_video(snapshot, config)
        own = sequential._virtual_video(snapshot)
        assert own.num_segments == shared.num_segments
        np.testing.assert_array_equal(own.segment_sizes_kbit, shared.segment_sizes_kbit)
