"""Integration tests: experiment drivers run end-to-end on a tiny substrate."""

import numpy as np
import pytest

from repro.experiments import (
    fig01_qos_saturation,
    fig02_opportunities,
    fig03_watchtime_qos,
    fig04_exit_rate_qos,
    fig05_personalized_stall,
    fig08_trigger_tradeoff,
    fig09_predictor,
    fig10_simulation,
    fig11_heatmap,
    fig12_ab_test,
    fig13_bandwidth_bins,
    fig14_exit_rate_vs_param,
    fig15_user_trajectories,
)
from repro.datasets import LogGenerationConfig, generate_production_logs
from repro.experiments.common import format_table
from repro.sim.traces import generate_trace_set
from repro.sim.video import Video
from repro.abr.hyb import HYB


#: sha256 pins of a Figure 12 AB phase on the tiny substrate (days 1-2,
#: seed 22), per arm: the LingXi-wrapped HYB treatment and the HYB control.
#: Recorded from the scalar and vector engines (which agreed) with the
#: Markov traces drawn as a normal block and then a uniform block.
_AB_PHASE_DIGESTS = {
    "lingxi": {
        "segments": "b55e212cb3a80d96e4910950076451d63411f303cbfaa969bbe4bd7c60dd2a4b",
        "daily_parameters": "3744e6a9ea8068ccfcaba79c7791eae3923e714de7905f57a582d2a14e45e7c2",
    },
    "hyb": {
        "segments": "6380cbd8c34f221fbe1072386a8ec6b2231ce22a3d43087f0c25d337d3a501cc",
        "daily_parameters": "24d159b667f43a489ae8951c661b180e3d53cb19560857d6f4796f80d9cc0759",
    },
}


class TestCampaign:
    def test_campaign_produces_logs_and_parameters(self, tiny_substrate):
        result = generate_production_logs(
            tiny_substrate.population,
            tiny_substrate.library,
            LogGenerationConfig(days=1, sessions_per_user_per_day=1, trace_length=40, seed=0),
            abr_factory=lambda _profile: HYB(),
        )
        assert len(result.logs) == len(tiny_substrate.population)
        assert len(result.daily_parameters) == len(tiny_substrate.population)
        assert all(v == pytest.approx(0.9) for v in result.daily_parameters.values())

    @pytest.mark.parametrize("arm", ["lingxi", "hyb"])
    def test_ab_phase_is_pinned(self, tiny_substrate, log_digests, arm):
        treatment, control = tiny_substrate.population.split(0.5, seed=21)
        if arm == "lingxi":
            population = treatment
            factory = fig12_ab_test._lingxi_hyb_factory(tiny_substrate, 21)
        else:
            population = control
            factory = lambda _profile: HYB(  # noqa: E731
                parameters=fig12_ab_test._baseline_parameters()
            )
        result = generate_production_logs(
            population,
            tiny_substrate.library,
            LogGenerationConfig(
                days=2, sessions_per_user_per_day=2, trace_length=60, seed=22, start_day=1
            ),
            abr_factory=factory,
        )
        assert {log.day for log in result.logs} == {1, 2}
        assert len(result.abrs) == len(population)
        assert log_digests(result) == _AB_PHASE_DIGESTS[arm]


class TestAnalysisFigures:
    def test_fig01_structure(self, tiny_substrate):
        result = fig01_qos_saturation.run(
            substrate=tiny_substrate, days=1, sessions_per_user_per_day=1
        )
        assert set(result.bitrate) == {"Alg1", "Alg2", "Alg3"}
        assert len(result.days) == 1
        np.testing.assert_allclose(result.bitrate["Alg2"], 1.0)
        assert len(result.rows()) == 3

    def test_fig02_cdfs(self, tiny_substrate):
        result = fig02_opportunities.run(substrate=tiny_substrate)
        assert 0.0 <= result.fraction_below_max_bitrate <= 1.0
        assert result.bandwidth_cdf[-1] == pytest.approx(1.0)
        assert result.stall_count_cdf[-1] == pytest.approx(1.0)

    def test_fig03_normalized(self, tiny_substrate):
        result = fig03_watchtime_qos.run(substrate=tiny_substrate)
        assert np.nanmax(result.watch_time_by_tier) == pytest.approx(1.0)
        assert len(result.stall_bins_s) == result.watch_time_by_stall.size

    def test_fig04_magnitude_ordering(self, tiny_substrate):
        result = fig04_exit_rate_qos.run(substrate=tiny_substrate)
        assert result.exit_rate_by_tier.shape == (4,)
        # Stall must dominate quality — the paper's Takeaway 1.
        if np.isfinite(result.stall_magnitude) and np.isfinite(result.quality_magnitude):
            assert result.stall_magnitude > result.quality_magnitude

    def test_fig05_curves(self, tiny_substrate):
        result = fig05_personalized_stall.run(substrate=tiny_substrate)
        assert result.tolerance_cdf[-1] == pytest.approx(1.0)
        for curve in result.example_curves.values():
            assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
            assert np.all(np.diff(curve) >= -1e-9)


class TestPredictorFigures:
    def test_fig08_recall_curve(self, tiny_substrate):
        result = fig08_trigger_tradeoff.run(substrate=tiny_substrate, max_history=4, train_epochs=3)
        assert len(result.recall_by_history) == 4
        assert len(result.stall_count_cdfs) >= 1

    def test_fig09_orderings(self, tiny_substrate):
        result = fig09_predictor.run(substrate=tiny_substrate, seeds=(0,), epochs=3)
        assert set(result.by_composition) == {"all", "event", "stall"}
        stall = result.by_composition["stall"].mean
        all_metrics = result.by_composition["all"].mean
        assert stall["precision"] >= all_metrics["precision"]
        for summary in result.by_composition.values():
            for value in summary.mean.values():
                assert 0.0 <= value <= 1.0


class TestSimulationFigures:
    def test_fig10_hyb_rule(self, tiny_substrate):
        result = fig10_simulation.run(
            baseline="hyb",
            user_modeling="rule",
            substrate=tiny_substrate,
            rule_thresholds=(2.0, 6.0),
            num_traces=2,
            trace_length=50,
            repeats=1,
        )
        assert result.completion_by_fixed
        assert 0.0 <= result.best_fixed <= 1.0
        assert result.completion_lingxi_bayesian is not None
        assert 0.0 <= result.completion_lingxi_bayesian <= 1.0

    def test_fig10_data_driven_users_start_each_session_unswitched(
        self, tiny_substrate, monkeypatch
    ):
        playbacks, fitted = [], []
        run_batch = fig10_simulation.VectorBackend.run_batch
        fit = fig10_simulation.fit_data_driven_user

        def recording_run_batch(self, specs, config=None, **kwargs):
            traces = run_batch(self, specs, config, **kwargs)
            playbacks.append(traces)
            return traces

        def recording_fit(features, labels):
            fitted.append(features)
            return fit(features, labels)

        monkeypatch.setattr(
            fig10_simulation.VectorBackend, "run_batch", recording_run_batch
        )
        monkeypatch.setattr(fig10_simulation, "fit_data_driven_user", recording_fit)
        traces = generate_trace_set(num_traces=3, length=80, low_bandwidth_fraction=0.7)
        video = Video(ladder=tiny_substrate.library.ladder, num_segments=30, seed=1)
        fig10_simulation._data_driven_users(tiny_substrate, 3, traces, video, seed=0)
        assert len(fitted) == len(playbacks) == 3
        for features, sessions in zip(fitted, playbacks):
            starts = np.cumsum([0] + [len(trace) for trace in sessions[:-1]])
            assert len(features) == sum(map(len, sessions))
            assert np.all(features[starts, 5] == 0.0)  # column 5: |switch|
            levels = np.concatenate([trace.segments["level"] for trace in sessions])
            assert np.any(np.diff(levels)[starts[1:] - 1] != 0), (
                "no session starts on a new level; the check shows nothing"
            )

    def test_fig10_invalid_arguments(self, tiny_substrate):
        with pytest.raises(ValueError):
            fig10_simulation.run(user_modeling="bogus", substrate=tiny_substrate)
        with pytest.raises(ValueError):
            fig10_simulation.run(baseline="bogus", substrate=tiny_substrate)

    def test_fig11_heatmap_shape(self, tiny_substrate):
        result = fig11_heatmap.run(
            substrate=tiny_substrate,
            baselines=("hyb",),
            rule_thresholds=(2.0, 6.0),
            num_traces=2,
            trace_length=50,
            repeats=1,
        )
        assert result.heatmaps["hyb"].shape == (2, 2)


class TestABFigures:
    @pytest.fixture(scope="class")
    def ab_result(self, tiny_substrate):
        return fig12_ab_test.run(
            substrate=tiny_substrate,
            days_pre=2,
            days_post=2,
            sessions_per_user_per_day=2,
            trace_length=60,
        )

    def test_fig12_structure(self, ab_result):
        assert len(ab_result.control_daily) == 4
        assert len(ab_result.treatment_daily) == 4
        for result in (ab_result.watch_time, ab_result.bitrate, ab_result.stall_time):
            assert np.isfinite(result.effect)
            assert 0.0 <= result.p_value <= 1.0

    def test_fig13_bins(self, tiny_substrate, ab_result):
        result = fig13_bandwidth_bins.run(substrate=tiny_substrate, ab_result=ab_result)
        assert len(result.bin_labels) == len(result.mean_beta)
        finite_betas = [b for b in result.mean_beta if np.isfinite(b)]
        assert all(0.4 <= b <= 1.0 for b in finite_betas)

    def test_fig14_daily_points(self, tiny_substrate, ab_result):
        result = fig14_exit_rate_vs_param.run(
            substrate=tiny_substrate, ab_result=ab_result, min_stall_events=1
        )
        assert len(result.daily) == 2
        for day in result.daily:
            assert len(day.exit_rates) == len(day.parameters)

    def test_fig15_trajectories(self, tiny_substrate, ab_result):
        result = fig15_user_trajectories.run(
            substrate=tiny_substrate, ab_result=ab_result, users_per_group=1
        )
        assert len(result.high_tolerance) == 1
        assert len(result.stall_sensitive) == 1
        for trajectory in result.high_tolerance + result.stall_sensitive:
            for event in trajectory.events:
                assert event.stall_time > 0


class TestFormatting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in text and "3" in text


class TestRunnerCLI:
    def test_select_figures_default_is_everything(self):
        from repro.experiments.runner import FIGURE_IDS, select_figures

        assert select_figures(None) == list(FIGURE_IDS)
        assert select_figures([]) == list(FIGURE_IDS)

    def test_select_figures_preserves_order_and_pulls_fig12(self):
        from repro.experiments.runner import select_figures

        assert select_figures(["fig13", "fig01"]) == ["fig01", "fig12", "fig13"]
        assert select_figures(["fig15"]) == ["fig12", "fig15"]
        assert select_figures(["fig02"]) == ["fig02"]

    def test_select_figures_rejects_unknown(self):
        from repro.experiments.runner import select_figures

        with pytest.raises(ValueError, match="unknown figures"):
            select_figures(["fig99"])

    def test_argparse_flags(self):
        from repro.experiments.runner import _parse_args

        args = _parse_args(["--figures", "fig01,fig12", "--quiet"])
        assert args.figures == "fig01,fig12"
        assert args.quiet is True
        assert _parse_args([]).quiet is False

    def test_run_all_respects_selection(self, tiny_substrate):
        from repro.experiments.runner import run_all

        results = run_all(
            substrate_config=tiny_substrate.config,
            verbose=False,
            figures=["fig01"],
        )
        assert list(results) == ["fig01"]
