"""Tests for bandwidth models, trace generators and trace I/O."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import bandwidth as bandwidth_module
from repro.sim.bandwidth import (
    BandwidthModel,
    BandwidthTrace,
    LowBandwidthTraceGenerator,
    MarkovTraceGenerator,
    MixedTraceGenerator,
    StationaryTraceGenerator,
    harmonic_mean,
)
from repro.sim.traces import generate_trace_set, load_traces, save_traces


class TestBandwidthModel:
    def test_prior_used_before_observations(self):
        model = BandwidthModel(prior_mean_kbps=5000, prior_std_kbps=800)
        assert model.mean == 5000
        assert model.std == 800

    def test_mean_and_std_track_window(self):
        model = BandwidthModel(window=3)
        model.extend([1000, 2000, 3000, 4000])
        assert model.num_observations == 3
        assert model.mean == pytest.approx(3000)
        assert model.std == pytest.approx(1000)

    def test_rejects_non_positive_throughput(self):
        model = BandwidthModel()
        with pytest.raises(ValueError):
            model.update(0)

    def test_sample_positive(self, rng):
        model = BandwidthModel()
        model.extend([100.0, 120.0])
        samples = model.sample(rng, size=200)
        assert np.all(samples > 0)

    def test_stall_risk_negligible_rule(self):
        model = BandwidthModel()
        model.extend([20000.0, 20500.0, 19800.0, 20100.0])
        assert model.stall_risk_negligible(4300.0)
        low = BandwidthModel()
        low.extend([1500.0, 1300.0, 1600.0])
        assert not low.stall_risk_negligible(4300.0)

    def test_copy_is_independent(self):
        model = BandwidthModel()
        model.extend([1000.0, 1100.0])
        clone = model.copy()
        clone.update(9000.0)
        assert model.num_observations == 2
        assert clone.num_observations == 3

    @given(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=30))
    def test_mean_within_observed_range(self, values):
        model = BandwidthModel(window=50)
        model.extend(values)
        assert min(values) - 1e-6 <= model.mean <= max(values) + 1e-6


class TestTraces:
    def test_trace_requires_positive_samples(self):
        with pytest.raises(ValueError):
            BandwidthTrace(values_kbps=(1000.0, -5.0))
        with pytest.raises(ValueError):
            BandwidthTrace(values_kbps=())

    @pytest.mark.parametrize(
        "bad", [float("nan"), 0.0, -0.0, -5.0], ids=["nan", "zero", "neg_zero", "negative"]
    )
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_trace_rejects_every_sample_that_is_not_positive(self, bad, position):
        values = [1000.0, 2000.0, 3000.0]
        values[position] = bad
        with pytest.raises(ValueError, match="positive"):
            BandwidthTrace(values_kbps=tuple(values))

    def test_leading_nan_does_not_hide_a_later_negative(self):
        with pytest.raises(ValueError):
            BandwidthTrace(values_kbps=(float("nan"), -5.0, 1000.0))

    def test_trace_accepts_infinite_and_non_float_samples(self):
        assert BandwidthTrace(values_kbps=(float("inf"), 1000.0)).bandwidth_at(0) == float("inf")
        assert len(BandwidthTrace(values_kbps=(np.int64(3), 2, np.float32(1.5)))) == 3
        with pytest.raises(ValueError):
            BandwidthTrace(values_kbps=(np.int64(0), 2))

    @pytest.mark.parametrize(
        "generator",
        [
            StationaryTraceGenerator(3000.0, 2500.0),
            MarkovTraceGenerator(),
            LowBandwidthTraceGenerator(),
        ],
        ids=["stationary", "markov", "low_bandwidth"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_generated_samples_equal_the_per_element_float_form(
        self, generator, seed, monkeypatch
    ):
        """The trace holds exactly ``tuple(float(v) for v in values)`` of the
        array the generator clipped last, type and bits alike."""
        clipped = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def maximum(self, *args, **kwargs):
                clipped.append(np.maximum(*args, **kwargs))
                return clipped[-1]

        monkeypatch.setattr(bandwidth_module, "np", RecordingNumpy())
        trace = generator.generate(120, np.random.default_rng(seed))
        expected = tuple(float(v) for v in clipped[-1])
        assert trace.values_kbps == expected
        assert all(type(v) is float for v in trace.values_kbps)

    def test_trace_wraps(self):
        trace = BandwidthTrace(values_kbps=(100.0, 200.0))
        assert trace.bandwidth_at(2) == 100.0
        assert trace.bandwidth_at(3) == 200.0

    def test_scaled(self):
        trace = BandwidthTrace(values_kbps=(100.0, 200.0))
        scaled = trace.scaled(2.0)
        assert scaled.values_kbps == (200.0, 400.0)
        with pytest.raises(ValueError):
            trace.scaled(0.0)

    def test_stationary_generator_mean(self, rng):
        trace = StationaryTraceGenerator(5000, 500).generate(500, rng)
        assert abs(trace.mean - 5000) < 200

    def test_markov_generator_two_regimes(self, rng):
        generator = MarkovTraceGenerator(good_mean_kbps=8000, bad_mean_kbps=800)
        trace = generator.generate(500, rng)
        values = np.asarray(trace.values_kbps)
        assert values.min() < 3000 < values.max()

    def test_low_bandwidth_generator_stays_low(self, rng):
        trace = LowBandwidthTraceGenerator(mean_kbps=1000, std_kbps=200).generate(300, rng)
        assert trace.mean < 2000

    def test_mixed_generator_population(self, rng):
        generator = MixedTraceGenerator(median_kbps=6000)
        traces = generator.generate_population(10, 50, rng)
        assert len(traces) == 10
        assert all(len(t) == 50 for t in traces)

    def test_invalid_generator_parameters(self):
        with pytest.raises(ValueError):
            StationaryTraceGenerator(-5)
        with pytest.raises(ValueError):
            MarkovTraceGenerator(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            LowBandwidthTraceGenerator(dropout_prob=1.0)

    @pytest.mark.parametrize("field", ["good_std_kbps", "bad_std_kbps"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_markov_generator_rejects_bad_std(self, field, value):
        with pytest.raises(ValueError, match="standard deviation"):
            MarkovTraceGenerator(**{field: value})

    def test_empty_markov_trace_is_a_value_error(self, rng):
        with pytest.raises(ValueError, match="at least one sample"):
            MarkovTraceGenerator().generate(0, rng)


def _per_sample_markov(generator, length, rng):
    """The chain one sample at a time, over the generator's two blocks."""
    z = rng.standard_normal(length)
    u = rng.random(length)
    values = []
    good = True
    for i in range(length):
        if good:
            values.append(generator.good_mean_kbps + generator.good_std_kbps * z[i])
            good = u[i] >= generator.p_good_to_bad
        else:
            values.append(generator.bad_mean_kbps + generator.bad_std_kbps * z[i])
            good = u[i] < generator.p_bad_to_good
    return tuple(np.maximum(values, 10.0).tolist())


class TestMarkovChain:
    @pytest.mark.parametrize(
        "p_good_to_bad,p_bad_to_good",
        [(0.1, 0.3), (0.25, 0.2), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5)],
    )
    def test_chain_equals_the_per_sample_loop(self, p_good_to_bad, p_bad_to_good):
        """The array chain gives the per-sample loop's trace, bit for bit, and
        leaves the stream where the two blocks end."""
        generator = MarkovTraceGenerator(
            p_good_to_bad=p_good_to_bad, p_bad_to_good=p_bad_to_good
        )
        for seed in range(200):
            for length in (1, 2, 7, 120):
                rng = np.random.default_rng(seed)
                reference_rng = np.random.default_rng(seed)
                trace = generator.generate(length, rng)
                assert trace.values_kbps == _per_sample_markov(
                    generator, length, reference_rng
                ), (seed, length)
                assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize(
        "p_good_to_bad,p_bad_to_good", [(0.1, 0.3), (0.25, 0.2), (0.5, 0.5)]
    )
    def test_long_run_good_share(self, p_good_to_bad, p_bad_to_good):
        """The share of good samples is the chain's stationary share, within
        five standard deviations of a binomial widened by the chain's lag-1
        correlation ``1 - p_good_to_bad - p_bad_to_good``."""
        generator = MarkovTraceGenerator(
            good_std_kbps=0.0,
            bad_std_kbps=0.0,
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
        )
        length = 100_000
        trace = generator.generate(length, np.random.default_rng(3))
        share = np.mean(np.asarray(trace.values_kbps) == generator.good_mean_kbps)
        stationary = p_bad_to_good / (p_good_to_bad + p_bad_to_good)
        correlation = 1.0 - p_good_to_bad - p_bad_to_good
        variance = stationary * (1 - stationary) / length
        variance *= (1 + correlation) / (1 - correlation)
        assert abs(share - stationary) <= 5 * np.sqrt(variance)

    def test_generate_trace_set_and_roundtrip(self, tmp_path, rng):
        traces = generate_trace_set(num_traces=6, length=30, low_bandwidth_fraction=0.5, seed=1)
        assert len(traces) == 6
        path = tmp_path / "traces.json"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert [t.name for t in loaded] == [t.name for t in traces]
        np.testing.assert_allclose(loaded[0].values_kbps, traces[0].values_kbps)


class TestHarmonicMean:
    def test_harmonic_mean_below_arithmetic(self):
        values = [1000.0, 4000.0]
        assert harmonic_mean(values) < np.mean(values)
        assert harmonic_mean(values) == pytest.approx(1600.0)

    def test_harmonic_mean_requires_positive(self):
        with pytest.raises(ValueError):
            harmonic_mean([0.0, -1.0])
