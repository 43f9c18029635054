"""Tests for synthetic log generation and the exit-predictor datasets."""

import hashlib
import json

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.datasets import (
    DatasetComposition,
    LogGenerationConfig,
    build_exit_dataset,
    generate_production_logs,
)
from repro.datasets.stall_dataset import (
    DEFAULT_TOLERANCE_PRIOR_S,
    NUM_FEATURES,
    WINDOW_LENGTH,
    ExitDataset,
    estimate_tolerance,
)
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


#: sha256 digests of ``build_exit_dataset(corpus, composition)`` per
#: composition: any change to a sample, label or its metadata shows here.
_DATASET_DIGESTS = {
    "all": {
        "features": "23b8ffdfe0ffe9c2f7011cf9d027fcb56b8df8f8c55f78168d6154ea4addd839",
        "labels": "797e089233861192df59af26af0eb11010b2d5900ec10c56acb6daab07f9f456",
        "user_ids": "f794f2516a516e834a1d5bd6c8ba1491e4471728ce507f4b2946fd685d5da26a",
        "stall_ordinals": "1dcf5cfd23ede31762459bac7411e519798a7a7017c6cb8db890cc73368d7e4f",
    },
    "event": {
        "features": "7f209c3381277905aa67c88c8de14807e78fb5ea07511fdc3f1fa6efb4b44d4e",
        "labels": "8a9d6a63251f15ad9e1428e6876b7252b3dbd8556dca82fe8490a2a58a3b5d84",
        "user_ids": "48f2a13656bd55576d1eca1422d6a962262c4479bef5f6672b17bb77c9672c80",
        "stall_ordinals": "20bc669bc55dd45e07d271ce3e213fb78cb1f25bb460c081af62fb2ca2de4b0c",
    },
    "stall": {
        "features": "2aa46fba86b1a99f8b7419fd48d0a211db1e36c3d397a41f840c0a490c245f58",
        "labels": "8af74f881e9b97f4a296d181996b3270e37ac638ba4481c82ff8d8cfec4986eb",
        "user_ids": "2886b300c22dabca28b6008296e2e8dbc1983dff7e4341ad246ba73e29c01bcb",
        "stall_ordinals": "6160cef64c22077cb422d7a8bfd54834c196e0fe35d1df9bdbc5ea1901fe6003",
    },
}


@pytest.fixture(scope="module")
def corpus():
    population = UserPopulation.generate(25, seed=9, bandwidth_median_kbps=3000)
    library = VideoLibrary(num_videos=4, seed=2)
    return generate_production_logs(
        population,
        library,
        LogGenerationConfig(days=2, sessions_per_user_per_day=3, seed=4),
    ).logs


class TestLogGeneration:
    def test_schema(self, corpus):
        assert len(corpus) == 25 * 2 * 3
        session = corpus[0]
        assert session.user_id.startswith("u")
        assert session.day in (0, 1)
        assert session.mean_bandwidth_kbps > 0
        assert len(session.records) >= 1

    def test_custom_abr_factory(self):
        population = UserPopulation.generate(3, seed=1)
        library = VideoLibrary(num_videos=2, seed=1)
        logs = generate_production_logs(
            population,
            library,
            LogGenerationConfig(days=1, sessions_per_user_per_day=1),
            abr_factory=lambda _profile: BBA(),
        )
        assert len(logs.logs) == 3
        assert set(logs.abrs) == {profile.user_id for profile in population}

    def test_dual_isp_corpus_is_pinned(self, log_digests):
        """A networked corpus, pinned to the digest of the scalar and vector
        engines before the generator ran on one engine."""
        population = UserPopulation.generate(12, seed=3, bandwidth_median_kbps=2000)
        library = VideoLibrary(num_videos=3, seed=2)
        result = generate_production_logs(
            population,
            library,
            LogGenerationConfig(
                days=2, sessions_per_user_per_day=2, trace_length=60, seed=5,
                network="dual_isp",
            ),
        )
        assert len(result.logs) == 48
        assert log_digests(result)["segments"] == (
            "d8ff7d3ffdb652dfb9fb187ae588acd99206eb5315bd7cf1536a31a24b6c618b"
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LogGenerationConfig(days=0)
        with pytest.raises(ValueError):
            LogGenerationConfig(sessions_per_user_per_day=0)
        with pytest.raises(ValueError):
            LogGenerationConfig(start_day=-1)


class TestEstimateTolerance:
    def test_uses_exit_history_when_available(self):
        assert estimate_tolerance(12.0, 3, 50.0) == pytest.approx(4.0)

    def test_falls_back_to_survived_or_prior(self):
        assert estimate_tolerance(0.0, 0, 9.0) == 9.0
        assert estimate_tolerance(0.0, 0, 0.0) == DEFAULT_TOLERANCE_PRIOR_S


class TestExitDataset:
    def test_shapes_and_metadata(self, corpus):
        dataset = build_exit_dataset(corpus, DatasetComposition.ALL)
        assert dataset.features.shape[1:] == (NUM_FEATURES, WINDOW_LENGTH)
        assert dataset.labels.shape == (len(dataset),)
        assert len(dataset.user_ids) == len(dataset)
        assert dataset.stall_ordinals is not None
        assert set(np.unique(dataset.labels)) <= {0, 1}

    def test_composition_sizes_nested(self, corpus):
        all_ds = build_exit_dataset(corpus, DatasetComposition.ALL)
        event_ds = build_exit_dataset(corpus, DatasetComposition.EVENT)
        stall_ds = build_exit_dataset(corpus, DatasetComposition.STALL)
        assert len(stall_ds) <= len(event_ds) <= len(all_ds)
        assert stall_ds.exit_fraction >= all_ds.exit_fraction

    def test_stall_samples_have_recent_stall(self, corpus):
        stall_ds = build_exit_dataset(corpus, DatasetComposition.STALL)
        # Row 3 is "segments since last stall"; the current segment stalled, so
        # the last entry of that row must be zero for every sample.
        assert np.allclose(stall_ds.features[:, 3, -1], 0.0)

    def test_features_are_finite_and_non_negative(self, corpus):
        dataset = build_exit_dataset(corpus, DatasetComposition.EVENT)
        assert np.all(np.isfinite(dataset.features))
        assert np.all(dataset.features >= 0.0)

    def test_subset_preserves_alignment(self, corpus):
        dataset = build_exit_dataset(corpus, DatasetComposition.ALL)
        indices = np.arange(0, len(dataset), 7)
        subset = dataset.subset(indices)
        assert len(subset) == len(indices)
        np.testing.assert_array_equal(subset.labels, dataset.labels[indices])
        assert subset.user_ids[0] == dataset.user_ids[indices[0]]

    @pytest.mark.parametrize("composition", list(DatasetComposition))
    def test_dataset_is_pinned_bit_for_bit(self, corpus, composition):
        """The samples of every composition, pinned to sha256 digests (the
        features as little-endian float64, the integer columns as int64)."""
        dataset = build_exit_dataset(corpus, composition)

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        digests = {
            "features": sha(np.ascontiguousarray(dataset.features, "<f8").tobytes()),
            "labels": sha(np.ascontiguousarray(dataset.labels, "<i8").tobytes()),
            "user_ids": sha(json.dumps(list(dataset.user_ids)).encode()),
            "stall_ordinals": sha(
                np.ascontiguousarray(dataset.stall_ordinals, "<i8").tobytes()
            ),
        }
        assert digests == _DATASET_DIGESTS[composition.value]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExitDataset(
                features=np.zeros((3, 2, 2)),
                labels=np.zeros(3, dtype=int),
                composition=DatasetComposition.ALL,
            )
        with pytest.raises(ValueError):
            ExitDataset(
                features=np.zeros((3, NUM_FEATURES, WINDOW_LENGTH)),
                labels=np.zeros(4, dtype=int),
                composition=DatasetComposition.ALL,
            )

    def test_exit_fraction_empty_handling(self):
        dataset = ExitDataset(
            features=np.zeros((2, NUM_FEATURES, WINDOW_LENGTH)),
            labels=np.asarray([0, 1]),
            composition=DatasetComposition.STALL,
        )
        assert dataset.exit_fraction == 0.5
